import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_but_not_comments_blanks_or_docstrings(tmp_path):
    source = '''"""Module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 2


def area(r):
    """Function docstring
    over two lines."""
    text = """a string that is not
    a docstring"""
    return math.pi * r * r, text
'''
    path = tmp_path / "sample.py"
    path.write_text(source)
    # import, class, size, def, the two lines of text, return
    assert load_tool().count_code_lines(path) == 7


def test_prints_each_file_and_the_total(tmp_path, capsys):
    a = tmp_path / "a.py"
    a.write_text("x = 1\ny = 2\n")
    b = tmp_path / "b.py"
    b.write_text('"""Only a docstring."""\n')
    assert load_tool().main([str(a), str(b)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [["2", "a.py"], ["0", "b.py"], ["2", "total"]]
