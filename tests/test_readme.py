import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "README has no python block under 'Library usage'"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme_example"})
