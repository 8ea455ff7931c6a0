import os
import subprocess
import sys
from pathlib import Path

import coxmix

# a small run of every library layer and of the CLI's meta sidecar in a fresh
# interpreter, then the names of the modules it loaded that coxmix must not
# need: scipy, and the process-pool machinery that only a multi-worker run starts
SCRIPT = """
import os
import sys
import tempfile

import numpy as np

from coxmix import cli
from coxmix import (
    EMConfig, PenaltySpec, SimConfig, auc, censoring_weights, compute_marker,
    fit_mixture, generate_dataset, level_from_c, roc_curve, select_tuning, smooth_baseline_hazard,
)

data, _ = generate_dataset(SimConfig(150, censor_target=0.2, seed=1), np.random.default_rng(1))
config = EMConfig(k_init=3, max_iterations=30, restarts=1, seed=0)
model = fit_mixture(data, PenaltySpec(kind="scad", level=level_from_c(0.6, data.n)), config)
report = select_tuning(data, "mcp", c_grid=[0.6, 0.8], config=config, workers=1)
t = float(np.median(data.y))
for mode in ("mixture_event_prob", "mixture_posterior_lp"):
    markers = compute_marker(model, data, mode, t)
    assert 0.0 <= auc(roc_curve(markers, censoring_weights(markers, data, t))) <= 1.0
params = report.models[report.best_index].params
assert np.all(np.isfinite(smooth_baseline_hazard(params, data.y)))
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "sim.csv")
    assert cli.main(["simulate", "--n", "30", "--out", out]) == 0
    assert os.path.exists(out + ".meta.json")
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m == "concurrent.futures.process"))
"""


def test_library_runs_on_numpy_alone():
    # the child does not inherit pytest's `pythonpath` setting, so it is
    # pointed at the directory that holds the package under test
    package_root = str(Path(coxmix.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
