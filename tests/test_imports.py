"""The package's import rule: scipy is imported by the function that calls it.

Each probe runs in a fresh interpreter, since this test session has loaded
scipy long before.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import thindisk

IMPORT_PROBE = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import thindisk, thindisk.cli
stages = {"import": scipy_modules()}

from thindisk import (D2Disk, build_cartesian_grid, build_polar_grid, run_convergence,
                      sample_density, solve_cartesian, solve_polar,
                      tabulate_cartesian_kernels, tabulate_polar_kernels)
grid = build_polar_grid(1.0, 32, 0.99)
solve_polar(sample_density(D2Disk(), grid), tabulate_polar_kernels(grid))
run_convergence(D2Disk(), [16, 32], coords="polar")
stages["polar"] = scipy_modules()

grid = build_cartesian_grid(1.0, 32)
solve_cartesian(sample_density(D2Disk(), grid), tabulate_cartesian_kernels(grid))
run_convergence(D2Disk(), [16, 32], method="softening")
stages["cartesian"] = scipy_modules()
print(json.dumps(stages))
"""


def test_scipy_is_loaded_by_the_function_that_calls_it():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(thindisk.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    stages = json.loads(out.splitlines()[-1])
    assert stages["import"] == [], "importing thindisk and thindisk.cli loads scipy"
    assert stages["polar"] == [], "polar work loads scipy"
    assert "scipy.fft" in stages["cartesian"]
    assert not [m for m in stages["cartesian"] if m.startswith("scipy.integrate")]
