"""Start-up: importing the package, and the commands that solve nothing,
load no scipy; the commands that solve load it at their first solve.

Each case runs in a fresh interpreter, because this one has scipy loaded.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import eigenmin

# argv[1]: the package's parent directory; argv[2]: the module to import;
# argv[3]: a JSON list of argvs for that module's main.  Prints the exit codes
# and the scipy modules loaded, as JSON.
_CHILD = """
import contextlib, importlib, io, json, sys
sys.path.insert(0, sys.argv[1])
module = importlib.import_module(sys.argv[2])
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[3]):
        codes.append(module.main(argv))
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")]))
"""


def _fresh(module, argvs=()):
    """Exit codes of ``argvs`` and the scipy modules loaded, in a fresh
    interpreter that imports ``module`` first."""
    src = str(Path(eigenmin.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, src, module, json.dumps(list(argvs))],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", ["eigenmin", "eigenmin.cli"])
def test_import_loads_no_scipy(module):
    assert _fresh(module) == [[], []]


def test_commands_that_solve_nothing_load_no_scipy():
    argvs = [["oracle", "--surface", "sphere"],
             ["mesh", "--surface", "clifford", "--resolution", "8"],
             ["spectrum", "--surface", "clifford", "--resolution", "8", "--k", "0"],
             ["spectrum", "--surface", "clifford", "--resolution", "8", "--tol", "nan"],
             ["spectrum", "--surface", "clifford", "--resolution", "8", "--seed", "-1"]]
    assert _fresh("eigenmin.cli", argvs) == [[0, 0, 2, 2, 2], []]


@pytest.mark.parametrize("resolution, solver", [(8, "scipy.linalg"),
                                                (32, "scipy.sparse.linalg")],
                         ids=["dense", "sparse"])
def test_spectrum_loads_scipy_at_its_first_solve(resolution, solver):
    argv = ["spectrum", "--surface", "clifford", "--resolution", str(resolution)]
    codes, loaded = _fresh("eigenmin.cli", [argv])
    assert codes == [0]
    assert solver in loaded
