"""Start-up: importing the package, and the commands that solve nothing,
load no scipy; the commands that solve load it at their first solve.  The
float-text tables are built at first use.  The import sets one BLAS thread
unless a variable or numpy came first.

Each case runs in a fresh interpreter, because this one has scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eigenmin

_SRC = str(Path(eigenmin.__file__).parents[1])

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
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, _SRC, module, json.dumps(list(argvs))],
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


# argv[1]: the package's parent directory.  Prints whether the float-text
# tables are built after the CLI import and after an array is formatted, and
# which of fractions and decimal are loaded by then.
_TEXT_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import eigenmin.cli
from eigenmin import _text
built = [_text._tables.cache_info().currsize]
_text.float_text([k / 7 for k in range(1, 1000)])
built.append(_text._tables.cache_info().currsize)
print(json.dumps([built, sorted({"fractions", "decimal"} & set(sys.modules))]))
"""


def test_float_text_tables_are_built_at_first_use():
    done = subprocess.run([sys.executable, "-c", _TEXT_CHILD, _SRC],
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout) == [[0, 1], []]


# argv[1]: the package's parent directory; argv[2]: "1" to import numpy
# first.  Prints the *_THREADS variables after the import, and the number of
# forks that verify's split takes on 2 CPUs, with stub solvers.
_WIDTH_CHILD = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
if sys.argv[2] == "1":
    import numpy
from eigenmin import _fork, verify
threads = {k: v for k, v in os.environ.items() if k.endswith("_THREADS")}
verify.solve_lowest = lambda ops, *args, **kwargs: ops
verify.morse_index = lambda ops, c: c
_fork.cpus = lambda: 2
forks, real_fork = [], os.fork
os.fork = lambda: forks.append(1) or real_fork()
assert verify._solve("middle", "fine", 3.0, 1e-8, 0, 3.0) == (
    ["middle", "fine"], (3.0, 3.0))
print(json.dumps([threads, len(forks)]))
"""

_ONE = dict.fromkeys(["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                      "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"], "1")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the platform cannot fork")
@pytest.mark.parametrize("preset, numpy_first, threads, forks", [
    ({}, False, _ONE, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, False, {**_ONE, "OPENBLAS_NUM_THREADS": "2"}, 0),
    ({}, True, {}, 0),
], ids=["unset", "openblas-2", "numpy-first"])
def test_one_blas_thread_by_default(preset, numpy_first, threads, forks):
    # Every thread variable is dropped, also those this process has set.
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    done = subprocess.run(
        [sys.executable, "-c", _WIDTH_CHILD, _SRC, str(int(numpy_first))],
        env={**env, **preset}, capture_output=True, text=True, check=True,
        timeout=120)
    assert json.loads(done.stdout) == [threads, forks]
