import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import levyaug
from levyaug import (
    Example,
    PseudoBatch,
    TrainConfig,
    _blas,
    fit_logistic_detailed,
    fit_strong_thinning,
    logistic,
    poisson_family,
)


# Thread-count symbol prefixes and suffixes of upstream OpenBLAS and of the
# builds bundled with the numpy and scipy wheels.
_NAMES = (("openblas", ""), ("scipy_openblas", "64_"), ("scipy_openblas", ""))


def _mapped_openblas():
    """Thread-count (get, set) pairs of every mapped OpenBLAS, found
    independently of the helper."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    found = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in _NAMES:
            get_name = f"{prefix}_get_num_threads{suffix}"
            if hasattr(lib, get_name):
                get = getattr(lib, get_name)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                found.append((get, set_))
                break
        else:
            raise AssertionError(f"no thread-count functions in {path}")
    return found


@pytest.fixture
def openblas_at_two_threads():
    """Every mapped OpenBLAS set to 2 threads, restored afterwards; yields
    a function that reads their current counts."""
    try:
        libs = _mapped_openblas()
    except OSError:
        libs = []
    if not libs:
        pytest.skip("no OpenBLAS mapped into this process")
    before = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(2)
    yield lambda: {get() for get, _ in libs}
    for (_, set_), n in zip(libs, before):
        set_(n)


def test_single_thread_pins_every_openblas(openblas_at_two_threads):
    assert len(_blas._thread_controls()) == len(_mapped_openblas())
    with _blas.single_thread():
        assert openblas_at_two_threads() == {1}
    assert openblas_at_two_threads() == {2}


def test_single_thread_restores_after_an_exception(openblas_at_two_threads):
    with pytest.raises(RuntimeError):
        with _blas.single_thread():
            raise RuntimeError("boom")
    assert openblas_at_two_threads() == {2}


def test_single_thread_without_openblas_is_a_no_op(openblas_at_two_threads, monkeypatch):
    monkeypatch.setattr(_blas, "_openblas_paths", lambda: [])
    assert _blas._thread_controls() == []
    with _blas.single_thread():
        assert openblas_at_two_threads() == {2}


def _record_solver_threads(monkeypatch, thread_counts):
    """Make every solve record the OpenBLAS thread counts it starts with."""
    seen = []
    minimize = logistic.minimize

    def recording_minimize(*args, **kwargs):
        seen.append(thread_counts())
        return minimize(*args, **kwargs)

    monkeypatch.setattr(logistic, "minimize", recording_minimize)
    return seen


def test_fits_run_on_one_thread(openblas_at_two_threads, monkeypatch):
    seen = _record_solver_threads(monkeypatch, openblas_at_two_threads)
    g = np.random.default_rng(3)
    pseudo = PseudoBatch(
        x_tilde=g.standard_normal((20, 3)),
        y=1 + np.arange(20) % 2,
        origin_id=np.arange(20),
        alpha=1.0,
        t_tilde=1.0,
    )
    fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=0.1))
    assert seen and all(counts == {1} for counts in seen)
    assert openblas_at_two_threads() == {2}


def test_limit_fit_runs_on_one_thread(openblas_at_two_threads, monkeypatch):
    seen = _record_solver_threads(monkeypatch, openblas_at_two_threads)
    g = np.random.default_rng(4)
    originals = [Example(x=g.poisson(3.0, size=5), y=1 + i % 2, t=4.0) for i in range(12)]
    fit_strong_thinning(originals, poisson_family(5))
    assert seen and all(counts == {1} for counts in seen)
    assert openblas_at_two_threads() == {2}


# Each solve entry point, called first thing in a fresh process: scipy is
# not loaded yet, so single_thread must load it before it scans for OpenBLAS
# libraries, or scipy's would run the solve at its default width.
_FIRST_SOLVE = """
import json, sys
import numpy as np
from levyaug import (Example, PseudoBatch, TrainConfig, _blas, calibrate, fit_logistic_detailed,
                     fit_strong_thinning, logistic, poisson_family)
from levyaug.logistic import LogisticModel

assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
numpy_only = len(_blas._thread_controls())
seen, minimize = [], logistic.minimize

def spy(*args, **kwargs):
    seen.append([get() for get, _ in _blas._thread_controls()])
    return minimize(*args, **kwargs)

logistic.minimize = spy
g = np.random.default_rng(3)
x, y = g.poisson(3.0, size=(20, 3)), 1 + np.arange(20) % 2
entry = sys.argv[1]
if entry == "fit_logistic_detailed":
    pseudo = PseudoBatch(x_tilde=x, y=y, origin_id=np.arange(20), alpha=1.0, t_tilde=1.0)
    fit_logistic_detailed(pseudo, TrainConfig(ridge_lambda=0.1))
elif entry == "calibrate":
    examples = [Example(x=row, y=label, t=1.0) for row, label in zip(x, y)]
    calibrate(LogisticModel(beta=np.array([[-0.5, 0.5], [0.2, -0.2], [0.0, 0.0]])), examples)
else:
    examples = [Example(x=row, y=label, t=4.0) for row, label in zip(x, y)]
    fit_strong_thinning(examples, poisson_family(3))
after = [get() for get, _ in _blas._thread_controls()]
print(json.dumps({"numpy_only": numpy_only, "seen": seen, "after": after}))
"""


@pytest.mark.parametrize("entry", ["fit_logistic_detailed", "calibrate", "fit_strong_thinning"])
def test_the_first_solve_in_a_fresh_process_is_pinned(entry):
    try:
        libs = _mapped_openblas()
    except OSError:
        libs = []
    if not libs:
        pytest.skip("no OpenBLAS mapped into this process")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=str(Path(levyaug.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", _FIRST_SOLVE, entry], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    if len(report["after"]) == report["numpy_only"]:
        pytest.skip("scipy brings no OpenBLAS of its own here")
    if max(report["after"]) < 2:
        pytest.skip("OpenBLAS starts at one thread here, so pinning cannot be observed")
    assert report["seen"], "the solve never called minimize"
    for counts in report["seen"]:
        # scipy's OpenBLAS is mapped by then, and every library is pinned.
        assert len(counts) == len(report["after"])
        assert counts == [1] * len(counts)
