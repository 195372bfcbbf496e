import ctypes

import numpy as np
import pytest

from levyaug import (
    Example,
    PseudoBatch,
    TrainConfig,
    _blas,
    fit_logistic,
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
    fit_logistic(pseudo, TrainConfig(ridge_lambda=0.1))
    assert seen and all(counts == {1} for counts in seen)
    assert openblas_at_two_threads() == {2}


def test_limit_fit_runs_on_one_thread(openblas_at_two_threads, monkeypatch):
    seen = _record_solver_threads(monkeypatch, openblas_at_two_threads)
    g = np.random.default_rng(4)
    originals = [Example(x=g.poisson(3.0, size=5), y=1 + i % 2, t=4.0) for i in range(12)]
    fit_strong_thinning(originals, poisson_family(5))
    assert seen and all(counts == {1} for counts in seen)
    assert openblas_at_two_threads() == {2}
