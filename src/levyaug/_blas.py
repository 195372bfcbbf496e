"""One BLAS thread per levyaug process.

The sweep's process pool is the only parallelism levyaug uses.  numpy and
scipy wheels each bundle their own OpenBLAS (numpy's runs the loss and
gradient products, scipy's runs L-BFGS-B's internals), and each starts a
thread pool sized to the machine.  Inside one fit the two pools contend for
the same cores, and in a forked sweep worker they also contend with the
other workers.  ``single_thread`` pins every loaded OpenBLAS to one thread
around foreign code and puts the previous counts back afterwards.

The lookup runs on each entry (about 0.1 ms) and nothing runs at import.
It finds only the libraries already mapped, and scipy's OpenBLAS is mapped
when scipy is first imported.  levyaug imports scipy only in the functions
that call it (``import levyaug`` and ``levyaug thin`` load none of it), so
``single_thread`` first loads the scipy modules every solver uses
(``load_scipy``), then scans.  Otherwise a solve in a fresh process would
load scipy inside the block and run it on scipy's OpenBLAS at full width.
Where no OpenBLAS is mapped, for example with another BLAS or on an OS
without ``/proc/self/maps``, the helper does nothing.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager

# (getter, setter) symbol names: upstream OpenBLAS, then the 64-bit-integer
# and 32-bit-integer builds the numpy and scipy wheels ship.
_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _openblas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    # Stream the file: a list of all ~700 lines would raise peak memory.
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = [line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line]
    except OSError:
        return []
    return list(dict.fromkeys(paths))


def _thread_controls():
    """One (get, set) pair of thread-count functions per loaded OpenBLAS."""
    controls = []
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is None or set_ is None:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            controls.append((get, set_))
            break
    return controls


def load_scipy() -> None:
    """Import the scipy modules the solvers use, mapping scipy's OpenBLAS.
    Solving commands and sweeps call it once before any timed work; after
    the first call it costs a few dictionary lookups."""
    import scipy.linalg.lapack  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse  # noqa: F401


@contextmanager
def single_thread():
    """Run the body with every loaded OpenBLAS on one thread, scipy's
    included (it is loaded first)."""
    load_scipy()
    controls = _thread_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, previous):
            set_(n)
