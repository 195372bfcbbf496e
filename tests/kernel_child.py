"""Run levyaug commands in one process and print, as one JSON line, the
SHA-256 of each command's standard output and the kernel each loaded
OpenBLAS picked.  ``tests/test_golden.py`` runs it with a CPU code path
forced in its environment:

    python kernel_child.py '[["thin", "--input", ...], ["simulate", ...]]'

A command that exits nonzero stops the run with exit code 1.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys

# the kernel-name getter of upstream OpenBLAS and of the numpy and scipy wheels' builds
_CORENAME = (
    "openblas_get_corename",
    "scipy_openblas_get_corename64_",
    "scipy_openblas_get_corename",
)


def openblas_cores() -> list[str]:
    """The kernel name of every OpenBLAS mapped into this process."""
    from levyaug._blas import _openblas_paths

    cores = []
    for path in _openblas_paths():
        lib = ctypes.CDLL(path)
        get = next((getattr(lib, n) for n in _CORENAME if hasattr(lib, n)), None)
        if get is not None:
            get.restype = ctypes.c_char_p
            cores.append(get().decode())
    return cores


if __name__ == "__main__":
    from levyaug.cli import main

    stdouts = []
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            if main(argv) != 0:
                sys.exit(f"levyaug {argv[0]} failed")
        stdouts.append(hashlib.sha256(out.getvalue().encode()).hexdigest())
    print(json.dumps({"stdout": stdouts, "cores": openblas_cores()}))
