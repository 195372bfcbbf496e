"""Golden outputs: the SHA-256 of ``levyaug thin`` files on tiny datasets,
of direct ``thin_*`` draws, and of the fit commands' outputs.

Each file digest pins the draw order (one substream per origin and copy),
the samplers' arithmetic and the float formatting of the pseudo-example
writer; each draw digest pins a sampler's generator calls and arithmetic,
for one draw and for a ``size`` batch.  The fit digests pin ``train``'s
model file and ``.cv.csv`` on each solver path (Newton through the
Woodbury identity, Newton with a Cholesky solve, L-BFGS-B on a CSC design,
a three-class fit), ``limit``'s model file with and without a covariance,
and ``simulate``'s CSV and stdout for a tiny run of each design.  A change
that moves any of them must say so and update the digest on purpose.

Like the Gaussian and Wishart ``thin`` digests, the ``train`` and
``limit`` digests pin the arithmetic of the BLAS and numpy build they were
computed with: the same code on another build may sum in another order and
move the last bits.  The ``simulate`` digests and the Poisson and Gamma
``thin`` digests are portable, and the last test re-runs them in child
processes under forced OpenBLAS and numpy CPU kernels.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import levyaug
from kernel_child import openblas_cores
from levyaug import (
    ExampleBatch,
    FamilyKind,
    RngState,
    gamma_family,
    gaussian_family,
    poisson_family,
    thin,
    wishart_family,
)
from levyaug._blas import load_scipy
from levyaug.cli import main
from levyaug.dataio import write_dataset

# family -> (d, dataset rows "y,t,features", extra thin arguments, digest)
GOLDEN = {
    "poisson": (
        3,
        ["1,6.0,2,0,5", "2,6.0,1,3,0", "1,4.5,0,0,1", "2,8.0,4,4,4"],
        ["--alpha", "0.4", "-B", "3", "--seed", "11"],
        "e65bdf9ebe1fa177c29bcd129dcbf92697b94f591898821325b06de265aa01d8",
    ),
    "gaussian": (
        2,
        ["1,1.0,0.5,-1.25", "2,2.0,1.5,0.75", "1,0.5,-0.3,0.1", "2,3.0,2.0,-2.0"],
        ["--alpha", "0.3", "-B", "3", "--seed", "12", "--sigma", "SIGMA"],
        "8ff881873fafd69a221a39bc423d6c0457db91243a6bc4383c9455b291350646",
    ),
    "gamma": (
        2,
        ["1,3.0,0.5,1.25", "2,2.0,1.5,0.75", "1,5.0,0.3,0.1", "2,3.0,2.0,4.0"],
        ["--alpha", "0.5", "-B", "3", "--seed", "13"],
        "d4cbcad5180ccf57bfb09964704ad2e08c328e18be0c28f4bac4051de4a3df5b",
    ),
    "wishart": (
        2,
        ["1,6.0,2.0,0.5,1.0", "2,6.0,1.0,-0.25,3.0", "1,8.0,4.0,1.0,2.0", "2,7.0,1.5,0.0,1.5"],
        ["--alpha", "0.5", "-B", "3", "--seed", "14"],
        "aea97763732568a9f7fca5b6c4025519a8e19200f89e2cf6710de422c650c6e8",
    ),
}


def _thin_case(tmp_path, family):
    """The ``thin`` command line of the golden case ``family``, after
    writing its dataset and covariance under ``tmp_path``, and its output."""
    d, rows, extra, _ = GOLDEN[family]
    names = [f"m_{j + 1}" for j in range(d * (d + 1) // 2)] if family == "wishart" else [
        f"x_{j + 1}" for j in range(d)
    ]
    data = tmp_path / f"{family}.csv"
    data.write_text(
        f"# levyaug-dataset v1 family={family} d={d}\n"
        + "y,t," + ",".join(names) + "\n"
        + "".join(row + "\n" for row in rows)
    )
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("2.0,0.3\n0.3,1.0\n")
    out = tmp_path / f"{family}.pseudo.csv"
    args = [str(sigma) if a == "SIGMA" else a for a in extra]
    return ["thin", "--input", str(data), "--output", str(out), *args], out


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_thin_output_is_pinned(tmp_path, family):
    argv, out = _thin_case(tmp_path, family)
    assert main(argv) == 0
    assert _digest(out) == GOLDEN[family][3]


_SIGMA = np.array([[2.0, 0.3], [0.3, 1.0]])

# family -> (draw(rng, size), digest of the single draw, digest at size=4)
GOLDEN_DRAWS = {
    "poisson": (
        lambda g, size: thin(poisson_family(4), np.array([2, 0, 5, 7]), alpha=0.4, t=1.0, rng=g,
                             size=size),
        "9b1670a687077e666a364aef43ac7dc047ecbc4d1100f19291be3b8352d7785b",
        "9f9fe45f6786571ebe53d9ed595b215c53e1b124ec4b27775b32621fd618c540",
    ),
    "gaussian": (
        lambda g, size: thin(gaussian_family(2, _SIGMA), np.array([0.5, -1.25]), alpha=0.3, t=2.0,
                             rng=g, size=size),
        "e6b0c7757a4bf9f45ad1258a355cd6bfca01736bc94b4ab2d9e7eb507daa4ab0",
        "5a6055265897cb990242d7c4d2ae98e6466ff4532197eabfbcc034c255fa8398",
    ),
    "gamma": (
        lambda g, size: thin(gamma_family(3), np.array([0.5, 1.25, 3.0]), alpha=0.5, t=3.0, rng=g,
                             size=size),
        "77dc16cf9398065b84e65f8c19f76b7fded23bd29a9a61726edd69a6a5a7bb46",
        "4eb438a688583ab9f883ef678731d2085f0333a9a86d1f761734d9c97c3a0d38",
    ),
    "wishart": (
        lambda g, size: thin(wishart_family(2), np.array([[2.0, 0.5], [0.5, 1.0]]), alpha=0.5,
                             t=6.0, rng=g, size=size),
        "6ffc77a2d55825f2a991262ca201069a5111285c89218d8db561c9ab9407e96d",
        "58b32dd0c0c0d9ec7d56e58bc9b3b1216db128dfe5c56bf654b47e0dba0e4c56",
    ),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_DRAWS))
def test_thin_draws_are_pinned(family):
    draw, *digests = GOLDEN_DRAWS[family]
    for size, digest in zip((None, 4), digests):
        out = draw(RngState(41).spawn(), size)
        header = f"{out.dtype}{out.shape}".encode()
        assert hashlib.sha256(header + np.ascontiguousarray(out).tobytes()).hexdigest() == digest


def _write_originals(path, family, n, k, seed):
    """``n`` originals of ``family``, labels cycling through 1..k, drawn
    from numpy seed ``seed``: Poisson counts mostly zero (rate 0.15, class 1
    raised on the first 10 coordinates), Gaussian unit noise with class y
    shifted by 0.6 (y - 1) on the first 3 coordinates."""
    g = np.random.default_rng(seed)
    y = 1 + np.arange(n) % k
    coords = np.arange(family.d)
    if family.kind is FamilyKind.POISSON:
        x = g.poisson(0.15 + 0.3 * (coords < 10) * (y == 1)[:, None])
    else:
        x = g.standard_normal((n, family.d)) + 0.6 * (coords < 3) * (y - 1)[:, None]
    write_dataset(path, family, ExampleBatch(x=x, y=y, t=1.0))


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# solver path -> (family, originals n, classes, -B, model digest, .cv.csv digest).
# Each is thinned at alpha 0.5 with seed 7 and trained on the grid 0.3,0.1,0.03.
GOLDEN_TRAIN = {
    # 30 pseudo rows < p = 40: damped Newton through the Woodbury identity
    "newton-woodbury": (
        gaussian_family(40), 15, 2, 2,
        "615286d575d94d268d9a3440297a8b0089024d27a76215b30e766b4ab7d1062e",
        "6b0bdd1280171585fd9ad9c53d09bc0f5e1c222ab48203ec6bd042f733c4c983",
    ),
    # 60 pseudo rows >= p = 5: damped Newton with a Cholesky solve
    "newton-cholesky": (
        gaussian_family(5), 20, 2, 3,
        "7413bce4a7235b0cb7b4f11f1402319720efa262653c24b1db89eba99d318b3d",
        "c118996128104712d9d50862c32711903f96fc4004997f648835c699a9405f74",
    ),
    # 400 x 300 counts, about 7% nonzero, folds of 320 rows: L-BFGS-B on CSC
    "lbfgs-csc": (
        poisson_family(300), 100, 2, 4,
        "da1852da06ee9431d7a1c7ae6519bc2b9520384fbc9a89b172188a3bf0ac950f",
        "d55a23b6c1d4e21758170ce4efd7e5e9b285ee0f9a321f6e7a96a8f1151c2e49",
    ),
    # three classes: L-BFGS-B on a dense design
    "three-class": (
        gaussian_family(4), 30, 3, 2,
        "67898ed8844ca7d2024e60463991c5a23ebb524b396a3a699792b61cb978b9ac",
        "30e66bdfb7e28414995f27547f3b1fc0cf541267db49ecf6dbaa6d8e0f292585",
    ),
}


@pytest.mark.parametrize("path", sorted(GOLDEN_TRAIN))
def test_train_output_is_pinned(tmp_path, path):
    family, n, k, copies, model_digest, cv_digest = GOLDEN_TRAIN[path]
    data, pseudo, model = tmp_path / "data.csv", tmp_path / "pseudo.csv", tmp_path / "m.txt"
    _write_originals(data, family, n, k, seed=3)
    assert main(["thin", "--input", str(data), "--output", str(pseudo), "--alpha", "0.5",
                 "-B", str(copies), "--seed", "7"]) == 0
    assert main(["train", "--pseudo", str(pseudo), "--originals", str(data), "--out",
                 str(model), "--ridge-lambda", "0.3,0.1,0.03"]) == 0
    assert (_digest(model), _digest(tmp_path / "m.txt.cv.csv")) == (model_digest, cv_digest)


# family -> (dataset family, extra limit arguments, model digest)
GOLDEN_LIMIT = {
    "gaussian": (
        gaussian_family(3), ["--sigma", "SIGMA"],
        "a040c2ce299855b40ae739327cdf4172b217fbdfd45b2a9bc5b8acc58b22da4b",
    ),
    "poisson": (
        poisson_family(12), [],
        "2507e0bf3c1eb0b288db2636e4a2cb7e477b304b9683dd830d38b05f2c6db512",
    ),
}


@pytest.mark.parametrize("family", sorted(GOLDEN_LIMIT))
def test_limit_output_is_pinned(tmp_path, family):
    fam, extra, digest = GOLDEN_LIMIT[family]
    data, model, sigma = tmp_path / "data.csv", tmp_path / "m.txt", tmp_path / "sigma.csv"
    _write_originals(data, fam, 40, 2, seed=5)
    sigma.write_text("2.0,0.3,0.0\n0.3,1.0,-0.2\n0.0,-0.2,1.5\n")
    args = [str(sigma) if a == "SIGMA" else a for a in extra]
    assert main(["limit", "--originals", str(data), "--out", str(model), *args]) == 0
    assert _digest(model) == digest


# spec -> (extra simulate arguments, CSV digest, stdout digest), at --jobs 1
GOLDEN_SIMULATE = {
    "gauss": (["--n-grid", "12", "--alphas", "0,0.5,1", "--replicates", "2", "-B", "2",
               "--lambdas", "1,0.1", "--standardize", "--seed", "17"],
              "99b730b442a20be80e1c09fa1352ee4b94fbeb4804f7588c609eefec2874952c",
              "95c96d955133368fc6a9da97119671562a9561dd89353cb971f24481f7c32f48"),
    "poisson": (["--n-grid", "10", "--alphas", "0,0.5,1", "--replicates", "1", "-B", "2",
                 "--lambdas", "1,0.1,0.01", "--seed", "19"],
                "be4be0d3ffe2c25e54920ca889115921dd808bf77c02ae15575d281a20bc07cc",
                "75df436fbd74f14cc6b4b0cd27841808fdca243799788fd3c574a90e01d0c449"),
}


def _simulate_case(tmp_path, spec):
    """The ``simulate`` command line of the golden case ``spec``, and its CSV."""
    out = tmp_path / f"{spec}.sweep.csv"
    return ["simulate", "--spec", spec, "--out", str(out), "--jobs", "1",
            *GOLDEN_SIMULATE[spec][0]], out


@pytest.mark.parametrize("spec", sorted(GOLDEN_SIMULATE))
def test_simulate_output_is_pinned(tmp_path, capsys, spec):
    argv, out = _simulate_case(tmp_path, spec)
    capsys.readouterr()
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert (_digest(out), hashlib.sha256(stdout.encode()).hexdigest()) == GOLDEN_SIMULATE[spec][1:]


# The outputs called portable: their bytes must not depend on which CPU
# kernels OpenBLAS and numpy pick.  Each forced setting is (variable, value,
# the CPU features its code path needs); it applies to a child process only.
_PORTABLE_THIN = ("gamma", "poisson")
_FORCED = [
    ("OPENBLAS_CORETYPE", "Haswell", ("AVX2", "FMA3")),
    ("OPENBLAS_CORETYPE", "Sandybridge", ("AVX",)),
    ("OPENBLAS_CORETYPE", "Prescott", ("SSE3",)),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4,AVX512_ICL,AVX512_SPR", ()),
]


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.parametrize("variable, value, needs", _FORCED, ids=[f"{v}={x}" for v, x, _ in _FORCED])
def test_portable_outputs_hold_under_forced_cpu_kernels(tmp_path, variable, value, needs):
    cpu = _cpu_features()
    missing = [f for f in needs if not cpu.get(f)]
    if missing:
        pytest.skip(f"this CPU cannot run the {value} kernels: no {', '.join(missing)}")
    if variable == "NPY_DISABLE_CPU_FEATURES":
        unknown = [f for f in value.split(",") if f not in cpu]
        if unknown:
            pytest.skip(f"this numpy dispatches no {', '.join(unknown)}")
        if not any(cpu[f] for f in value.split(",")):
            pytest.skip(f"this CPU has none of {value}, so disabling them changes nothing")
    else:
        load_scipy()
        native = openblas_cores()
        if not native:
            pytest.skip("no OpenBLAS is loaded, so OPENBLAS_CORETYPE does nothing")
    cases = [_thin_case(tmp_path, f) for f in _PORTABLE_THIN]
    cases += [_simulate_case(tmp_path, s) for s in sorted(GOLDEN_SIMULATE)]
    src = os.path.dirname(os.path.dirname(levyaug.__file__))
    env = dict(os.environ, **{variable: value})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, os.path.join(os.path.dirname(__file__), "kernel_child.py"),
         json.dumps([argv for argv, _ in cases])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    if variable == "OPENBLAS_CORETYPE" and report["cores"] == native:
        pytest.skip(f"{variable}={value} left OpenBLAS on {native}: not a DYNAMIC_ARCH build, "
                    "or already its kernel")
    digests = [_digest(out) for _, out in cases]
    expected = [GOLDEN[f][3] for f in _PORTABLE_THIN]
    expected += [GOLDEN_SIMULATE[s][1] for s in sorted(GOLDEN_SIMULATE)]
    assert digests == expected
    assert report["stdout"][len(_PORTABLE_THIN):] == [
        GOLDEN_SIMULATE[s][2] for s in sorted(GOLDEN_SIMULATE)
    ]
