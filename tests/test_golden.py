"""Golden outputs: the SHA-256 of ``levyaug thin`` files on tiny datasets,
and of direct ``thin_*`` draws.

Each file digest pins the draw order (one substream per origin and copy),
the samplers' arithmetic and the float formatting of the pseudo-example
writer; each draw digest pins a sampler's generator calls and arithmetic,
for one draw and for a ``size`` batch.  A change that moves any of them
must say so and update the digest on purpose.
"""

import hashlib

import numpy as np
import pytest

from levyaug import RngState, thin_gamma, thin_gaussian, thin_poisson, thin_wishart
from levyaug.cli import main

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


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_thin_output_is_pinned(tmp_path, family):
    d, rows, extra, digest = GOLDEN[family]
    names = [f"m_{j + 1}" for j in range(d * (d + 1) // 2)] if family == "wishart" else [
        f"x_{j + 1}" for j in range(d)
    ]
    data = tmp_path / "data.csv"
    data.write_text(
        f"# levyaug-dataset v1 family={family} d={d}\n"
        + "y,t," + ",".join(names) + "\n"
        + "".join(row + "\n" for row in rows)
    )
    sigma = tmp_path / "sigma.csv"
    sigma.write_text("2.0,0.3\n0.3,1.0\n")
    out = tmp_path / "pseudo.csv"
    args = [str(sigma) if a == "SIGMA" else a for a in extra]
    assert main(["thin", "--input", str(data), "--output", str(out), *args]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_SIGMA = np.array([[2.0, 0.3], [0.3, 1.0]])

# family -> (draw(rng, size), digest of the single draw, digest at size=4)
GOLDEN_DRAWS = {
    "poisson": (
        lambda g, size: thin_poisson(np.array([2, 0, 5, 7]), 0.4, g, size=size),
        "9b1670a687077e666a364aef43ac7dc047ecbc4d1100f19291be3b8352d7785b",
        "9f9fe45f6786571ebe53d9ed595b215c53e1b124ec4b27775b32621fd618c540",
    ),
    "gaussian": (
        lambda g, size: thin_gaussian(np.array([0.5, -1.25]), 0.3, 2.0, _SIGMA, g, size=size),
        "e6b0c7757a4bf9f45ad1258a355cd6bfca01736bc94b4ab2d9e7eb507daa4ab0",
        "5a6055265897cb990242d7c4d2ae98e6466ff4532197eabfbcc034c255fa8398",
    ),
    "gamma": (
        lambda g, size: thin_gamma(np.array([0.5, 1.25, 3.0]), 0.5, 3.0, g, size=size),
        "77dc16cf9398065b84e65f8c19f76b7fded23bd29a9a61726edd69a6a5a7bb46",
        "4eb438a688583ab9f883ef678731d2085f0333a9a86d1f761734d9c97c3a0d38",
    ),
    "wishart": (
        lambda g, size: thin_wishart(np.array([[2.0, 0.5], [0.5, 1.0]]), 0.5, 6.0, g, size=size),
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
