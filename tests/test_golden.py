"""Golden outputs: the SHA-256 of ``levyaug thin`` files on tiny datasets.

Each digest pins the draw order (one substream per origin and copy), the
samplers' arithmetic and the float formatting of the pseudo-example
writer.  A change that moves any of them must say so and update the
digest on purpose.
"""

import hashlib

import pytest

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
