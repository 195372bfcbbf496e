import numpy as np
import pytest

from levyaug import (
    DataFormatError,
    Example,
    ParameterError,
    PseudoBatch,
    SupportError,
    gamma_family,
    gaussian_family,
    poisson_family,
    wishart_family,
)
from levyaug.dataio import (
    pack_symmetric,
    read_dataset,
    read_matrix,
    read_pseudo_dataset,
    unpack_symmetric,
    write_dataset,
    write_pseudo_dataset,
)

from conftest import random_pd_matrix


def test_pack_unpack_round_trip(rng):
    m = random_pd_matrix(4, rng)
    packed = pack_symmetric(m)
    assert packed.shape == (10,)
    assert np.allclose(unpack_symmetric(packed, 4), m)


def test_vector_dataset_round_trip(tmp_path):
    fam = poisson_family(3)
    examples = [
        Example(x=np.array([2, 0, 5]), y=1, t=7.0),
        Example(x=np.array([0, 1, 1]), y=2, t=2.0),
    ]
    path = tmp_path / "data.csv"
    write_dataset(path, fam, examples)
    fam2, loaded = read_dataset(path)
    assert fam2 == fam
    assert len(loaded) == 2
    assert np.array_equal(loaded[0].x, examples[0].x)
    assert loaded[1].y == 2 and loaded[1].t == 2.0
    # a rewrite of what was read is byte-identical
    path2 = tmp_path / "again.csv"
    write_dataset(path2, fam2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_wishart_dataset_round_trip(tmp_path, rng):
    fam = wishart_family(3)
    examples = [Example(x=random_pd_matrix(3, rng), y=1, t=5.0) for _ in range(3)]
    path = tmp_path / "wishart.csv"
    write_dataset(path, fam, examples)
    fam2, loaded = read_dataset(path)
    assert fam2 == fam
    for a, b in zip(examples, loaded):
        assert np.allclose(a.x, b.x, atol=1e-15)


def test_gaussian_dataset_sigma_override(tmp_path):
    fam = gaussian_family(2, np.array([[2.0, 0.5], [0.5, 1.0]]))
    examples = [Example(x=np.array([0.5, -1.0]), y=1, t=1.0),
                Example(x=np.array([1.5, 2.0]), y=2, t=1.0)]
    path = tmp_path / "gauss.csv"
    write_dataset(path, fam, examples)
    default_fam, _ = read_dataset(path)
    assert np.array_equal(default_fam.sigma, np.eye(2))
    fam2, _ = read_dataset(path, sigma=np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert np.array_equal(fam2.sigma, fam.sigma)


def test_pseudo_round_trip(tmp_path):
    fam = gamma_family(2)
    pseudo = PseudoBatch(
        x_tilde=np.array([[0.5, 0.25], [1.5, 0.75]]),
        y=[1, 2],
        origin_id=[0, 1],
        alpha=0.5,
        t_tilde=1.0,
    )
    path = tmp_path / "pseudo.csv"
    write_pseudo_dataset(path, fam, pseudo)
    fam2, loaded = read_pseudo_dataset(path)
    assert fam2 == fam
    assert [pe.origin_id for pe in loaded] == [0, 1]
    assert all(pe.alpha == 0.5 for pe in loaded)
    assert np.array_equal(loaded[0].x_tilde, pseudo[0].x_tilde)


def test_pseudo_errors_name_the_offending_row(tmp_path):
    path = tmp_path / "pseudo.csv"
    head = "# levyaug-pseudo v1 family={} d=2\norigin_id,alpha,y,t_tilde,x_1,x_2\n"
    for family, rows, error in (
        ("poisson", "0,0.5,1,1.0,2,0\n0,1.5,1,1.0,2,0\n", ParameterError),
        ("poisson", "0,0.5,1,1.0,2,0\n1,0.5,2,1.0,0.5,0\n", SupportError),
        ("poisson", "0,0.5,1,1.0,2,0\n1.5,0.5,2,1.0,1,0\n", DataFormatError),
        ("poisson", "0,0.5,1,1.0,2,0\nnan,0.5,2,1.0,1,0\n", DataFormatError),
        ("gamma", "0,0.5,1,1.0,2,1\n1,0.5,2,1.0,-0.5,1\n", SupportError),
        ("gaussian", "0,0.5,1,1.0,2,1\n1,0.5,2,1.0,nan,1\n", SupportError),
    ):
        path.write_text(head.format(family) + rows)
        with pytest.raises(error, match="row 2"):
            read_pseudo_dataset(path)


def test_nan_label_is_a_format_error(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\nnan,1.0,2,0\n")
    with pytest.raises(DataFormatError, match="row 1"):
        read_dataset(path)


def test_errors_name_the_offending_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "# levyaug-dataset v1 family=poisson d=2\n"
        "y,t,x_1,x_2\n"
        "1,1.0,2,0\n"
        "2,1.0,oops,0\n"
    )
    with pytest.raises(DataFormatError, match="row 2"):
        read_dataset(path)

    path.write_text(
        "# levyaug-dataset v1 family=poisson d=2\n"
        "y,t,x_1,x_2\n"
        "1,1.0,2,-3\n"
    )
    with pytest.raises(SupportError, match="row 1"):
        read_dataset(path)

    path.write_text(
        "# levyaug-dataset v1 family=poisson d=2\n"
        "y,t,x_1,x_2\n"
        "1,1.0,2\n"
    )
    with pytest.raises(DataFormatError, match="row 1"):
        read_dataset(path)

    for head, rows, error in (
        ("family=poisson d=2\ny,t,x_1,x_2", "1,1.0,2,0\n2,0.0,1,1\n", ParameterError),
        ("family=poisson d=2\ny,t,x_1,x_2", "1,1.0,2,0\n0,1.0,1,1\n", ParameterError),
        ("family=wishart d=2\ny,t,m_1,m_2,m_3", "1,3.0,1,0,1\n2,1.5,1,0,1\n", SupportError),
        ("family=wishart d=2\ny,t,m_1,m_2,m_3", "1,3.0,1,0,1\n2,3.0,1,2,1\n", SupportError),
    ):
        path.write_text(f"# levyaug-dataset v1 {head}\n{rows}")
        with pytest.raises(error, match="row 2"):
            read_dataset(path)


def test_reader_parses_each_value_as_float_does(tmp_path):
    path = tmp_path / "gauss.csv"
    spellings = ["0.1", "1e-3", " 2 ", "-0", "1_000", "+7", "1.", ".5", repr(0.1 + 0.2), "-1e-320"]
    pairs = list(zip(spellings, reversed(spellings)))
    rows = "\n\n".join(f"1,1.0,{a},{b}" for a, b in pairs)  # blank lines are skipped
    path.write_text(f"# levyaug-dataset v1 family=gaussian d=2\ny,t,x_1,x_2\n{rows}\n")
    want = np.array([[float(a), float(b)] for a, b in pairs])
    x = read_dataset(path)[1].x
    assert np.array_equal(x, want) and np.array_equal(np.signbit(x), np.signbit(want))


def test_reader_errors_name_a_late_row(tmp_path):
    path = tmp_path / "late.csv"
    head = "# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n"
    good = "1,1.0,2,0\n" * 499
    for bad, message in (("1,1.0,2", "expected 4 columns, got 3"), ("1,1.0,two,0", "non-numeric")):
        path.write_text(f"{head}{good}\n{bad}\n{good}")  # the blank line is not a row
        with pytest.raises(DataFormatError, match=f"^row 500: {message}"):
            read_dataset(path)


def test_reader_holds_one_row_of_parsed_values_at_a_time(tmp_path):
    # The file's lines, the float64 table and one row's strings; a list of
    # parsed Python floats would take 32 bytes per value on top.
    import tracemalloc

    from levyaug.dataio import _read_table

    n, d = 400, 100
    path = tmp_path / "pseudo.csv"
    x = np.random.default_rng(3).poisson(3.0, size=(n, d))
    pseudo = PseudoBatch(
        x_tilde=x, y=np.arange(n) % 2 + 1, origin_id=np.arange(n), alpha=0.5, t_tilde=1.0
    )
    write_pseudo_dataset(path, poisson_family(d), pseudo)
    tracemalloc.start()
    try:
        _, table = _read_table(path, "levyaug-pseudo", ["origin_id", "alpha", "y", "t_tilde"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(table[:, 4:], x) and table.shape == (n, d + 4)
    assert peak < 2 * path.stat().st_size + table.nbytes


def test_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("y,t,x_1\n1,1.0,2\n")
    with pytest.raises(DataFormatError):
        read_dataset(path)
    path.write_text("# levyaug-dataset v9 family=poisson d=1\ny,t,x_1\n")
    with pytest.raises(DataFormatError):
        read_dataset(path)
    path.write_text("# levyaug-dataset v1 family=poisson d=1\ny,t,x_9\n")
    with pytest.raises(DataFormatError):
        read_dataset(path)


def test_read_matrix(tmp_path):
    path = tmp_path / "sigma.csv"
    path.write_text("1.0,0.2\n0.2,2.0\n")
    m = read_matrix(path)
    assert np.allclose(m, np.array([[1.0, 0.2], [0.2, 2.0]]))
    path.write_text("1.0,zz\n")
    with pytest.raises(DataFormatError):
        read_matrix(path)
