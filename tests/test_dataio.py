import os
import threading
import tracemalloc

import numpy as np
import pytest

from levyaug import (
    DataFormatError,
    Example,
    ExampleBatch,
    ParameterError,
    PseudoBatch,
    SupportError,
    gamma_family,
    gaussian_family,
    poisson_family,
    wishart_family,
)
from levyaug import dataio
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


def test_pseudo_reader_errors_name_a_late_row(tmp_path):
    path = tmp_path / "late.csv"
    head = "# levyaug-pseudo v1 family=poisson d=3\norigin_id,alpha,y,t_tilde,x_1,x_2,x_3\n"
    good = "0,0.5,1,1.0,2,0,1\n" * 499
    for bad, message in (
        ("0,0.5,1,1.0,2,0", "expected 7 columns, got 6"),
        ("0,0.5,1,1.0,2,x,1", "non-numeric"),
    ):
        path.write_text(f"{head}{good}\n\n{bad}\n{good}")
        with pytest.raises(DataFormatError, match=f"^row 500: {message}"):
            read_pseudo_dataset(path)


def _layouts(magic, header, rows):
    """One file's text in each layout a reader accepts: blank lines
    anywhere are skipped and the last line needs no newline."""
    head = f"# {magic} v1 family=poisson d=2\n{header}\n"
    return {
        "plain": head + "".join(f"{row}\n" for row in rows),
        "no final newline": head + "\n".join(rows),
        "blank lines": "\n \n" + head.replace("\n", "\n\n\t\n", 1)
        + "".join(f"{row}\n\n" for row in rows) + "  \n\n",
        "crlf": (head + "".join(f"{row}\n" for row in rows)).replace("\n", "\r\n"),
    }


@pytest.mark.parametrize("layout", ["plain", "no final newline", "blank lines", "crlf"])
def test_readers_accept_each_layout(tmp_path, layout):
    path = tmp_path / "data.csv"
    text = _layouts("levyaug-dataset", "y,t,x_1,x_2", ["1,1.0,2,0", "2,3.5,0,7"])[layout]
    path.write_bytes(text.encode())
    _, batch = read_dataset(path)
    assert batch.x.dtype == np.uint8 and np.array_equal(batch.x, [[2, 0], [0, 7]])
    assert np.array_equal(batch.y, [1, 2]) and np.array_equal(batch.t, [1.0, 3.5])
    rows = ["0,0.5,1,0.5,2,0", "1,0.5,2,1.75,0,7"]
    text = _layouts("levyaug-pseudo", "origin_id,alpha,y,t_tilde,x_1,x_2", rows)[layout]
    path.write_bytes(text.encode())
    _, pseudo = read_pseudo_dataset(path)
    assert pseudo.x_tilde.dtype == np.uint8 and np.array_equal(pseudo.x_tilde, [[2, 0], [0, 7]])
    assert np.array_equal(pseudo.origin_id, [0, 1]) and np.array_equal(pseudo.y, [1, 2])
    assert np.array_equal(pseudo.alpha, [0.5, 0.5]) and np.array_equal(pseudo.t_tilde, [0.5, 1.75])


def test_readers_accept_a_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n")
    _, batch = read_dataset(path)
    assert batch.x.shape == (0, 2) and batch.x.dtype == np.uint8 and len(batch.t) == 0
    path.write_text("# levyaug-pseudo v1 family=gamma d=2\norigin_id,alpha,y,t_tilde,x_1,x_2")
    _, pseudo = read_pseudo_dataset(path)
    assert pseudo.x_tilde.shape == (0, 2) and pseudo.x_tilde.dtype == np.float64
    assert len(pseudo.origin_id) == len(pseudo.t_tilde) == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_readers_read_a_pipe(tmp_path):
    pipe = tmp_path / "pipe.csv"
    os.mkfifo(pipe)
    text = "# levyaug-dataset v1 family=gaussian d=1\ny,t,x_1\n1,1.0,0.25\n2,2.0,-0.5\n"
    writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        _, batch = read_dataset(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(batch.x, [[0.25], [-0.5]]) and np.array_equal(batch.y, [1, 2])


def _family_features(name, rng, n):
    """A family, n rows of its features, and the type a read returns them in."""
    if name == "poisson":
        return poisson_family(3), rng.poisson(3.0, size=(n, 3)), np.uint8
    if name == "gaussian":
        return gaussian_family(2), rng.normal(size=(n, 2)), np.float64
    if name == "gamma":
        return gamma_family(2), rng.gamma(2.0, size=(n, 2)), np.float64
    m = np.stack([random_pd_matrix(2, rng) for _ in range(n)])
    return wishart_family(2), m + np.swapaxes(m, 1, 2), np.float64


@pytest.mark.parametrize("name", ["poisson", "gaussian", "gamma", "wishart"])
def test_reads_return_every_array_in_its_value_and_type(tmp_path, rng, name):
    family, x, x_type = _family_features(name, rng, 5)
    y, t = np.array([1, 2, 1, 2, 1]), np.array([5.0, 6.5, 7.0, 8.0, 9.0])
    write_dataset(tmp_path / "data.csv", family, ExampleBatch(x=x, y=y, t=t))
    _, batch = read_dataset(tmp_path / "data.csv")
    origin_id, alpha = np.array([0, 0, 1, 1, 2]), np.full(5, 0.5)
    pseudo = PseudoBatch(x_tilde=x, y=y, origin_id=origin_id, alpha=alpha, t_tilde=t / 2)
    write_pseudo_dataset(tmp_path / "pseudo.csv", family, pseudo)
    _, read = read_pseudo_dataset(tmp_path / "pseudo.csv")
    for got, want, dtype in (
        (batch.x, x, x_type), (batch.y, y, np.int64), (batch.t, t, np.float64),
        (read.x_tilde, x, x_type), (read.y, y, np.int64), (read.origin_id, origin_id, np.int64),
        (read.alpha, alpha, np.float64), (read.t_tilde, t / 2, np.float64),
    ):
        assert got.dtype == dtype and np.array_equal(got, want)


def _poisson_pseudo_file(path, n, d):
    """Write n thinned Poisson rows of d counts; return their features."""
    x = np.random.default_rng(3).poisson(3.0, size=(n, d))
    pseudo = PseudoBatch(
        x_tilde=x, y=np.arange(n) % 2 + 1, origin_id=np.arange(n), alpha=0.5, t_tilde=1.0
    )
    write_pseudo_dataset(path, poisson_family(d), pseudo)
    return x


def _columns(batch):
    return [getattr(batch, name) for name in batch.__dataclass_fields__]


def test_reader_holds_one_block_of_parsed_values_at_a_time(tmp_path):
    # Besides the returned arrays: the float64 buffer of one block, the
    # integer check's floor of one block, and one line and one row's
    # strings; neither a table of the whole file, nor its lines, nor a
    # list of parsed Python floats (32 bytes per value).
    path = tmp_path / "pseudo.csv"
    x = _poisson_pseudo_file(path, 400, 100)
    tracemalloc.start()
    try:
        _, batch = read_pseudo_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(batch.x_tilde, x)
    block = dataio._BLOCK * 8
    assert peak < sum(col.nbytes for col in _columns(batch)) + 2 * block + 64 * 1024


def test_poisson_read_holds_no_whole_file_table(tmp_path):
    # The counts are stored compact, block by block, and nothing else the
    # size of the file is alive at any time.
    n, d = 800, 500
    path = tmp_path / "pseudo.csv"
    x = _poisson_pseudo_file(path, n, d)
    tracemalloc.start()
    try:
        _, batch = read_pseudo_dataset(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.x_tilde.dtype == np.uint8 and np.array_equal(batch.x_tilde, x)
    assert peak < batch.x_tilde.nbytes + 2**20
    assert held < sum(col.nbytes for col in _columns(batch)) + 2**19


@pytest.mark.parametrize("name", ["poisson", "gaussian", "gamma", "wishart"])
@pytest.mark.parametrize("source", ["file", "pipe"])
def test_reads_in_blocks_equal_reads_in_one_block(tmp_path, monkeypatch, rng, name, source):
    family, x, _ = _family_features(name, rng, 10)
    y, t = np.arange(10) % 3 + 1, np.arange(10.0) + 4.0
    pseudo = PseudoBatch(x_tilde=x, y=y, origin_id=np.arange(10) // 2, alpha=0.5, t_tilde=t / 2)
    texts = {}
    for kind, write, batch in (
        ("data", write_dataset, ExampleBatch(x=x, y=y, t=t)),
        ("pseudo", write_pseudo_dataset, pseudo),
    ):
        write(tmp_path / kind, family, batch)
        lines = (tmp_path / kind).read_text().splitlines(keepends=True)
        head, rows = lines[:2], lines[2:]
        texts[kind] = "".join(head + [r + ("\n" if i % 2 else "") for i, r in enumerate(rows)])
    whole = {kind: _read_text(tmp_path, kind, text, "file") for kind, text in texts.items()}
    width = len(texts["pseudo"].splitlines()[1].split(","))
    monkeypatch.setattr(dataio, "_BLOCK", 3 * width)  # three rows of pseudo-examples
    for kind, text in texts.items():
        family_read, batch = _read_text(tmp_path, kind, text, source)
        assert family_read == family == whole[kind][0]
        for got, want in zip(_columns(batch), _columns(whole[kind][1])):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def _read_text(tmp_path, kind, text, source):
    """Read ``text`` (str, or bytes written as they are) as a dataset or a
    pseudo-example file, from a file or through a named pipe."""
    read = read_dataset if kind == "data" else read_pseudo_dataset
    path = tmp_path / f"{kind}-{source}.csv"
    payload = text.encode() if isinstance(text, str) else text
    if source == "file":
        path.write_bytes(payload)
        return read(path)
    if not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(payload,), daemon=True)
    writer.start()
    try:
        return read(path)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@pytest.mark.parametrize("layout", ["plain", "no final newline", "blank lines", "crlf"])
def test_a_pipe_reads_each_layout_as_a_file_does(tmp_path, layout):
    text = _layouts("levyaug-dataset", "y,t,x_1,x_2", ["1,1.0,2,0", "2,3.5,0,7"])[layout]
    _, batch = _read_text(tmp_path, "data", text, "pipe")
    _, want = _read_text(tmp_path, "data", text, "file")
    for got, expected in zip(_columns(batch), _columns(want)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("kind", ["data", "pseudo"])
def test_text_that_is_not_utf8_is_a_format_error(tmp_path, kind, source):
    magic, header = {
        "data": ("levyaug-dataset", "y,t,x_1,x_2"),
        "pseudo": ("levyaug-pseudo", "origin_id,alpha,y,t_tilde,x_1,x_2"),
    }[kind]
    row = "1,1.0,2,0" if kind == "data" else "0,0.5,1,1.0,2,0"
    text = _layouts(magic, header, [row, row])["plain"].encode()
    bad = text.replace(b"2,0\n", b"2,\xff0\n", 1)  # one byte that is not UTF-8
    with pytest.raises(DataFormatError, match="^file is not UTF-8 text$"):
        _read_text(tmp_path, kind, bad, source)


def test_a_nan_count_is_a_support_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n"
                    "1,1.0,2,0\n1,1.0,nan,0\n")
    with pytest.raises(SupportError, match="^row 2: features must be finite"):
        read_dataset(path)


def test_a_later_block_widens_the_counts(tmp_path, monkeypatch):
    path = tmp_path / "data.csv"
    x = np.ones((9, 2), dtype=int)
    x[7, 1] = 300
    write_dataset(path, poisson_family(2), ExampleBatch(x=x, y=1, t=1.0))
    monkeypatch.setattr(dataio, "_BLOCK", 3 * 4)  # three rows a block
    _, batch = read_dataset(path)
    assert batch.x.dtype == np.uint16 and np.array_equal(batch.x, x)


def test_errors_in_a_later_block_name_their_row(tmp_path, monkeypatch):
    path = tmp_path / "late.csv"
    data = "# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n"
    wishart = "# levyaug-dataset v1 family=wishart d=2\ny,t,m_1,m_2,m_3\n"
    pseudo = "# levyaug-pseudo v1 family=poisson d=2\norigin_id,alpha,y,t_tilde,x_1,x_2\n"
    for head, good, bad, error, message in (
        (data, "1,1.0,2,0", "1,1.0,x,0", DataFormatError, "non-numeric value"),
        (data, "1,1.0,2,0", "1,1.0,2", DataFormatError, "expected 4 columns, got 3"),
        (data, "1,1.0,2,0", "1,1.0,-2,0", SupportError, "Poisson features must be nonnegative"),
        (data, "1,1.0,2,0", "0,1.0,2,0", ParameterError, "class labels are 1-based"),
        (wishart, "1,3.0,1,0,1", "1,3.0,1,2,1", SupportError, "Wishart feature matrix must be"),
        (pseudo, "0,0.5,1,1.0,2,0", "-1,0.5,1,1.0,2,0", ParameterError, "origin ids must be"),
    ):
        monkeypatch.setattr(dataio, "_BLOCK", 3 * len(good.split(",")))  # three rows a block
        rows = [good] * 7 + [bad] + [good] * 4  # row 8: the second row of the third block
        path.write_text(head + "\n".join(rows) + "\n")
        read = read_pseudo_dataset if head is pseudo else read_dataset
        with pytest.raises(error, match=f"^row 8: {message}"):
            read(path)


def test_errors_keep_the_order_of_a_whole_file_check(tmp_path, monkeypatch):
    # A malformed row in a later block is reported before an earlier row's
    # failed check.
    monkeypatch.setattr(dataio, "_BLOCK", 3 * 4)  # three rows a block
    path = tmp_path / "data.csv"
    rows = ["1,1.0,-2,0"] + ["1,1.0,2,0"] * 6 + ["1,1.0,x,0"]
    path.write_text("# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n" + "\n".join(rows))
    with pytest.raises(DataFormatError, match="^row 8: non-numeric value"):
        read_dataset(path)
    path.write_text("# levyaug-dataset v1 family=poisson d=2\ny,t,x_1,x_2\n" + "\n".join(rows[:7]))
    with pytest.raises(SupportError, match="^row 1: "):
        read_dataset(path)


def test_writers_format_rows_a_block_at_a_time(tmp_path, monkeypatch, rng):
    family, x, _ = _family_features("wishart", rng, 5)
    examples = ExampleBatch(x=x, y=[1, 2, 1, 2, 1], t=np.arange(5.0) + 3.0)
    pseudo = PseudoBatch(x_tilde=x, y=1, origin_id=np.arange(5), alpha=0.25, t_tilde=1.5)
    whole = tmp_path / "whole.csv", tmp_path / "whole-pseudo.csv"
    write_dataset(whole[0], family, examples)
    write_pseudo_dataset(whole[1], family, pseudo)
    monkeypatch.setattr(dataio, "_BLOCK", 6)  # two rows of d=2 matrices
    blocks = tmp_path / "blocks.csv", tmp_path / "blocks-pseudo.csv"
    write_dataset(blocks[0], family, examples)
    write_pseudo_dataset(blocks[1], family, pseudo)
    for a, b in zip(whole, blocks):
        assert a.read_bytes() == b.read_bytes() and len(a.read_text().splitlines()) == 7


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
