"""Delimited text formats for datasets, pseudo-example files and matrices.

A dataset file is a comment line declaring the format version, family and
dimension, a header row, then one example per row:

    # levyaug-dataset v1 family=poisson d=3
    y,t,x_1,x_2,x_3
    1,6.0,2,0,1

Vector families store the coordinates directly; Wishart rows store the
upper triangle of the symmetric matrix row-major (d(d+1)/2 columns named
m_1..).  Pseudo-example files carry the same feature block plus origin and
thinning metadata:

    # levyaug-pseudo v1 family=poisson d=3
    origin_id,alpha,y,t_tilde,x_1,x_2,x_3

Floats are written with repr so rewriting a file is byte-stable.  Errors
name the offending 1-based data row.

A read fills the arrays it returns a block of rows at a time.  A counting
pass sizes them, and a second pass parses up to 8,192 values (``_BLOCK``)
into one reusable float64 buffer, checks that block and writes it into its
rows of the returned arrays (a pipe, which cannot be read twice, has its
bytes read into memory first).  Wishart rows are unpacked in place, and
Poisson counts are stored in their compact type, widened when a later
block holds a larger count.  On a 3,200 x 500 Poisson pseudo file
(6.4 MB) the read peaks at 1.9 MB under tracemalloc: the 1.7 MB of
returned arrays (1.6 MB of ``uint8`` counts), the 64 KB buffer, one block
of the integer check and one line of text.  The writers format 8,192
feature values at a time.
"""

from __future__ import annotations

import io
from dataclasses import fields
from functools import partial

import numpy as np

from .errors import DataFormatError, LevyAugError
from .families import (
    _BLOCK,
    ExampleBatch,
    Examples,
    FamilyKind,
    LevyFamily,
    PseudoBatch,
    _check_rows,
    _column_dtype,
    as_example_batch,
    check_example,
    gaussian_family,
)

__all__ = [
    "read_dataset",
    "write_dataset",
    "read_pseudo_dataset",
    "write_pseudo_dataset",
    "pack_symmetric",
    "unpack_symmetric",
    "read_matrix",
]

_DATASET_MAGIC = "levyaug-dataset"
_PSEUDO_MAGIC = "levyaug-pseudo"
_VERSION = "v1"


def pack_symmetric(m: np.ndarray) -> np.ndarray:
    """Upper triangle, row-major (of one matrix, or of each in a stack)."""
    m = np.asarray(m, dtype=float)
    rows, cols = np.triu_indices(m.shape[-1])
    return m[..., rows, cols]


def unpack_symmetric(values: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`pack_symmetric` (one packed row, or a stack)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != d * (d + 1) // 2:
        raise DataFormatError(
            f"expected {d * (d + 1) // 2} packed entries for d={d}, got shape {values.shape}"
        )
    return _unpack_into(values, np.empty(values.shape[:-1] + (d, d)))


def _unpack_into(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out``, a stack of d x d matrices, the symmetric matrices
    whose packed upper triangles are ``values``; every entry is written."""
    rows, cols = np.triu_indices(out.shape[-1])
    out[..., rows, cols] = values
    out[..., cols, rows] = values
    return out


def _feature_width(family: LevyFamily) -> int:
    if family.kind is FamilyKind.WISHART:
        return family.d * (family.d + 1) // 2
    return family.d


def _feature_names(family: LevyFamily) -> list[str]:
    prefix = "m" if family.kind is FamilyKind.WISHART else "x"
    return [f"{prefix}_{j + 1}" for j in range(_feature_width(family))]


def _write_rows(out, family: LevyFamily, columns, x) -> None:
    """Write one line per example: its entries of ``columns``, then its
    stored feature block.  Rows are formatted a block at a time, since each
    value is a Python float and then text until its block is written.
    Every value is written with repr (an int's repr is its digits)."""
    step = max(1, _BLOCK // _feature_width(family))
    for start in range(0, len(x), step):
        block = slice(start, start + step)
        values = x[block]
        if family.kind is FamilyKind.WISHART:
            values = pack_symmetric(values)
        rows = zip(*(col[block].tolist() for col in columns), np.asarray(values, float).tolist())
        out.writelines(",".join(map(repr, (*head, *row))) + "\n" for *head, row in rows)


def _parse_magic(line: str, magic: str) -> LevyFamily:
    tokens = line.strip().split()
    if (
        len(tokens) < 5
        or tokens[0] != "#"
        or tokens[1] != magic
        or tokens[2] != _VERSION
    ):
        raise DataFormatError(f"missing or unsupported '{magic} {_VERSION}' header line")
    fields = dict(tok.split("=", 1) for tok in tokens[3:] if "=" in tok)
    try:
        kind = FamilyKind(fields["family"])
        d = int(fields["d"])
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"malformed header metadata: {exc}") from None
    if kind is FamilyKind.GAUSSIAN:
        # Dataset files do not carry the covariance; identity is assumed.
        return gaussian_family(d)
    return LevyFamily(kind, d)


def _feature_array(family: LevyFamily, rows: int) -> np.ndarray:
    """Uninitialized features for ``rows`` examples, in the type a read
    returns them: float64, except Poisson counts, which start in the
    narrowest count type and are widened by a block that needs more."""
    if family.kind is FamilyKind.WISHART:
        return np.empty((rows, family.d, family.d))
    return np.empty((rows, family.d), np.uint8 if family.kind is FamilyKind.POISSON else float)


def _features(family: LevyFamily, block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The feature rows of a block's stored columns, written into ``out``
    (their rows of the returned features): Wishart rows unpacked, other
    vectors copied.  Poisson counts come back as the parsed block itself,
    which the support check compacts (:func:`~levyaug.families._check_rows`)."""
    if family.kind is FamilyKind.POISSON:
        return block
    if family.kind is FamilyKind.WISHART:
        return _unpack_into(block, out)
    out[...] = block
    return out


def _integers(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values) & (values == np.floor(values))):
        raise DataFormatError(f"{what} must be integers")
    return values


def _checked_batch(build, block: np.ndarray, x: np.ndarray, first: int):
    """``build(block, x)``, the checked batch of the parsed rows ``block``
    whose features go into ``x``; if its checks fail, the error of the first
    row that fails on its own, prefixed with its 1-based row number in the
    file (``first`` rows precede the block)."""
    try:
        return build(block, x)
    except LevyAugError:
        for row in range(len(block)):
            try:
                build(block[row : row + 1], x[row : row + 1])
            except LevyAugError as exc:
                raise type(exc)(f"row {first + row + 1}: {exc}") from None
        raise


def _store(columns: dict, checked, first: int) -> None:
    """Copy a checked block's columns into rows ``first:`` of ``columns``,
    the read's preallocated arrays.  Features written in place stay, and
    Poisson counts wider than the earlier blocks' widen their array."""
    for name, dest in columns.items():
        value = getattr(checked, name)
        if np.may_share_memory(value, dest):
            continue
        dtype = np.promote_types(dest.dtype, value.dtype)
        if dtype != dest.dtype:
            dest = columns[name] = dest.astype(dtype)
        dest[first : first + len(value)] = value


def _read_batch(path, magic: str, columns: list[str], build, batch_type):
    """The family and the checked ``batch_type`` of a ``magic`` file whose
    rows hold ``columns`` and then the feature block.  Blank lines are
    skipped.  A counting pass sizes the returned arrays, and a second pass
    parses the rows a block at a time into one float64 buffer of at most
    _BLOCK values (numpy parses each string as float() does).  Each block is
    checked by ``build(family, block, x)`` and stored in its rows of the
    returned arrays.  Errors keep the order of a whole-file check: text
    that is not UTF-8, then a malformed row anywhere, then the first row
    that fails its checks; each row error names the 1-based data row."""
    with open(path, "r", encoding="utf-8") as handle:
        if not handle.seekable():  # a pipe is read once, so its bytes are kept
            handle = io.TextIOWrapper(io.BytesIO(handle.buffer.read()), encoding="utf-8")
        try:  # the counting pass decodes every line before any is parsed
            rows = sum(1 for line in handle if line.strip()) - 2
        except UnicodeDecodeError:
            raise DataFormatError("file is not UTF-8 text") from None
        handle.seek(0)
        lines = (line.rstrip("\n") for line in handle if line.strip())
        first = next(lines, None)
        if first is None:
            raise DataFormatError("empty file")
        family = _parse_magic(first, magic)
        header = columns + _feature_names(family)
        if next(lines, "").split(",") != header:
            raise DataFormatError(f"expected header row {','.join(header)!r}")
        x_name, *names = (f.name for f in fields(batch_type))
        out = {x_name: _feature_array(family, rows)}
        out.update((name, np.empty(rows, _column_dtype(name))) for name in names)
        step = max(1, _BLOCK // len(header))
        # Column-major, so that a full block's feature columns are one
        # contiguous array and its checks need no buffered copy of them.
        block = np.empty((len(header), min(step, rows))).T
        build, error, row = partial(build, family), None, 0
        for row, line in enumerate(lines, start=1):
            if row > rows:
                break
            parts = line.split(",")
            if len(parts) != len(header):
                raise DataFormatError(f"expected {len(header)} columns, got {len(parts)}", row=row)
            try:
                block[(row - 1) % step] = parts
            except ValueError:
                raise DataFormatError("non-numeric value", row=row) from None
            if error is None and (row % step == 0 or row == rows):
                start = (row - 1) // step * step
                x = out[x_name][start:row]
                try:
                    checked = _checked_batch(build, block[: row - start], x, start)
                except LevyAugError as exc:
                    error = exc  # raised once every row has parsed
                else:
                    _store(out, checked, start)
    if row != rows:
        raise DataFormatError("the file changed while it was read")
    if error is not None:
        raise error
    return family, batch_type(**out)


def write_dataset(path, family: LevyFamily, examples: Examples) -> None:
    batch = as_example_batch(examples)
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# {_DATASET_MAGIC} {_VERSION} family={family.kind.value} d={family.d}\n")
        out.write("y,t," + ",".join(_feature_names(family)) + "\n")
        _write_rows(out, family, (batch.y, batch.t), batch.x)


def _example_batch(family: LevyFamily, block: np.ndarray, x: np.ndarray) -> ExampleBatch:
    y = _integers(block[:, 0], "class labels")
    batch = ExampleBatch(x=_features(family, block[:, 2:], x), y=y, t=block[:, 1])
    return ExampleBatch(x=check_example(family, batch), y=batch.y, t=batch.t)


def read_dataset(path) -> tuple[LevyFamily, ExampleBatch]:
    """Parse and validate a dataset file.

    Structural problems raise :class:`DataFormatError`; value-domain
    problems (family support, nonpositive t, bad labels) raise the
    corresponding domain error.  Both name the offending row.  A Gaussian
    file's family has the identity covariance.  The features come back as
    :func:`~levyaug.families.check_example` returns them (Poisson counts in
    the smallest integer type that holds them).
    """
    return _read_batch(path, _DATASET_MAGIC, ["y", "t"], _example_batch, ExampleBatch)


def write_pseudo_dataset(path, family: LevyFamily, pseudo: PseudoBatch) -> None:
    columns = (pseudo.origin_id, pseudo.alpha, pseudo.y, pseudo.t_tilde)
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# {_PSEUDO_MAGIC} {_VERSION} family={family.kind.value} d={family.d}\n")
        out.write("origin_id,alpha,y,t_tilde," + ",".join(_feature_names(family)) + "\n")
        _write_rows(out, family, columns, pseudo.x_tilde)


def _pseudo_batch(family: LevyFamily, block: np.ndarray, x: np.ndarray) -> PseudoBatch:
    origin_id, y = _integers(block[:, [0, 2]], "origin_id and y").T
    x = _check_rows(family, _features(family, block[:, 4:], x))
    return PseudoBatch(x_tilde=x, y=y, origin_id=origin_id, alpha=block[:, 1], t_tilde=block[:, 3])


def read_pseudo_dataset(path) -> tuple[LevyFamily, PseudoBatch]:
    """Parse a pseudo-example file and check its feature rows against the
    declared family's support (:class:`SupportError`, Poisson counts come
    back in the smallest integer type that holds them, see
    :func:`~levyaug.families.check_example`); errors name the offending
    row."""
    columns = ["origin_id", "alpha", "y", "t_tilde"]
    return _read_batch(path, _PSEUDO_MAGIC, columns, _pseudo_batch, PseudoBatch)


def read_matrix(path) -> np.ndarray:
    """A bare comma-delimited matrix (used for covariance inputs)."""
    try:
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"could not parse matrix file: {exc}") from None
    return m
