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

A read holds one float64 table while it parses: a counting pass sizes it
and a second pass fills it one line at a time (a pipe, which cannot be
read twice, is first read into memory).  Every array a read returns is a
copy, so the table is freed on return, and Poisson counts are checked and
compacted straight from the table's feature block, with no float copy of
it.  On a 3,200 x 500 Poisson pseudo file (6.4 MB) the read peaks at
14.7 MB under tracemalloc: the 12.9 MB table, the 1.6 MB of ``uint8``
counts and one block of the integer check.  The writers format 65,536
feature values at a time.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import DataFormatError, LevyAugError, ParameterError
from .families import (
    ExampleBatch,
    Examples,
    FamilyKind,
    LevyFamily,
    PseudoBatch,
    _check_rows,
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
    m = np.zeros(values.shape[:-1] + (d, d))
    rows, cols = np.triu_indices(d)
    m[..., rows, cols] = values
    m[..., cols, rows] = values
    return m


def _feature_width(family: LevyFamily) -> int:
    if family.kind is FamilyKind.WISHART:
        return family.d * (family.d + 1) // 2
    return family.d


def _feature_names(family: LevyFamily) -> list[str]:
    prefix = "m" if family.kind is FamilyKind.WISHART else "x"
    return [f"{prefix}_{j + 1}" for j in range(_feature_width(family))]


_WRITE_VALUES = 1 << 16  # feature values formatted at a time


def _write_rows(out, family: LevyFamily, columns, x) -> None:
    """Write one line per example: its entries of ``columns``, then its
    stored feature block.  Rows are formatted a block at a time, since each
    value is a Python float and then text until its block is written.
    Every value is written with repr (an int's repr is its digits)."""
    step = max(1, _WRITE_VALUES // _feature_width(family))
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
        # Dataset files do not carry the covariance; identity is assumed
        # unless the caller supplies one (e.g. the CLI's --sigma).
        return gaussian_family(d)
    return LevyFamily(kind, d)


def _read_table(path, magic: str, columns: list[str]) -> tuple[LevyFamily, np.ndarray]:
    """The family and the numeric data rows of a ``magic`` file whose rows
    hold ``columns`` and then the feature block; format errors name the
    1-based data row.  Blank lines are skipped.  A counting pass sizes the
    float64 table, and a second pass fills it row by row: numpy parses each
    string as float() does, and only one line and one row's values are
    alive besides the table."""
    with open(path, "r", encoding="utf-8") as handle:
        if not handle.seekable():  # a pipe is read once, so its text is kept
            handle = io.StringIO(handle.read())
        rows = sum(1 for line in handle if line.strip()) - 2
        handle.seek(0)
        lines = (line.rstrip("\n") for line in handle if line.strip())
        first = next(lines, None)
        if first is None:
            raise DataFormatError("empty file")
        family = _parse_magic(first, magic)
        header = columns + _feature_names(family)
        if next(lines, "").split(",") != header:
            raise DataFormatError(f"expected header row {','.join(header)!r}")
        table = np.empty((rows, len(header)))
        row = 0
        for row, line in enumerate(lines, start=1):
            parts = line.split(",")
            if len(parts) != len(header):
                raise DataFormatError(f"expected {len(header)} columns, got {len(parts)}", row=row)
            try:
                table[row - 1] = parts
            except ValueError:
                raise DataFormatError("non-numeric value", row=row) from None
            except IndexError:
                break
    if row != rows:
        raise DataFormatError("the file changed while it was read")
    return family, table


def _features(family: LevyFamily, block: np.ndarray) -> np.ndarray:
    """Feature arrays from a table's stored columns, none of them a view
    of the table: Wishart rows are unpacked, other vectors copied, except
    Poisson counts, which the support check compacts straight from the
    block (:func:`~levyaug.families._check_rows`)."""
    if family.kind is FamilyKind.WISHART:
        return unpack_symmetric(block, family.d)
    return block if family.kind is FamilyKind.POISSON else block.copy()


def _integers(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values) & (values == np.floor(values))):
        raise DataFormatError(f"{what} must be integers")
    return values


def _checked_batch(build, table: np.ndarray):
    """``build(table)``; if its checks fail, the error of the first row
    that fails on its own, prefixed with the 1-based row number."""
    try:
        return build(table)
    except LevyAugError:
        for row in range(len(table)):
            try:
                build(table[row : row + 1])
            except LevyAugError as exc:
                raise type(exc)(f"row {row + 1}: {exc}") from None
        raise


def write_dataset(path, family: LevyFamily, examples: Examples) -> None:
    batch = as_example_batch(examples)
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# {_DATASET_MAGIC} {_VERSION} family={family.kind.value} d={family.d}\n")
        out.write("y,t," + ",".join(_feature_names(family)) + "\n")
        _write_rows(out, family, (batch.y, batch.t), batch.x)


def _example_batch(family: LevyFamily, table: np.ndarray) -> ExampleBatch:
    y = _integers(table[:, 0], "class labels")
    batch = ExampleBatch(x=_features(family, table[:, 2:]), y=y, t=table[:, 1].copy())
    return ExampleBatch(x=check_example(family, batch), y=batch.y, t=batch.t)


def read_dataset(path, sigma=None) -> tuple[LevyFamily, ExampleBatch]:
    """Parse and validate a dataset file.

    Structural problems raise :class:`DataFormatError`; value-domain
    problems (family support, nonpositive t, bad labels) raise the
    corresponding domain error.  Both name the offending row.  ``sigma``
    overrides the identity covariance assumed for Gaussian files.  The
    features come back as :func:`~levyaug.families.check_example` returns
    them (Poisson counts in the smallest integer type that holds them).
    """
    family, table = _read_table(path, _DATASET_MAGIC, ["y", "t"])
    if sigma is not None:
        if family.kind is not FamilyKind.GAUSSIAN:
            raise ParameterError("a covariance override only applies to Gaussian data")
        family = gaussian_family(family.d, sigma)
    return family, _checked_batch(lambda rows: _example_batch(family, rows), table)


def write_pseudo_dataset(path, family: LevyFamily, pseudo: PseudoBatch) -> None:
    columns = (pseudo.origin_id, pseudo.alpha, pseudo.y, pseudo.t_tilde)
    with open(path, "w", encoding="utf-8") as out:
        out.write(f"# {_PSEUDO_MAGIC} {_VERSION} family={family.kind.value} d={family.d}\n")
        out.write("origin_id,alpha,y,t_tilde," + ",".join(_feature_names(family)) + "\n")
        _write_rows(out, family, columns, pseudo.x_tilde)


def _pseudo_batch(family: LevyFamily, table: np.ndarray) -> PseudoBatch:
    origin_id, y = _integers(table[:, [0, 2]], "origin_id and y").T
    x = _check_rows(family, _features(family, table[:, 4:]))
    return PseudoBatch(
        x_tilde=x, y=y, origin_id=origin_id, alpha=table[:, 1].copy(), t_tilde=table[:, 3].copy()
    )


def read_pseudo_dataset(path) -> tuple[LevyFamily, PseudoBatch]:
    """Parse a pseudo-example file and check its feature rows against the
    declared family's support (:class:`SupportError`, Poisson counts come
    back in the smallest integer type that holds them, see
    :func:`~levyaug.families.check_example`); errors name the offending
    row."""
    family, table = _read_table(path, _PSEUDO_MAGIC, ["origin_id", "alpha", "y", "t_tilde"])
    return family, _checked_batch(lambda rows: _pseudo_batch(family, rows), table)


def read_matrix(path) -> np.ndarray:
    """A bare comma-delimited matrix (used for covariance inputs)."""
    try:
        m = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise DataFormatError(f"could not parse matrix file: {exc}") from None
    return m
