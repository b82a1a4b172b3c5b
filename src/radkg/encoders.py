"""Image feature codes.

Images arrive as precomputed fixed-length feature vectors, either loaded from
a CSV produced by an external encoder or synthesized with planted structure
for end-to-end testing. The CSV reader takes a block of lines at a time and
writes its rows straight into one float64 grid, sized by the rows read and
never by the header, so a table costs 8 bytes per cell while it is read. A
block of plain decimal cells is converted in bulk, exactly, from integer
mantissas and powers of ten; any other block, and any cell that conversion
cannot vouch for, is parsed by Python's ``float``. A block holds about 8k
cells (``artifacts.BLOCK_CELLS``), some 160 kB of text, whose temporaries
malloc reuses; 64k-cell blocks made about 30 arrays of 0.5 MB or more each,
which glibc mapped fresh or trimmed back block after block.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .artifacts import blocks, check_cells, csv_cell, id_cells, open_commented, read_id_header
from .errors import ParseError
from .kg import AnnotationTable, LabelValue

#: Whether long doubles are x87 extended precision (a 64-bit significand),
#: where 10**27 and every 18-digit mantissa are exact. Without them every
#: block goes through the row loop, as the bulk path would gain nothing.
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
_POW10_LONG = np.multiply.accumulate(np.array([1] + [10] * 27, dtype=np.longdouble))
_COMMA, _DOT, _PLUS, _MINUS, _ZERO, _E = b",.+-0e"
#: Cells of the first feature grid (256 kB) when the first block is smaller:
#: a 10k x 128 table then grows through six doublings, not eight from 64 rows,
#: and a header-only file still allocates nothing.
_FIRST_GRID_CELLS = 1 << 15


@dataclass
class FeatureTable:
    """Per-image feature codes: an (m, D) grid of finite doubles."""

    image_ids: list[str]
    codes: np.ndarray

    def __post_init__(self):
        self.codes = np.asarray(self.codes, dtype=np.float64)
        if self.codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {self.codes.shape}")
        if self.codes.shape[0] != len(self.image_ids):
            raise ValueError(
                f"{len(self.image_ids)} ids for {self.codes.shape[0]} feature rows"
            )
        if len(set(self.image_ids)) != len(self.image_ids):
            raise ValueError("image ids must be unique")
        if self.codes.size and not np.all(np.isfinite(self.codes)):
            raise ValueError("feature codes must be finite")

    @property
    def m(self) -> int:
        return len(self.image_ids)

    @property
    def dim(self) -> int:
        return self.codes.shape[1]

    def select(self, ids) -> "FeatureTable":
        """The rows of ``ids``, in that order; every id must have a row."""
        index = {image_id: i for i, image_id in enumerate(self.image_ids)}
        missing = [i for i in ids if i not in index]
        if missing:
            raise ValueError(f"{len(missing)} image ids lack feature rows, e.g. {missing[:3]}")
        return FeatureTable(list(ids), self.codes[[index[i] for i in ids]])


def load_features(path) -> FeatureTable:
    """Parse a feature CSV with header ``id,f0,f1,...,f{D-1}``.

    Rejects ragged rows, non-numeric or non-finite cells, and duplicate ids,
    reporting the offending line. A header-only file is a valid empty table.

    Lines are read a block at a time into a float64 grid that first takes
    the larger of the first block's rows and ``_FIRST_GRID_CELLS`` cells of
    rows, doubles when full and is trimmed in place to exactly (m, D) at the
    end. Where long doubles are x87 extended precision,
    ``_bulk_block`` converts a block of plain decimals; any other block goes
    through the row loop, which alone raises ParseError. Either way a cell
    parses exactly as ``float`` parses it.
    """
    lines, header_line, header = read_id_header(path, "feature")
    dim = len(header) - 1
    if header[1:] != [f"f{k}" for k in range(dim)]:
        raise ParseError(path, header_line, f"feature columns must be f0..f{dim - 1}")

    ids: dict[str, None] = {}
    codes = np.empty((0, dim))
    for block in blocks(lines, dim):
        m, end = len(ids), len(ids) + len(block)
        if end > len(codes):
            grown = np.empty((max(end, 2 * len(codes), _FIRST_GRID_CELLS // max(dim, 1)), dim))
            grown[:m] = codes[:m]
            codes = grown
        if not (dim and _EXTENDED and _bulk_block(block, dim, ids, codes[m:end])):
            _parse_rows(path, block, dim, ids, codes[m:end])
    codes.resize((len(ids), dim), refcheck=False)  # no view of it is left
    return FeatureTable(list(ids), codes)


def _parse_rows(path, block, dim, ids, rows) -> None:
    """The row loop: split each line, check it, and write its cells into the
    matching row of ``rows`` with numpy, which converts each cell with
    ``float``. A row that fails the assignment or the finiteness check is
    scanned again, cell by cell, to name its first bad cell."""
    for (lineno, text), row in zip(block, rows):
        cells = id_cells(path, lineno, text, dim + 1, ids)
        try:
            row[:] = cells[1:]
        except ValueError:
            _bad_cell(path, lineno, cells)
            raise
        if not np.isfinite(row).all():
            _bad_cell(path, lineno, cells)


def _bulk_block(block, dim, ids, rows) -> bool:
    """Convert a block whose cells are all ``[+-]d[.d][(e|E)[+-]d]``, with a
    digit in the mantissa, into ``rows``, exactly as ``float`` would; False,
    with nothing written, when any line or cell needs the row loop.

    One int64 parse reads every mantissa (its dot dropped) and exponent. A
    mantissa of at most 18 digits times 10**-k, k <= 27, is then one x87
    long-double division of exact operands, as 10**27 is exact; the cast
    of the once-rounded quotient to float64 is correct unless it lies
    halfway between two doubles. Other cells go through ``float``.
    """
    if any('"' in text for _, text in block):
        return False
    heads, _, tails = zip(*[text.partition(",") for _, text in block])
    block_ids = dict.fromkeys(heads)
    joined = ",".join(["", *tails, ""])
    # ids.keys() first: isdisjoint then probes it with the block's ids, not the reverse.
    if not joined.isascii() or len(block_ids) != len(block) or not ids.keys().isdisjoint(block_ids):
        return False
    data = joined.encode("ascii")
    a = np.frombuffer(data, np.uint8)
    at = np.flatnonzero(a - _ZERO > 9)       # every byte that is not a digit
    kind = a[at]
    cut = np.flatnonzero(kind == _COMMA)
    cuts = at[cut]
    # Each line's last cell ends at the comma that joins it to the next line,
    # so every line has dim cells exactly when those commas fall every dim.
    if len(cut) != len(block) * dim + 1 or not np.array_equal(
            cuts[dim::dim], np.cumsum([len(tail) + 1 for tail in tails])):
        return False
    # The non-digits of a cell, in order: an optional sign first, an optional
    # dot, an optional exponent mark with an optional sign right after it,
    # then the closing comma. Anything else leaves a non-digit unaccounted.
    opening, closing = cut[:-1], cut[1:]
    start, end = cuts[:-1] + 1, cuts[1:]
    signed = _is_sign(kind[opening + 1]) & (at[opening + 1] == start)
    dot = opening + 1 + signed
    dotted = kind[dot] == _DOT
    mark = dot + dotted
    mantissa_end = at[mark]
    scaled = kind[mark] | 32 == _E           # e or E
    after = mark + scaled
    exp_signed = scaled & _is_sign(kind[after]) & (at[after] == mantissa_end + 1)
    digits = mantissa_end - start - signed - dotted
    exp_digits = end - mantissa_end - scaled - exp_signed
    if not (np.array_equal(after + exp_signed, closing) and np.all(digits >= 1)
            and np.all(exp_digits >= scaled)):
        return False

    tokens = data.replace(b".", b"").replace(b"e", b",").replace(b"E", b",")
    values = np.fromstring(tokens[1:-1], dtype=np.int64, sep=",")
    exp_cell = np.flatnonzero(scaled)
    if len(values) != len(start) + len(exp_cell):
        return False
    exp_token = exp_cell + np.arange(1, len(exp_cell) + 1)
    mantissa = np.abs(np.delete(values, exp_token))
    e10 = at[dot] + dotted - mantissa_end
    e10[exp_cell] += values[exp_token]
    scale = np.clip(-e10, 0, 27)
    q = mantissa.astype(np.longdouble) / _POW10_LONG[scale]
    # The 11 low bits that the cast rounds away; 0x400 is a tie.
    exact = q.view(np.uint16)[::q.itemsize // 2] & 0x7FF != 0x400
    # Digits are counted, as int64 parsing saturates silently past 18 of
    # them; a leading zero adds no magnitude, so it does not count.
    exact &= (digits - (a[start + signed] == _ZERO) <= 18) & (exp_digits <= 18) & (scale == -e10)
    out = q.astype(np.float64)
    out = np.where(a[start] == _MINUS, -out, out)
    rest = np.flatnonzero(~exact)
    if len(rest):
        out[rest] = [float(data[s:e]) for s, e in zip(start[rest].tolist(), end[rest].tolist())]
        if not np.isfinite(out[rest]).all():
            return False
    rows[:] = out.reshape(len(block), dim)
    ids.update(block_ids)
    return True


def _is_sign(byte):
    return (byte == _PLUS) | (byte == _MINUS)


def _bad_cell(path, lineno, cells) -> None:
    """Raise ParseError naming the first non-numeric or non-finite cell of a
    row, scanning its cells in column order."""
    for col, token in enumerate(cells[1:]):
        try:
            value = float(token)
        except ValueError:
            raise ParseError(path, lineno, f"non-numeric cell {token!r} in column {col + 2}") from None
        if not math.isfinite(value):
            raise ParseError(path, lineno, f"non-finite cell {token!r} in column {col + 2}")


def write_features(table: FeatureTable, path, comments=()) -> None:
    """Write a feature CSV that ``load_features`` reads back bit-exactly.

    Cells are written with ``repr``, which round-trips doubles through text,
    and ids are quoted where the reader needs it (``artifacts.csv_cell``).
    An id with a line break raises ValueError before ``path`` is opened.
    """
    check_cells(table.image_ids, "image id")
    with open_commented(path, comments) as fh:
        fh.write(",".join(["id"] + [f"f{k}" for k in range(table.dim)]) + "\n")
        for image_id, row in zip(table.image_ids, table.codes):
            fh.write(",".join([csv_cell(image_id, first=True), *map(repr, row.tolist())]) + "\n")


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the planted-structure dataset generator."""

    m: int = 500
    n: int = 14
    dim: int = 64
    prototype_scale: float = 1.0
    noise_scale: float = 0.1
    label_sparsity: float = 0.25
    uncertain_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.dim < 1:
            raise ValueError("m, n, and dim must be positive")
        for name in ("prototype_scale", "noise_scale"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {getattr(self, name)}")
        if not 0.0 < self.label_sparsity < 1.0:
            raise ValueError(f"label sparsity must be in (0,1), got {self.label_sparsity}")
        if not 0.0 <= self.uncertain_fraction < 1.0:
            raise ValueError(f"uncertain fraction must be in [0,1), got {self.uncertain_fraction}")


def synth_dataset(spec: SyntheticSpec) -> tuple[FeatureTable, AnnotationTable]:
    """Generate a dataset where features betray the labels by construction.

    Each finding gets a Gaussian prototype vector; each image's feature code
    is the sum of the prototypes of its positive findings plus isotropic
    noise. Every image has at least one positive. After features are formed,
    a random slice of the positive cells is downgraded to Uncertain, so the
    features always reflect the true (pre-downgrade) findings.

    Raises MemoryError, before any grid is allocated, when the grids held
    while the codes are formed (prototypes; noise, the product and the codes
    at (m, dim); the positives as bool and float64) exceed physical memory,
    which an overcommitting kernel would otherwise grant and fail later.
    """
    need = 8 * spec.n * spec.dim + spec.m * (24 * spec.dim + 9 * spec.n)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if hasattr(os, "sysconf") else need
    if need > memory:
        raise MemoryError(f"synth needs {need} bytes for its grids, more than the {memory} "
                          "bytes of physical memory")
    rng = np.random.default_rng(spec.seed)
    prototypes = rng.normal(0.0, spec.prototype_scale, size=(spec.n, spec.dim))
    positive = rng.random((spec.m, spec.n)) < spec.label_sparsity
    forced = rng.integers(0, spec.n, size=spec.m)
    for i in range(spec.m):
        if not positive[i].any():
            positive[i, forced[i]] = True
    noise = rng.normal(0.0, spec.noise_scale, size=(spec.m, spec.dim))
    codes = positive.astype(np.float64) @ prototypes + noise

    labels = np.where(positive, int(LabelValue.POSITIVE), int(LabelValue.NEGATIVE)).astype(np.int8)
    if spec.uncertain_fraction > 0.0:
        cells = np.argwhere(positive)
        downgrade = rng.random(len(cells)) < spec.uncertain_fraction
        for (i, j), down in zip(cells, downgrade):
            if down:
                labels[i, j] = int(LabelValue.UNCERTAIN)

    ids = [f"img{i:05d}" for i in range(spec.m)]
    names = [f"finding_{j:02d}" for j in range(spec.n)]
    return (
        FeatureTable(ids, codes),
        AnnotationTable(ids, names, labels),
    )
