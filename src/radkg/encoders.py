"""Image feature codes.

Images arrive as precomputed fixed-length feature vectors, either loaded from
a CSV produced by an external encoder or synthesized with planted structure
for end-to-end testing. The CSV reader parses each row straight into one
float64 grid, so a table costs 8 bytes per cell while it is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError
from .kg import AnnotationTable, LabelValue, _atomic_open, _csv_cell, _data_lines, _split_csv_line

#: Rows of the grid ``load_features`` starts with; it doubles when full.
#: ``np.empty`` writes nothing, so the rows no line reaches stay untouched.
INITIAL_ROWS = 1024


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
            listing = "\n".join(f"  missing features for {i!r}" for i in missing)
            raise ValueError(f"{len(missing)} image ids lack feature rows:\n{listing}")
        return FeatureTable(list(ids), self.codes[[index[i] for i in ids]])


def load_features(path) -> FeatureTable:
    """Parse a feature CSV with header ``id,f0,f1,...,f{D-1}``.

    Rejects ragged rows, non-numeric or non-finite cells, and duplicate ids,
    reporting the offending line. A header-only file is a valid empty table.

    Each row's cells go straight into a preallocated float64 grid, which
    doubles when it fills: 8 bytes per cell plus growth slack. numpy converts
    each cell with Python's ``float``, so a cell parses exactly as ``float``
    parses it. A row that fails the assignment or the finiteness check is
    scanned again, cell by cell, to name its first bad cell.
    """
    lines = _data_lines(path)
    try:
        header_line, header_text = next(lines)
    except StopIteration:
        raise ParseError(path, 1, "empty feature file") from None
    header = _split_csv_line(header_text)
    if not header or header[0] != "id":
        raise ParseError(path, header_line, f"first header column must be 'id', got {header[:1]}")
    dim = len(header) - 1
    expected = [f"f{k}" for k in range(dim)]
    if header[1:] != expected:
        raise ParseError(path, header_line, f"feature columns must be f0..f{dim - 1}")

    ids: list[str] = []
    seen: set[str] = set()
    codes = np.empty((INITIAL_ROWS, dim))
    for lineno, text in lines:
        cells = _split_csv_line(text)
        if len(cells) != dim + 1:
            raise ParseError(path, lineno, f"expected {dim + 1} columns, got {len(cells)}")
        image_id = cells[0]
        if image_id in seen:
            raise ParseError(path, lineno, f"duplicate image id {image_id!r}")
        seen.add(image_id)
        m = len(ids)
        if m == len(codes):
            grown = np.empty((2 * m, dim))
            grown[:m] = codes
            codes = grown
        row = codes[m]
        try:
            row[:] = cells[1:]
        except ValueError:
            _bad_cell(path, lineno, cells)
            raise
        if not np.isfinite(row).all():
            _bad_cell(path, lineno, cells)
        ids.append(image_id)
    return FeatureTable(ids, codes[:len(ids)])


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
    and ids are quoted where the reader needs it (``kg._csv_cell``).
    """
    with _atomic_open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        header = ",".join(["id"] + [f"f{k}" for k in range(table.dim)])
        fh.write(header + "\n")
        for i, image_id in enumerate(table.image_ids):
            cells = ",".join(repr(float(v)) for v in table.codes[i])
            image_id = _csv_cell(image_id, first=True)
            fh.write(f"{image_id},{cells}\n" if table.dim else f"{image_id}\n")


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
        if self.prototype_scale < 0 or self.noise_scale < 0:
            raise ValueError("scales must be non-negative")
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
    """
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
