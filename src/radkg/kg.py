"""Radiological knowledge graph: typed edges over image and finding entities.

Graphs are built from annotation tables under an uncertainty policy, queried
closed-world (a missing edge is a negative), optionally extended with
finding-to-finding co-occurrence edges, and split into train/val/test folds.
The annotation CSV reader shares the feature reader's blocks and row check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence

import numpy as np

from .artifacts import blocks, check_cells, csv_cell, id_cells, open_commented, read_id_header
from .errors import ParseError


class EntityKind(Enum):
    IMAGE = "Image"
    FINDING = "Finding"


class RelationKind(Enum):
    """Typed edges; the value is the wire name used in serialized graphs."""

    HAS_FINDING = "hasFinding"
    PROBABLY_HAS_FINDING = "probablyHasFinding"
    CO_OCCURS = "coOccurs"

    @property
    def subject_kind(self) -> EntityKind:
        return EntityKind.FINDING if self is RelationKind.CO_OCCURS else EntityKind.IMAGE


class LabelValue(IntEnum):
    """Per-cell annotation state, in the CheXpert CSV convention."""

    POSITIVE = 1
    NEGATIVE = 0
    UNCERTAIN = -1
    UNMENTIONED = -2


#: CSV cell token -> label value.  Blank cells mean the finding was never
#: mentioned for that image.
LABEL_TOKENS = {
    "1": LabelValue.POSITIVE,
    "1.0": LabelValue.POSITIVE,
    "0": LabelValue.NEGATIVE,
    "0.0": LabelValue.NEGATIVE,
    "-1": LabelValue.UNCERTAIN,
    "-1.0": LabelValue.UNCERTAIN,
    "": LabelValue.UNMENTIONED,
}

_LABEL_CODES = {token: int(value) for token, value in LABEL_TOKENS.items()}

LABEL_WRITE_TOKENS = {
    LabelValue.POSITIVE: "1.0",
    LabelValue.NEGATIVE: "0.0",
    LabelValue.UNCERTAIN: "-1.0",
    LabelValue.UNMENTIONED: "",
}


class UncertainPolicy(Enum):
    """How uncertain annotation cells map into the graph."""

    AS_POSITIVE = "positive"
    AS_NEGATIVE = "negative"
    AS_SEPARATE_RELATION = "separate"


@dataclass
class AnnotationTable:
    """Per-image label grid for n findings.

    ``labels`` is an (m, n) int8 grid of ``LabelValue`` codes.  ``groups``
    optionally carries a per-row key (e.g. a patient id) used to keep related
    rows in the same fold when splitting.
    """

    image_ids: list[str]
    finding_names: list[str]
    labels: np.ndarray
    groups: list[str] | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int8)
        m, n = len(self.image_ids), len(self.finding_names)
        if self.labels.shape != (m, n):
            raise ValueError(f"labels shape {self.labels.shape} does not match {m} ids x {n} findings")
        if len(set(self.image_ids)) != m:
            raise ValueError("image ids must be unique")
        if len(set(self.finding_names)) != n:
            raise ValueError("finding names must be unique")
        valid = {int(v) for v in LabelValue}
        present = set(np.unique(self.labels).tolist())
        if not present <= valid:
            raise ValueError(f"unknown label codes in grid: {sorted(present - valid)}")
        if self.groups is not None and len(self.groups) != m:
            raise ValueError(f"groups has {len(self.groups)} entries for {m} rows")

    @property
    def m(self) -> int:
        return len(self.image_ids)

    @property
    def n(self) -> int:
        return len(self.finding_names)


class KnowledgeGraph:
    """Immutable graph over m images and n findings: one read-only bool grid
    per relation, (m, n) for Image subjects and (n, n) for coOccurs, whose
    True cells are the edges. ``grids`` is anything ``dict()`` accepts, from
    ``RelationKind`` to a bool array; a missing relation is empty."""

    def __init__(self, grids, m: int, n: int):
        if m < 0 or n < 0:
            raise ValueError("entity counts must be non-negative")
        self.m = m
        self.n = n
        given = dict(grids)
        self._grids: dict[RelationKind, np.ndarray] = {}
        for relation in RelationKind:
            shape = (m if relation.subject_kind is EntityKind.IMAGE else n, n)
            grid = np.array(given.get(relation, np.zeros(shape)), dtype=bool)
            if grid.shape != shape:
                raise ValueError(f"{relation.value} grid has shape {grid.shape}, expected {shape}")
            if relation.subject_kind is EntityKind.FINDING and grid.diagonal().any():
                raise ValueError(f"self-loop between findings is not allowed in {relation.value}")
            grid.flags.writeable = False
            self._grids[relation] = grid

    def grid(self, relation: RelationKind) -> np.ndarray:
        """The read-only boolean (subjects, n) grid of ``relation``."""
        return self._grids[relation]

    def relation_counts(self) -> dict[RelationKind, int]:
        return {rel: int(np.count_nonzero(grid)) for rel, grid in self._grids.items()}

    def __len__(self) -> int:
        return sum(self.relation_counts().values())

    def __repr__(self) -> str:
        return f"KnowledgeGraph({len(self)} triples, m={self.m}, n={self.n})"


def relation_grid(
    annotations: AnnotationTable,
    policy: UncertainPolicy,
    relation: RelationKind = RelationKind.HAS_FINDING,
) -> np.ndarray:
    """Policy-mapped (m, n) boolean grid of which edges the table induces.

    Unmentioned cells count as negatives (closed world).  For
    ``PROBABLY_HAS_FINDING`` the grid is non-empty only under the
    separate-relation policy.
    """
    labels = annotations.labels
    if relation is RelationKind.HAS_FINDING:
        grid = labels == LabelValue.POSITIVE
        if policy is UncertainPolicy.AS_POSITIVE:
            grid = grid | (labels == LabelValue.UNCERTAIN)
        return grid
    if relation is RelationKind.PROBABLY_HAS_FINDING:
        if policy is UncertainPolicy.AS_SEPARATE_RELATION:
            return labels == LabelValue.UNCERTAIN
        return np.zeros(labels.shape, dtype=bool)
    raise ValueError(f"{relation.value} is not an annotation relation")


def build_radkg(annotations: AnnotationTable, policy: UncertainPolicy) -> KnowledgeGraph:
    """Turn an annotation table into a knowledge graph.

    Positive cells become hasFinding edges.  Uncertain cells follow the
    policy: promoted to hasFinding, dropped, or kept as probablyHasFinding.
    Negative and unmentioned cells produce no edge.
    """
    grids = {
        relation: relation_grid(annotations, policy, relation)
        for relation in (RelationKind.HAS_FINDING, RelationKind.PROBABLY_HAS_FINDING)
    }
    return KnowledgeGraph(grids, annotations.m, annotations.n)


def cooccurrence_matrix(annotations: AnnotationTable, policy: UncertainPolicy) -> np.ndarray:
    """Directional co-occurrence probabilities between findings.

    Entry (i, j) is P(finding i positive | finding j positive), counted over
    the policy-mapped positive grid.  Columns whose conditioning finding never
    occurs are NaN, which distinguishes "never observed" from "never
    co-occurs".
    """
    pos = relation_grid(annotations, policy).astype(np.float64)
    counts = pos.sum(axis=0)
    joint = pos.T @ pos
    with np.errstate(divide="ignore", invalid="ignore"):
        matrix = joint / counts[np.newaxis, :]
    matrix[:, counts == 0] = np.nan
    return matrix


def add_cooccurrence(kg: KnowledgeGraph, matrix: np.ndarray, threshold: float = 0.2) -> KnowledgeGraph:
    """Add (F_i, coOccurs, F_j) edges for defined entries strictly above threshold.

    The diagonal is never added: a self edge carries no information.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (kg.n, kg.n):
        raise ValueError(f"matrix shape {matrix.shape} does not match n={kg.n}")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    keep = np.isfinite(matrix) & (matrix > threshold)
    np.fill_diagonal(keep, False)
    grids = {relation: kg.grid(relation) for relation in RelationKind}
    grids[RelationKind.CO_OCCURS] = grids[RelationKind.CO_OCCURS] | keep
    return KnowledgeGraph(grids, kg.m, kg.n)


def _subtable(annotations: AnnotationTable, rows: Sequence[int]) -> AnnotationTable:
    rows = sorted(rows)
    return AnnotationTable(
        image_ids=[annotations.image_ids[i] for i in rows],
        finding_names=list(annotations.finding_names),
        labels=annotations.labels[rows],
        groups=None if annotations.groups is None else [annotations.groups[i] for i in rows],
    )


def split(
    annotations: AnnotationTable,
    ratios: tuple[float, float, float] = (0.7, 0.1, 0.2),
    seed: int = 0,
) -> tuple[AnnotationTable, AnnotationTable, AnnotationTable]:
    """Deterministic train/val/test partition of an annotation table.

    Rows sharing a ``groups`` key always land in the same fold.  Groups are
    shuffled with ``seed`` and assigned greedily to the fold with the largest
    remaining deficit, so ungrouped integer-sized targets come out exact and
    grouped splits stay within one group of the target proportions.
    """
    if len(ratios) != 3:
        raise ValueError(f"expected (train, val, test) ratios, got {len(ratios)} values")
    if not all(r > 0 for r in ratios):
        raise ValueError(f"ratios must be positive, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")

    groups: dict[object, list[int]] = {}
    for i, key in enumerate(annotations.groups or range(annotations.m)):
        groups.setdefault(key, []).append(i)
    group_rows = list(groups.values())

    m = annotations.m
    largest = max((len(rows) for rows in group_rows), default=0)
    if m and largest > max(ratios) * m:
        warnings.warn(
            f"largest group covers {largest}/{m} rows, more than the biggest "
            f"ratio {max(ratios)}; split is best effort",
            stacklevel=2,
        )

    rng = np.random.default_rng(seed)
    t0, t1, t2 = (r * m for r in ratios)
    counts = [0, 0, 0]
    folds: tuple[list[int], list[int], list[int]] = ([], [], [])
    for gi in rng.permutation(len(group_rows)).tolist():
        rows = group_rows[gi]
        # The largest deficit (target minus count) wins, a tie the lower fold.
        d0, d1, d2 = t0 - counts[0], t1 - counts[1], t2 - counts[2]
        f = 0 if d0 >= d1 and d0 >= d2 else 1 if d1 >= d2 else 2
        folds[f].extend(rows)
        counts[f] += len(rows)
    return tuple(_subtable(annotations, fold) for fold in folds)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def load_annotations(path) -> AnnotationTable:
    """Parse an annotation CSV: header ``id,<finding>,...[,group]``.

    Cell tokens follow the CheXpert convention: ``1.0``/``1`` positive,
    ``0.0``/``0`` negative, ``-1.0``/``-1`` uncertain, blank unmentioned.
    Lines starting with ``#`` are skipped.

    Lines are read a block of about ``artifacts.BLOCK_CELLS`` label cells at
    a time. ``_bulk_labels`` reads a block of well-formed, quote-free lines
    through one join and split; any other block goes through the row loop,
    which alone raises ParseError.
    """
    body, header_line, header = read_id_header(path, "annotation")
    has_group = len(header) > 2 and header[-1] == "group"
    finding_names = header[1:-1] if has_group else header[1:]
    if not finding_names:
        raise ParseError(path, header_line, "annotation header lists no findings")
    if len(set(finding_names)) != len(finding_names):
        raise ParseError(path, header_line, "finding names must be unique")
    width = len(header)

    ids: dict[str, None] = {}
    groups: list[str] = []
    parts = [np.empty((0, len(finding_names)), dtype=np.int8)]
    for block in blocks(body, len(finding_names)):
        labels = _bulk_labels(block, width, has_group, ids, groups)
        if labels is None:
            labels = _label_rows(path, block, width, has_group, ids, groups)
        parts.append(labels)
    return AnnotationTable(list(ids), finding_names, np.concatenate(parts), groups if has_group else None)


def _bulk_labels(block, width, has_group, ids, groups):
    """The (rows, n) int8 labels of a block whose lines all have ``width``
    quote-free cells, unique ids and label tokens spelled as in
    ``LABEL_TOKENS``, appending its ids and groups; None, with nothing
    appended, when any line needs the row loop.

    The lines are joined with a ``\n`` cell after each, so one split gives a
    (rows, width + 1) grid read by strides; a line with more or fewer cells
    moves the ``\n`` cells off their column.
    """
    joined = ",\n,".join(text for _, text in block) + ",\n"
    if '"' in joined:
        return None
    cells = joined.split(",")
    step = width + 1
    row_ids = dict.fromkeys(cells[::step])  # probed against ids.keys() as in encoders._bulk_block
    if (len(cells) != step * len(block) or cells[width::step] != ["\n"] * len(block)
            or len(row_ids) != len(block) or not ids.keys().isdisjoint(row_ids)):
        return None
    try:
        columns = [list(map(_LABEL_CODES.__getitem__, cells[col::step]))
                   for col in range(1, width - has_group)]
    except KeyError:
        return None
    ids.update(row_ids)
    if has_group:
        groups += cells[width - 1::step]
    return np.array(columns, dtype=np.int8).T


def _label_rows(path, block, width, has_group, ids, groups):
    """The row loop: the (rows, n) int8 labels of a block, one line at a
    time, raising ParseError at the first bad line."""
    rows: list[list[int]] = []
    for lineno, text in block:
        cells = id_cells(path, lineno, text, width, ids)
        label_cells = cells[1:width - has_group]
        try:
            rows.append([_LABEL_CODES[token.strip()] for token in label_cells])
        except KeyError:
            for col, token in enumerate(label_cells):
                if token.strip() not in _LABEL_CODES:
                    raise ParseError(path, lineno, f"bad label token {token!r} in column {col + 2}") from None
        if has_group:
            groups.append(cells[-1])
    return np.array(rows, dtype=np.int8).reshape(len(block), width - 1 - has_group)


def write_annotations(annotations: AnnotationTable, path, comments: Sequence[str] = ()) -> None:
    """Write an annotation table in the CSV format ``load_annotations`` reads."""
    check_cells(annotations.image_ids, "image id")
    check_cells(annotations.finding_names, "finding name")
    check_cells(annotations.groups or (), "group")
    with open_commented(path, comments, newline="") as fh:
        header = ["id", *annotations.finding_names]
        if annotations.groups is not None:
            header.append("group")
        fh.write(",".join(map(csv_cell, header)) + "\r\n")
        for i, image_id in enumerate(annotations.image_ids):
            row = [csv_cell(image_id, first=True)]
            row += [LABEL_WRITE_TOKENS[LabelValue(v)] for v in annotations.labels[i]]
            if annotations.groups is not None:
                row.append(csv_cell(annotations.groups[i]))
            fh.write(",".join(row) + "\r\n")


def write_kg(kg: KnowledgeGraph, path, comments: Sequence[str] = ()) -> None:
    """Serialize a graph as tab-separated ``Kind:index`` triple lines, sorted
    by relation name, then subject index, then object index."""
    with open_commented(path, [f"m = {kg.m}", f"n = {kg.n}", *comments]) as fh:
        for relation in sorted(RelationKind, key=lambda r: r.value):
            middle = f"\t{relation.value}\t{EntityKind.FINDING.value}:"
            subject = relation.subject_kind.value
            fh.writelines(f"{subject}:{s}{middle}{o}\n"
                          for s, o in np.argwhere(kg.grid(relation)).tolist())
