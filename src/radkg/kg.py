"""Radiological knowledge graph: typed edges over image and finding entities.

Graphs are built from annotation tables under an uncertainty policy, queried
closed-world (a missing edge is a negative), optionally extended with
finding-to-finding co-occurrence edges, and split into train/val/test folds.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Sequence

import numpy as np

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

    @property
    def object_kind(self) -> EntityKind:
        return EntityKind.FINDING


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


@dataclass(frozen=True)
class EntityId:
    kind: EntityKind
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"entity index must be non-negative, got {self.index}")

    @classmethod
    def image(cls, index: int) -> "EntityId":
        return cls(EntityKind.IMAGE, index)

    @classmethod
    def finding(cls, index: int) -> "EntityId":
        return cls(EntityKind.FINDING, index)

    @classmethod
    def parse(cls, token: str) -> "EntityId":
        kind_name, sep, index = token.partition(":")
        if not sep or not index.isdigit():
            raise ValueError(f"bad entity token {token!r}, expected 'Kind:index'")
        return cls(EntityKind(kind_name), int(index))

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.index}"


@dataclass(frozen=True)
class Triple:
    subject: EntityId
    relation: RelationKind
    obj: EntityId

    def __post_init__(self):
        if self.subject.kind is not self.relation.subject_kind:
            raise ValueError(
                f"{self.relation.value} requires a {self.relation.subject_kind.value} "
                f"subject, got {self.subject}"
            )
        if self.obj.kind is not self.relation.object_kind:
            raise ValueError(
                f"{self.relation.value} requires a {self.relation.object_kind.value} "
                f"object, got {self.obj}"
            )
        if self.subject.kind is EntityKind.FINDING and self.subject == self.obj:
            raise ValueError(f"self-loop between findings is not allowed: {self.subject}")

    def __str__(self) -> str:
        return f"{self.subject}\t{self.relation.value}\t{self.obj}"


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

    @property
    def triples(self) -> frozenset[Triple]:
        """Every edge as a ``Triple``, for file output and inspection."""
        return frozenset(
            Triple(EntityId(relation.subject_kind, s), relation, EntityId.finding(o))
            for relation, grid in self._grids.items()
            for s, o in np.argwhere(grid).tolist()
        )

    def objects_of(self, subject: EntityId, relation: RelationKind) -> frozenset[int]:
        """Finding indices linked to ``subject`` under ``relation``."""
        grid = self._grids[relation]
        if subject.kind is not relation.subject_kind or subject.index >= len(grid):
            return frozenset()
        return frozenset(np.flatnonzero(grid[subject.index]).tolist())

    def relation_counts(self) -> dict[RelationKind, int]:
        return {rel: int(np.count_nonzero(grid)) for rel, grid in self._grids.items()}

    def __len__(self) -> int:
        return sum(self.relation_counts().values())

    def __contains__(self, triple: Triple) -> bool:
        return triple.obj.index in self.objects_of(triple.subject, triple.relation)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and all(
            np.array_equal(grid, other._grids[rel]) for rel, grid in self._grids.items()
        )

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


def negatives_for(kg: KnowledgeGraph, image: EntityId, relation: RelationKind) -> set[EntityId]:
    """Findings NOT linked to ``image`` under ``relation`` (closed world)."""
    if image.kind is not EntityKind.IMAGE:
        raise ValueError(f"expected an Image entity, got {image}")
    if relation.subject_kind is not EntityKind.IMAGE:
        raise ValueError(f"{relation.value} does not take Image subjects")
    if image.index >= kg.m:
        raise ValueError(f"{image} out of bounds for m={kg.m}")
    linked = kg.objects_of(image, relation)
    return {EntityId.finding(j) for j in range(kg.n) if j not in linked}


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
    group_key: Sequence[str] | None = None,
) -> tuple[AnnotationTable, AnnotationTable, AnnotationTable]:
    """Deterministic train/val/test partition of an annotation table.

    Rows sharing a group key always land in the same fold.  Groups are
    shuffled with ``seed`` and assigned greedily to the fold with the largest
    remaining deficit, so ungrouped integer-sized targets come out exact and
    grouped splits stay within one group of the target proportions.
    """
    if len(ratios) != 3:
        raise ValueError(f"expected (train, val, test) ratios, got {len(ratios)} values")
    if any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be positive, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")

    keys = group_key if group_key is not None else annotations.groups
    if keys is not None and len(keys) != annotations.m:
        raise ValueError(f"group_key has {len(keys)} entries for {annotations.m} rows")

    groups: dict[object, list[int]] = {}
    for i in range(annotations.m):
        groups.setdefault(keys[i] if keys is not None else i, []).append(i)
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
    order = rng.permutation(len(group_rows))
    targets = [r * m for r in ratios]
    counts = [0, 0, 0]
    folds: tuple[list[int], list[int], list[int]] = ([], [], [])
    for gi in order:
        rows = group_rows[gi]
        deficits = [targets[f] - counts[f] for f in range(3)]
        f = max(range(3), key=lambda f: (deficits[f], -f))
        folds[f].extend(rows)
        counts[f] += len(rows)
    return tuple(_subtable(annotations, fold) for fold in folds)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _data_lines(path):
    """Yield (1-based line number, text) for non-blank, non-comment lines."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.rstrip("\n").rstrip("\r")
            if not text.strip() or text.lstrip().startswith("#"):
                continue
            yield lineno, text


def _split_csv_line(text: str) -> list[str]:
    return next(csv.reader(io.StringIO(text)))


def load_annotations(path) -> AnnotationTable:
    """Parse an annotation CSV: header ``id,<finding>,...[,group]``.

    Cell tokens follow the CheXpert convention: ``1.0``/``1`` positive,
    ``0.0``/``0`` negative, ``-1.0``/``-1`` uncertain, blank unmentioned.
    Lines starting with ``#`` are skipped.
    """
    lines = _data_lines(path)
    try:
        header_line, header_text = next(lines)
    except StopIteration:
        raise ParseError(path, 1, "empty annotation file") from None
    header = _split_csv_line(header_text)
    if not header or header[0] != "id":
        raise ParseError(path, header_line, f"first header column must be 'id', got {header[:1]}")
    has_group = len(header) > 2 and header[-1] == "group"
    finding_names = header[1:-1] if has_group else header[1:]
    if not finding_names:
        raise ParseError(path, header_line, "annotation header lists no findings")
    width = 1 + len(finding_names) + (1 if has_group else 0)

    ids: list[str] = []
    seen: set[str] = set()
    groups: list[str] = []
    rows: list[list[int]] = []
    for lineno, text in lines:
        cells = _split_csv_line(text)
        if len(cells) != width:
            raise ParseError(path, lineno, f"expected {width} columns, got {len(cells)}")
        image_id = cells[0]
        if image_id in seen:
            raise ParseError(path, lineno, f"duplicate image id {image_id!r}")
        seen.add(image_id)
        label_cells = cells[1:width - 1] if has_group else cells[1:]
        row = []
        for col, token in enumerate(label_cells):
            try:
                row.append(int(LABEL_TOKENS[token.strip()]))
            except KeyError:
                raise ParseError(path, lineno, f"bad label token {token!r} in column {col + 2}") from None
        ids.append(image_id)
        rows.append(row)
        if has_group:
            groups.append(cells[-1])

    labels = np.asarray(rows, dtype=np.int8).reshape(len(ids), len(finding_names))
    return AnnotationTable(ids, finding_names, labels, groups if has_group else None)


def write_annotations(annotations: AnnotationTable, path, comments: Sequence[str] = ()) -> None:
    """Write an annotation table in the CSV format ``load_annotations`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        header = ["id", *annotations.finding_names]
        if annotations.groups is not None:
            header.append("group")
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, image_id in enumerate(annotations.image_ids):
            row = [image_id] + [LABEL_WRITE_TOKENS[LabelValue(v)] for v in annotations.labels[i]]
            if annotations.groups is not None:
                row.append(annotations.groups[i])
            writer.writerow(row)


def write_kg(kg: KnowledgeGraph, path, comments: Sequence[str] = ()) -> None:
    """Serialize a graph as tab-separated ``Kind:index`` triple lines, sorted
    by relation name, then subject index, then object index."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# m = {kg.m}\n")
        fh.write(f"# n = {kg.n}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        for relation in sorted(RelationKind, key=lambda r: r.value):
            middle = f"\t{relation.value}\t{EntityKind.FINDING.value}:"
            subject = relation.subject_kind.value
            fh.writelines(f"{subject}:{s}{middle}{o}\n"
                          for s, o in np.argwhere(kg.grid(relation)).tolist())


def load_kg(path) -> KnowledgeGraph:
    """Read a graph serialized by ``write_kg``.

    Entity counts come from the ``# m = ...`` / ``# n = ...`` header comments
    when present, otherwise from the largest index seen. An index outside
    those counts is a ``ParseError`` at its line.
    """
    m = n = None
    triples: list[tuple[int, Triple]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text:
                continue
            if text.startswith("#"):
                body = text[1:].strip()
                key, sep, value = body.partition("=")
                if sep and key.strip() in ("m", "n") and value.strip().isdigit():
                    if key.strip() == "m":
                        m = int(value.strip())
                    else:
                        n = int(value.strip())
                continue
            parts = text.split("\t")
            if len(parts) != 3:
                raise ParseError(path, lineno, f"expected 3 tab-separated fields, got {len(parts)}")
            try:
                subject = EntityId.parse(parts[0])
                relation = RelationKind(parts[1])
                obj = EntityId.parse(parts[2])
                triples.append((lineno, Triple(subject, relation, obj)))
            except ValueError as exc:
                raise ParseError(path, lineno, str(exc)) from None

    def largest(kind: EntityKind) -> int:
        return max((ent.index for _, t in triples for ent in (t.subject, t.obj)
                    if ent.kind is kind), default=-1)

    m = m if m is not None else largest(EntityKind.IMAGE) + 1
    n = n if n is not None else largest(EntityKind.FINDING) + 1
    grids = {relation: np.zeros((m, n) if relation.subject_kind is EntityKind.IMAGE else (n, n),
                                bool) for relation in RelationKind}
    for lineno, t in triples:
        for ent in (t.subject, t.obj):
            if ent.index >= (m if ent.kind is EntityKind.IMAGE else n):
                raise ParseError(path, lineno, f"entity {ent} out of bounds for m={m}, n={n}")
        grids[t.relation][t.subject.index, t.obj.index] = True
    return KnowledgeGraph(grids, m, n)
