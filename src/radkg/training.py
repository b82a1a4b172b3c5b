"""Supervised training over closed-world triples.

Every (subject, relation) pair in the graph becomes one item whose target
vector marks, for all n findings, whether the triple exists. Items are scored
against every object, pushed through a sigmoid, and fit with mean binary
cross entropy; gradients are averaged per minibatch and applied with SGD or
Adam. Model selection tracks validation macro-AUC with early stopping.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernel, scoring
from .errors import CheckpointError, TrainingDivergedError
from .kg import EntityKind, KnowledgeGraph, RelationKind, UncertainPolicy
from .encoders import FeatureTable

PROB_CLAMP = 1e-12

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OPTIMIZER_KINDS = ("adam", "sgd")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 32
    optimizer: str = "adam"
    seed: int = 0
    policy: UncertainPolicy = UncertainPolicy.AS_POSITIVE
    relations: tuple[RelationKind, ...] | None = None
    patience: int = 5

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError(f"learning rate must be non-negative, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}, expected one of {OPTIMIZER_KINDS}")
        if self.patience < 0:
            raise ValueError(f"patience must be >= 0, got {self.patience}")
        if self.relations is not None:
            rels = tuple(self.relations)
            if not rels or len(set(rels)) != len(rels):
                raise ValueError("relations must be a non-empty set of distinct kinds")
            object.__setattr__(self, "relations", rels)


def bce_loss(p: float, y: int) -> float:
    """Binary cross entropy -y*log(p) - (1-y)*log(1-p), with p clamped away
    from exact 0/1 so the loss stays finite."""
    if y not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {y!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -(y * math.log(p) + (1 - y) * math.log(1.0 - p))


def _item_loss(psi: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean BCE over the n targets of each item and its gradient dL/dpsi.

    The last axis runs over the n findings; a (B, n) batch gives B losses.
    The gradient of BCE through the sigmoid is (p - y) / n exactly; the clamp
    only guards the reported loss value.
    """
    p = kernel.sigmoid(psi)
    clamped = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = np.mean(-(targets * np.log(clamped) + (1.0 - targets) * np.log1p(-clamped)), axis=-1)
    dpsi = (p - targets) / targets.shape[-1]
    return loss, dpsi


@dataclass(frozen=True)
class Batch:
    """Minibatch rows: row k asks (``subjects[k]``, ``relations[k]``, ?) and
    its ``targets`` are that subject's row of the relation's grid. ``images``
    marks image subjects, whose feature rows are gathered from the shared
    (m, D) ``feature_codes`` when scored, so batches hold no feature copy."""

    relations: tuple[RelationKind, ...]
    subjects: np.ndarray
    targets: np.ndarray
    images: np.ndarray
    feature_codes: np.ndarray

    def __len__(self) -> int:
        return len(self.relations)


def resolve_relations(
    kg: KnowledgeGraph, configured: tuple[RelationKind, ...] | None
) -> tuple[RelationKind, ...]:
    """Relations to train on: the configured set, or those present in the
    graph (always including hasFinding, which inference queries)."""
    if configured is not None:
        return tuple(configured)
    counts = kg.relation_counts()
    return tuple(
        rel for rel in RelationKind if counts[rel] > 0 or rel is RelationKind.HAS_FINDING
    )


def make_batches(
    kg: KnowledgeGraph,
    features: FeatureTable,
    config: TrainConfig,
    epoch: int = 0,
) -> list[Batch]:
    """Exhaustive closed-world rows, shuffled deterministically per epoch.

    Each subject of each trained relation, in that order, is one row whose
    targets are its grid row: every finding not linked is a negative. The
    rows are permuted with ``default_rng([seed, epoch])``; no stochastic
    negative sampling happens anywhere.
    """
    if kg.m != features.m:
        raise ValueError(f"graph has {kg.m} images but feature table has {features.m} rows")
    relations = resolve_relations(kg, config.relations)
    grids = [kg.grid(relation) for relation in relations]
    targets = np.concatenate(grids).astype(np.float64)
    relation_of = np.repeat(np.arange(len(relations)), [len(grid) for grid in grids])
    subjects = np.concatenate([np.arange(len(grid)) for grid in grids])
    is_image = np.array([r.subject_kind is EntityKind.IMAGE for r in relations])[relation_of]
    order = np.random.default_rng([config.seed, epoch]).permutation(len(subjects))
    batches = []
    for start in range(0, len(order), config.batch_size):
        rows = order[start:start + config.batch_size]
        batches.append(Batch(tuple(relations[r] for r in relation_of[rows]), subjects[rows],
                             targets[rows], is_image[rows], features.codes))
    return batches


class Sgd:
    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, block in params.items():
            block -= self.learning_rate * grads[name]


class Adam:
    """Adam with bias correction; state is kept per parameter block.

    The update runs in place through two scratch buffers per block, with the
    operations of the textbook formula in the same order, so it is
    bit-identical to ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``block -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``.
    """

    def __init__(self, learning_rate: float, beta1: float = ADAM_BETA1,
                 beta2: float = ADAM_BETA2, eps: float = ADAM_EPS):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        correct1 = 1.0 - self.beta1 ** self.t
        correct2 = 1.0 - self.beta2 ** self.t
        for name, block in params.items():
            g = grads[name]
            if name not in self.moment1:
                self.moment1[name] = np.zeros_like(block)
                self.moment2[name] = np.zeros_like(block)
                self._scratch[name] = (np.empty_like(block), np.empty_like(block))
            m = self.moment1[name]
            v = self.moment2[name]
            update, denom = self._scratch[name]
            np.multiply(g, 1.0 - self.beta1, out=update)
            m *= self.beta1
            m += update
            np.multiply(g, 1.0 - self.beta2, out=update)
            update *= g
            v *= self.beta2
            v += update
            np.divide(m, correct1, out=update)
            update *= self.learning_rate
            np.divide(v, correct2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            block -= update


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(config.learning_rate)
    return Adam(config.learning_rate)


def _batch_gradients(
    model: scoring.EmbeddingModel, batch: Batch
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-row losses (B,) and the mean gradient of one batch.

    The batch is scored and differentiated in one ``scoring.forward`` and
    ``scoring.backward`` call. Image subjects enter through ``codes @ wx``
    and finding subjects (coOccurs) as ef rows; dL/de_s flows back the same
    two ways.
    """
    images, findings = batch.images, ~batch.images
    codes = batch.feature_codes[batch.subjects[images]]
    finding_idx = batch.subjects[findings]
    e_s = np.empty((len(batch), model.embed_dim))
    e_s[images] = codes @ model.wx
    e_s[findings] = model.ef[finding_idx]
    ridx = [model.relation_index(relation) for relation in batch.relations]

    psi, cache = scoring.forward(model, e_s, ridx)
    losses, dpsi = _item_loss(psi, batch.targets)
    grads, d_es = scoring.backward(model, cache, dpsi)
    grads["wx"] = codes.T @ d_es[images]
    np.add.at(grads["ef"], finding_idx, d_es[findings])
    scale = 1.0 / len(batch)
    for block in grads.values():
        block *= scale
    return losses, grads


def train_epoch(
    model: scoring.EmbeddingModel,
    batches: list[Batch],
    config: TrainConfig,
    optimizer=None,
) -> tuple[scoring.EmbeddingModel, float]:
    """One pass over the batches; returns the (mutated) model and mean loss.

    Pass the same optimizer across epochs to keep Adam's moments; a fresh one
    is created when none is given. A non-finite loss stops the epoch before
    its batch updates the model, naming the batch and its first such item.
    """
    if optimizer is None:
        optimizer = make_optimizer(config)
    losses: list[np.ndarray] = []
    for number, batch in enumerate(batches):
        batch_losses, grads = _batch_gradients(model, batch)
        diverged = np.flatnonzero(~np.isfinite(batch_losses))
        if diverged.size:
            row = diverged[0]
            relation = batch.relations[row]
            raise TrainingDivergedError(
                f"non-finite loss {batch_losses[row]} in batch {number} on item "
                f"({relation.subject_kind.value}:{batch.subjects[row]}, {relation.value})"
            )
        losses.append(batch_losses)
        optimizer.step(model.blocks(), grads)
    return model, (float(np.mean(np.concatenate(losses))) if losses else 0.0)


def train(
    model: scoring.EmbeddingModel,
    kg: KnowledgeGraph,
    features: FeatureTable,
    val_fold,
    config: TrainConfig,
) -> tuple[scoring.EmbeddingModel, list[dict]]:
    """Run epochs with validation-based selection and early stopping.

    ``val_fold`` is a (FeatureTable, AnnotationTable) pair disjoint from the
    training images. After each epoch the validation macro-AUC on hasFinding
    queries is recorded; the best-scoring model snapshot is returned. Training
    stops once the epochs since the last improvement reach the patience.
    """
    from .evaluate import macro_auc, predict_table

    val_features, val_truth = val_fold
    overlap = set(features.image_ids) & set(val_features.image_ids)
    if overlap:
        raise ValueError(f"train/val folds share {len(overlap)} image ids, e.g. {sorted(overlap)[:3]}")

    optimizer = make_optimizer(config)
    history: list[dict] = []
    best_model = None
    best_auc = -math.inf
    stall = 0
    for epoch in range(1, config.epochs + 1):
        batches = make_batches(kg, features, config, epoch=epoch)
        try:
            model, mean_loss = train_epoch(model, batches, config, optimizer)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"epoch {epoch}: {exc}") from None
        report = macro_auc(predict_table(model, val_features), val_truth, config.policy)
        history.append({"epoch": epoch, "loss": mean_loss, "val_auc": report.macro})
        if report.macro is not None and report.macro > best_auc:
            best_auc = report.macro
            best_model = model.copy()
            stall = 0
        else:
            stall += 1
        if stall >= config.patience:
            break
    if best_model is None:
        best_model = model.copy()
    return best_model, history


# ---------------------------------------------------------------------------
# Checkpoint format: magic RKG1, little-endian header, length-prefixed
# float64 blocks in the order wx, ef, er, kernels, wc, then one
# length-prefixed UTF-8 metadata block of sorted key=value lines.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"RKG1"
CHECKPOINT_VERSION = 1
_SCORER_CODES = {"distmult": 1, "conve": 2}
_SCORER_NAMES = {code: name for name, code in _SCORER_CODES.items()}


def save_checkpoint(model: scoring.EmbeddingModel, path, metadata: dict | None = None) -> None:
    """Write the model; the relation list rides along in the metadata."""
    meta = {str(k): str(v) for k, v in (metadata or {}).items()}
    meta["relations"] = ",".join(r.value for r in model.relations)
    for key, value in meta.items():
        if "=" in key or "\n" in key or "\n" in value:
            raise ValueError(f"metadata entry {key!r} not representable as key=value line")
    blob = "".join(f"{key}={meta[key]}\n" for key in sorted(meta)).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<B", _SCORER_CODES[model.scorer]))
        fh.write(struct.pack(
            "<5I",
            model.feature_dim,
            model.embed_dim,
            model.n_findings,
            model.channels,
            len(model.relations),
        ))
        for block in model.blocks().values():
            data = np.ascontiguousarray(block, dtype="<f8")
            fh.write(struct.pack("<Q", data.size))
            fh.write(data.tobytes())
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)


def _take(buf: bytes, offset: int, size: int, path, what: str) -> tuple[bytes, int]:
    if offset + size > len(buf):
        raise CheckpointError(f"{path}: truncated reading {what}")
    return buf[offset:offset + size], offset + size


def load_checkpoint(path) -> tuple[scoring.EmbeddingModel, dict[str, str]]:
    """Read a checkpoint back; returns the model and its metadata."""
    with open(path, "rb") as fh:
        buf = fh.read()
    chunk, offset = _take(buf, 0, 4, path, "magic")
    if chunk != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {chunk!r}, expected {CHECKPOINT_MAGIC!r}")
    chunk, offset = _take(buf, offset, 4, path, "version")
    version = struct.unpack("<I", chunk)[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    chunk, offset = _take(buf, offset, 1, path, "scorer kind")
    code = chunk[0]
    if code not in _SCORER_NAMES:
        raise CheckpointError(f"{path}: unknown scorer code {code}")
    scorer = _SCORER_NAMES[code]
    chunk, offset = _take(buf, offset, 20, path, "dims")
    feature_dim, embed_dim, n_findings, channels, n_rel = struct.unpack("<5I", chunk)

    shapes = [("wx", (feature_dim, embed_dim)), ("ef", (n_findings, embed_dim)),
              ("er", (n_rel, embed_dim))]
    if scorer == "conve":
        k = scoring.KERNEL_SIZE
        shapes.append(("kernels", (channels, k, k)))
        shapes.append(("wc", (scoring.conve_flat_size(embed_dim, channels), embed_dim)))
    blocks = {}
    for name, shape in shapes:
        chunk, offset = _take(buf, offset, 8, path, f"{name} length")
        count = struct.unpack("<Q", chunk)[0]
        expected = int(np.prod(shape))
        if count != expected:
            raise CheckpointError(f"{path}: block {name} has {count} values, expected {expected}")
        chunk, offset = _take(buf, offset, 8 * count, path, f"{name} data")
        blocks[name] = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)

    chunk, offset = _take(buf, offset, 8, path, "metadata length")
    meta_len = struct.unpack("<Q", chunk)[0]
    chunk, offset = _take(buf, offset, meta_len, path, "metadata")
    if offset != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - offset} trailing bytes after metadata")
    metadata: dict[str, str] = {}
    for line in chunk.decode("utf-8").splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"{path}: malformed metadata line {line!r}")
        metadata[key] = value

    if "relations" not in metadata:
        raise CheckpointError(f"{path}: metadata lacks the relation list")
    try:
        relations = tuple(RelationKind(token) for token in metadata["relations"].split(","))
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if len(relations) != n_rel:
        raise CheckpointError(
            f"{path}: header says {n_rel} relations, metadata lists {len(relations)}"
        )
    try:
        model = scoring.EmbeddingModel(
            scorer=scorer,
            wx=blocks["wx"],
            ef=blocks["ef"],
            er=blocks["er"],
            relations=relations,
            kernels=blocks.get("kernels"),
            wc=blocks.get("wc"),
        )
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return model, metadata
