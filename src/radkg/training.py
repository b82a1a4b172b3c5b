"""Supervised training over closed-world triples.

Every (subject, relation) pair in the graph becomes one item whose target
vector marks, for all n findings, whether the triple exists. Items are scored
against every object, pushed through a sigmoid, and fit with mean binary
cross entropy; gradients are averaged per minibatch and applied with SGD or
Adam. Model selection tracks validation macro-AUC with early stopping.

``train`` owns one ``kernel.Workspace`` per call and passes it through
``train_epoch``, ``_batch_losses`` and ``_batch_gradients`` to
``scoring.forward``/``backward`` and the conv kernels. The conv scorer's
batch-sized grids (slabs, conv output and its ReLU, their gradients) and its
wc gradient are taken from it, so the first, full batch allocates them and
the rest of the fit allocates none: a short last batch takes leading views.
The wc gradient is a view of the workspace, valid until its next batch; its
update reads it before then. The grids are filled with ``out=`` forms of the
same numpy calls, so the results are bit-identical to fresh arrays, which
the functions make when given no workspace. A distmult fit takes no
workspace grid.

``train`` also opens one ``kernel.Lanes`` per fit and passes it to every
batch. A block whose gradient backward finishes early, conve's wc (its last
read is ``d_z2 @ wc.T``), has its 1/B scaling and update started on an idle
lane (``_Optimizer.start``) while the calling thread finishes backward,
when it has fewer than ``SPLIT_CELLS`` cells; the batch's optimizer step
then updates the other blocks on the lanes still free and collects it. On
2 CPUs the rest of the step thus runs on the calling thread, and on one
lane the started update runs inline. ``_update_rows`` cuts each block of
``SPLIT_CELLS`` or more, a large wc included, into ``GRAD_ROWS``-aligned
row ranges, one per free lane; the calling thread takes the first range
and every small block. The wx gradient comes
to the step as a ``RowProduct``, so each lane computes its rows of
``codes.T @ d_es``, scales them by 1/B and runs the update on the same rows.
The checkpoint bytes are the same at any lane count.
"""

from __future__ import annotations

import functools
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import kernel, scoring
from .errors import CheckpointError, TrainingDivergedError
from .artifacts import atomic_open
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
        if not 0.0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning rate must be finite and non-negative, got {self.learning_rate}")
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


def item_loss(psi: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    (m, D) ``feature_codes`` when scored, so batches hold no feature copy.
    A batch is a slice of one permutation of (relation, subject) rows, and
    only coOccurs has finding subjects, so no finding is a subject twice."""

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


#: Row ranges of a split block start on multiples of this. A range's rows of
#: the wx gradient are one product, and splits on multiples of 64 rows gave
#: the whole product's bits at every shape tried (scipy-openblas 0.3.31),
#: so the bits do not depend on the lane count; splits at other rows did not
#: always give them.
GRAD_ROWS = 64
#: Blocks of this many cells or more are updated by row ranges, one per
#: lane. Time per batch with the split against without, 2 CPUs, 1 BLAS
#: thread, B=32, d=100, medians of 25-41 alternating epochs: distmult wx of
#: 51,200 cells +9 to +11%, 64,000 -3 to +3%, 76,800 -6 to -9%, 102,400
#: (D=1024) -10 to -13%, 204,800 -29%; conve at D=128 splitting its
#: 76,800-cell wc -1 to -3%, and its 12,800-cell wx as well 0 to +9%. So a
#: conve fit at D=128 is not cut; its wc update overlaps backward instead
#: (``_Optimizer.start``).
SPLIT_CELLS = 80_000


class RowProduct:
    """The gradient ``left.T @ right * scale`` of a (D, d) block, left for
    the optimizer step to compute a range of rows at a time, so the lane
    that computes rows also updates them. ``rows(lo, hi)`` fills those rows
    of ``grid`` and returns them."""

    def __init__(self, left: np.ndarray, right: np.ndarray, scale: float):
        self.left, self.right, self.scale = left, right, scale
        self.grid = np.empty((left.shape[1], right.shape[1]))

    def rows(self, lo: int, hi: int) -> np.ndarray:
        block = np.matmul(self.left[:, lo:hi].T, self.right, out=self.grid[lo:hi])
        block *= self.scale
        return block


def _update_rows(params: dict[str, np.ndarray], grads, lanes: kernel.Lanes | None, apply) -> None:
    """Call ``apply(name, lo, hi, g)`` over the rows of every block, g being
    the gradient's rows lo:hi, computed first when it is a ``RowProduct``.
    A block of ``SPLIT_CELLS`` or more is cut into ``GRAD_ROWS``-aligned
    ranges, one per free lane (the calling thread alone when ``lanes`` is
    None); the calling thread takes the first range of each and every
    smaller block whole. The updates are elementwise, so the bits do not
    depend on the lane count. A FloatingPointError gets its block's name."""
    count = 1 if lanes is None else lanes.free
    jobs: list[list[tuple[str, int, int]]] = [[] for _ in range(count)]
    for name, block in params.items():
        split = count if block.size >= SPLIT_CELLS else 1
        for lane, (lo, hi) in enumerate(kernel.ranges(len(block), GRAD_ROWS, split)):
            jobs[lane].append((name, lo, hi))

    def work(lane_jobs):
        for name, lo, hi in lane_jobs:
            try:
                g = grads[name]
                apply(name, lo, hi, g.rows(lo, hi) if isinstance(g, RowProduct) else g[lo:hi])
            except FloatingPointError as exc:
                exc.block = name
                raise

    if lanes is None:
        work(jobs[0])
    else:
        lanes.run(functools.partial(work, lane_jobs) for lane_jobs in jobs if lane_jobs)


class _Optimizer:
    """The batch flow Sgd and Adam share: both update a block elementwise,
    ``_apply`` a range of its rows at a time.

    ``start`` may take one block's update as soon as the block's gradient
    is final and hand it to an idle lane, while the caller still runs the
    rest of backward. ``step`` updates every other block, on the lanes that
    the started update does not hold, then collects it. A batch's ``start``,
    or its ``step`` when nothing started, begins it (``_begin``).
    ``collect`` waits for the started update of a batch that ends before
    its step.
    """

    def __init__(self, learning_rate: float):
        self.learning_rate = learning_rate
        self._early: tuple[str, list] | None = None  # block, its ``Lanes.start`` result

    def _begin(self, params: dict[str, np.ndarray]) -> None:
        """Ready the state the batch's updates read."""

    def start(self, params: dict[str, np.ndarray], name: str, grad: np.ndarray, scale: float,
              lanes: kernel.Lanes) -> bool:
        """Scale ``grad`` by ``scale`` in place and update block ``name`` by
        it, on an idle lane of ``lanes``; return True without waiting. The
        batch's ``step`` or ``collect`` waits for it, and until then only
        that lane touches the block, its gradient and its optimizer state.
        A block of ``SPLIT_CELLS`` or more is not taken (False): the step
        cuts it by rows across every lane, as it does without ``start``."""
        if grad.size >= SPLIT_CELLS:
            return False
        self._begin(params)

        def update():
            try:
                np.multiply(grad, scale, out=grad)
                self._apply(params, name, 0, len(grad), grad)
            except FloatingPointError as exc:
                exc.block = name
                raise

        self._early = name, lanes.start([update])
        return True

    def step(self, params: dict[str, np.ndarray], grads, lanes: kernel.Lanes | None = None) -> None:
        """Update every block but the one ``start`` took by its gradient in
        ``grads`` (the wx gradient may be a ``RowProduct``), on the free
        lanes of ``lanes`` or on the calling thread alone when it is None.
        Then wait for the started update; an exception of the caller's
        updates is raised first, else one of the started update."""
        early = None
        if self._early is None:
            self._begin(params)
        else:
            early = self._early[0]
        try:
            _update_rows({name: block for name, block in params.items() if name != early},
                         grads, lanes, functools.partial(self._apply, params))
        finally:
            error = self.collect(lanes)
        if error is not None:
            raise error

    def collect(self, lanes: kernel.Lanes | None) -> BaseException | None:
        """Wait for the batch's started update to end and return its
        exception, or None."""
        if self._early is None:
            return None
        (_, started), self._early = self._early, None
        return lanes.collect(started)


class Sgd(_Optimizer):
    def _apply(self, params, name, lo, hi, g):
        params[name][lo:hi] -= self.learning_rate * g


class Adam(_Optimizer):
    """Adam with bias correction; state is kept per parameter block.

    The update runs in place through two scratch buffers per block, with the
    operations of the textbook formula in the same order, so it is
    bit-identical to ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g``,
    ``block -= lr * (m/bc1) / (sqrt(v/bc2) + eps)``. Every operation is
    elementwise, so a block is updated by row ranges on lanes, or on a lane
    of its own, with the same bits. ``t`` counts the batches begun.
    """

    def __init__(self, learning_rate: float):
        super().__init__(learning_rate)
        self.t = 0
        self.moment1: dict[str, np.ndarray] = {}
        self.moment2: dict[str, np.ndarray] = {}
        self._scratch: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _begin(self, params):
        self.t += 1
        self._correct1 = 1.0 - ADAM_BETA1 ** self.t
        self._correct2 = 1.0 - ADAM_BETA2 ** self.t
        for name, block in params.items():
            if name not in self.moment1:
                self.moment1[name] = np.zeros_like(block)
                self.moment2[name] = np.zeros_like(block)
                self._scratch[name] = (np.empty_like(block), np.empty_like(block))

    def _apply(self, params, name, lo, hi, g):
        m = self.moment1[name][lo:hi]
        v = self.moment2[name][lo:hi]
        update, denom = (grid[lo:hi] for grid in self._scratch[name])
        np.multiply(g, 1.0 - ADAM_BETA1, out=update)
        m *= ADAM_BETA1
        m += update
        np.multiply(g, 1.0 - ADAM_BETA2, out=update)
        update *= g
        v *= ADAM_BETA2
        v += update
        np.divide(m, self._correct1, out=update)
        update *= self.learning_rate
        np.divide(v, self._correct2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update /= denom
        params[name][lo:hi] -= update


def make_optimizer(config: TrainConfig):
    if config.optimizer == "sgd":
        return Sgd(config.learning_rate)
    return Adam(config.learning_rate)


def _batch_losses(
    model: scoring.EmbeddingModel, batch: Batch, workspace: kernel.Workspace | None = None
) -> tuple[np.ndarray, tuple]:
    """Per-row losses (B,) of one batch, scored in one ``scoring.forward``
    call, and what ``_batch_gradients`` needs to differentiate them. Image
    subjects enter through ``codes @ wx`` and finding subjects (coOccurs)
    as ef rows. The conv scorer's grids come from ``workspace`` (fresh when
    it is None): differentiate before its next batch."""
    workspace = kernel.Workspace() if workspace is None else workspace
    images, findings = batch.images, ~batch.images
    codes = batch.feature_codes[batch.subjects[images]]
    e_s = np.empty((len(batch), model.embed_dim))
    e_s[images] = codes @ model.wx
    e_s[findings] = model.ef[batch.subjects[findings]]
    ridx = [model.relation_index(relation) for relation in batch.relations]
    psi, cache = scoring.forward(model, e_s, ridx, workspace)
    losses, dpsi = item_loss(psi, batch.targets)
    return losses, (codes, cache, dpsi)


def _batch_gradients(
    model: scoring.EmbeddingModel, batch: Batch, scored: tuple,
    workspace: kernel.Workspace | None = None, ready=None,
) -> dict:
    """The mean gradient of the losses ``_batch_losses`` scored, from one
    ``scoring.backward`` call; dL/de_s flows back into wx and ef rows as
    the subjects came in. The wx gradient is a ``RowProduct`` that the
    optimizer step computes. The conv scorer's wc gradient is a grid of
    ``workspace`` (fresh when it is None), valid until its next batch.
    ``ready(name, grad)``, when given, is offered each block that
    ``scoring.backward`` finishes early, with its gradient summed over the
    batch; a block it takes (returning True) is left out of the result.
    """
    workspace = kernel.Workspace() if workspace is None else workspace
    codes, cache, dpsi = scored
    images, findings = batch.images, ~batch.images
    scale = 1.0 / len(batch)
    grads, d_es = scoring.backward(model, cache, dpsi, workspace, ready)
    grads["ef"][batch.subjects[findings]] += d_es[findings]  # a batch names each finding subject once
    for block in grads.values():
        block *= scale
    grads["wx"] = RowProduct(codes, d_es[images], scale)
    return grads


def train_epoch(
    model: scoring.EmbeddingModel, batches: list[Batch], optimizer,
    workspace: kernel.Workspace | None = None, lanes: kernel.Lanes | None = None,
) -> tuple[scoring.EmbeddingModel, float]:
    """One pass over the batches; returns the (mutated) model and mean loss.

    Pass the same optimizer across epochs to keep Adam's moments, and the
    same workspace to keep its grids; without one the epoch makes its own.
    The optimizer steps run on ``lanes``, opened by the caller, or on the
    calling thread alone when it is None. With ``lanes``, a block that
    backward finishes early (conve's wc, below ``SPLIT_CELLS``) starts its
    update on an idle lane while backward goes on, and the step collects it.

    A non-finite loss stops the epoch before its batch is differentiated,
    so the batch updates no block, naming the batch and its first such
    item. Under ``np.errstate(over="raise", invalid="raise")``, as ``train``
    runs it, a ``FloatingPointError`` stops it too: one in scoring a batch
    is named by that check when the batch, scored again with the faults
    ignored, has a non-finite loss, else as the batch's forward or backward
    pass, as is one in backward, once a started update has ended; one in a
    step, on any lane, names the optimizer step of its batch and its block.
    """
    workspace = kernel.Workspace() if workspace is None else workspace
    params = model.blocks()
    losses: list[np.ndarray] = []
    for number, batch in enumerate(batches):
        fault = None
        try:
            batch_losses, scored = _batch_losses(model, batch, workspace)
        except FloatingPointError as exc:
            with np.errstate(all="ignore"):
                batch_losses, _ = _batch_losses(model, batch, workspace)
            fault = exc
        diverged = np.flatnonzero(~np.isfinite(batch_losses))
        if diverged.size:
            row = diverged[0]
            relation = batch.relations[row]
            raise TrainingDivergedError(
                f"non-finite loss {batch_losses[row]} in batch {number} on item "
                f"({relation.subject_kind.value}:{batch.subjects[row]}, {relation.value})"
            )
        if fault is not None:
            raise TrainingDivergedError(f"{fault} in the forward or backward pass of batch {number}")
        losses.append(batch_losses)
        ready = None if lanes is None else functools.partial(
            optimizer.start, params, scale=1.0 / len(batch), lanes=lanes)
        grads = None
        try:
            grads = _batch_gradients(model, batch, scored, workspace, ready)
        except FloatingPointError as exc:
            raise TrainingDivergedError(f"{exc} in the forward or backward pass of batch {number}") from None
        finally:
            if grads is None:
                optimizer.collect(lanes)  # a started update ends before the batch does
        try:
            optimizer.step(params, grads, lanes)
        except FloatingPointError as exc:
            raise TrainingDivergedError(f"{exc} in the optimizer step of batch {number} "
                                        f"on block {exc.block}") from None
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
    When no finding of the fold has both a positive and a negative row, no
    epoch can define an AUC (the report's macro is None): every epoch runs
    and the last model is returned. The model must hold hasFinding, which
    validation scores, and every trained relation; that is checked before the
    first step changes it. A non-finite loss, or a floating-point overflow or
    invalid operation in a batch, a step or validation, raises
    ``TrainingDivergedError`` naming the epoch.
    """
    from .evaluate import macro_auc, predict_table

    for relation in (RelationKind.HAS_FINDING, *resolve_relations(kg, config.relations)):
        model.relation_index(relation)
    val_features, val_truth = val_fold
    overlap = set(features.image_ids) & set(val_features.image_ids)
    if overlap:
        raise ValueError(f"train/val folds share {len(overlap)} image ids, e.g. {sorted(overlap)[:3]}")

    optimizer = make_optimizer(config)
    workspace = kernel.Workspace()
    history: list[dict] = []
    best_model = None
    best_auc = -math.inf
    stall = 0
    # Overflow and invalid operations raise, on every lane, so parameters that
    # blow up stop the fit although item_loss clamps p; sigmoid's exp(-|x|)
    # underflows by design, so underflow stays ignored.
    with kernel.Lanes() as lanes, np.errstate(over="raise", invalid="raise"):
        for epoch in range(1, config.epochs + 1):
            batches = make_batches(kg, features, config, epoch=epoch)
            try:
                model, mean_loss = train_epoch(model, batches, optimizer, workspace, lanes)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(f"epoch {epoch}: {exc}") from None
            try:
                report = macro_auc(predict_table(model, val_features), val_truth, config.policy)
            except FloatingPointError as exc:
                raise TrainingDivergedError(f"epoch {epoch}: {exc} in validation") from None
            history.append({"epoch": epoch, "loss": mean_loss, "val_auc": report.macro})
            if report.macro is not None and report.macro > best_auc:
                best_auc = report.macro
                best_model = model.copy()
                stall = 0
            else:
                stall += 1
            if report.macro is not None and stall >= config.patience:
                break
    if best_model is None:
        best_model = model.copy()
    return best_model, history


# ---------------------------------------------------------------------------
# Checkpoint format: magic RKG1, little-endian header, length-prefixed
# float64 blocks in ``scoring.block_shapes`` order, one length-prefixed
# UTF-8 metadata block of sorted key=value lines, then a u32 zlib.crc32 of
# every byte before it.
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = b"RKG1"
CHECKPOINT_VERSION = 2
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

    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<B", _SCORER_CODES[model.scorer]),
        struct.pack(
            "<5I",
            model.feature_dim,
            model.embed_dim,
            model.n_findings,
            model.channels,
            len(model.relations),
        ),
    ]
    for block in model.blocks().values():
        data = np.ascontiguousarray(block, dtype="<f8")
        parts += [struct.pack("<Q", data.size), data.tobytes()]
    parts += [struct.pack("<Q", len(blob)), blob]
    body = b"".join(parts)
    with atomic_open(path, "wb") as fh:
        fh.write(body)
        fh.write(struct.pack("<I", zlib.crc32(body)))


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
    # Every byte after the version is parsed only once the trailer vouches for it.
    _take(buf, offset, 4, path, "checksum")
    buf, (crc,) = buf[:-4], struct.unpack("<I", buf[-4:])
    if crc != zlib.crc32(buf):
        raise CheckpointError(f"{path}: checksum mismatch, the file is corrupted")
    chunk, offset = _take(buf, offset, 1, path, "scorer kind")
    code = chunk[0]
    if code not in _SCORER_NAMES:
        raise CheckpointError(f"{path}: unknown scorer code {code}")
    scorer = _SCORER_NAMES[code]
    chunk, offset = _take(buf, offset, 20, path, "dims")
    feature_dim, embed_dim, n_findings, channels, n_rel = struct.unpack("<5I", chunk)

    try:
        shapes = scoring.block_shapes(scorer, feature_dim, embed_dim, n_findings, n_rel, channels)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    blocks = {}
    for name, shape in shapes.items():
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
    try:
        text = chunk.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: metadata is not UTF-8: {exc}") from None
    # "\n" is the writer's only separator; str.splitlines would also break a
    # value at "\r", "\x0c", "\u2028" and the other line boundaries it knows.
    if not text.endswith("\n"):
        raise CheckpointError(f"{path}: metadata does not end with a line break")
    lines = text[:-1].split("\n")
    metadata: dict[str, str] = {}
    for line in lines:
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"{path}: malformed metadata line {line!r}")
        metadata[key] = value
    # The writer sorts its keys; another order or a repeat would not save back the same bytes.
    if len(metadata) != len(lines) or list(metadata) != sorted(metadata):
        raise CheckpointError(f"{path}: metadata keys are not unique and sorted")

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
        model = scoring.EmbeddingModel(scorer, relations=relations, **blocks)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    # The header's dims shaped the blocks, save a distmult file's channels, which no block reads.
    if model.channels != channels:
        raise CheckpointError(f"{path}: header channels {channels} disagrees with the model's "
                              f"{model.channels}")
    return model, metadata
