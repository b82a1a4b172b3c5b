"""Embedding model and the two triple scorers.

Images are projected into the embedding space through a learned linear map of
their feature codes; findings and relations are embedding-table lookups. Two
scoring functions are provided, a trilinear product and a convolutional
scorer, each with exact analytic gradients for every parameter block.

``forward`` and ``backward`` score and differentiate a batch of B
(subject, relation) queries against all n findings at once. Training and
the gradient check (at B=1) run through them. Table inference in
``evaluate.predict_table``, where every query has the same relation, folds
the relation's share once per table instead (one (n, D) map for distmult,
one constant projection term for conve), and is tested against
``forward``. The single-triple scorers ``score_distmult``,
``score_conve`` and ``conve_pipeline``, with ``embed_subject``, are the
reference they are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .kg import RelationKind

KERNEL_SIZE = 5

SCORER_KINDS = ("distmult", "conve")


def _reshape_side(embed_dim: int) -> int:
    """Side length k with k*k = embed_dim, as required by the conv scorer."""
    k = math.isqrt(embed_dim)
    if k * k != embed_dim:
        raise ValueError(f"embedding dim {embed_dim} is not a perfect square")
    if k < KERNEL_SIZE:
        raise ValueError(
            f"embedding dim {embed_dim} reshapes to side {k}, smaller than the "
            f"{KERNEL_SIZE}x{KERNEL_SIZE} kernel"
        )
    return k


def block_shapes(
    scorer: str, feature_dim: int, embed_dim: int, n_findings: int, n_relations: int, channels: int
) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter block of a model, in the canonical
    order: wx, ef, er, then kernels and wc for the conv scorer.

    This is the one place that says which dims make a model; ``channels`` is
    read only for the conv scorer. Raises ValueError on dims no model has.
    """
    if scorer not in SCORER_KINDS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORER_KINDS}")
    if min(feature_dim, embed_dim, n_findings, n_relations) < 1:
        raise ValueError("dims must be positive")
    shapes = {"wx": (feature_dim, embed_dim), "ef": (n_findings, embed_dim),
              "er": (n_relations, embed_dim)}
    if scorer == "conve":
        if channels < 1:
            raise ValueError("channels must be >= 1")
        k = _reshape_side(embed_dim)
        # wc maps the flattened conv output, C planes of (2k - 4) x (k - 4), to d.
        flat = channels * (2 * k - (KERNEL_SIZE - 1)) * (k - (KERNEL_SIZE - 1))
        shapes["kernels"] = (channels, KERNEL_SIZE, KERNEL_SIZE)
        shapes["wc"] = (flat, embed_dim)
    return shapes


@dataclass
class EmbeddingModel:
    """All learnable parameters, with shapes pinned by ``block_shapes``.

    wx: (D, d) feature-to-embedding projection (no bias).
    ef: (n, d) finding embeddings; row j is the embedding of finding j.
    er: (|R|, d) relation embeddings, rows aligned with ``relations``.
    kernels / wc: convolution kernels (C, 5, 5) and the (flat, d) projection
    after the convolution; present only for the conv scorer.
    """

    scorer: str
    wx: np.ndarray
    ef: np.ndarray
    er: np.ndarray
    relations: tuple[RelationKind, ...]
    kernels: np.ndarray | None = None
    wc: np.ndarray | None = None

    def __post_init__(self):
        self.relations = tuple(self.relations)
        if not self.relations:
            raise ValueError("model must carry at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("duplicate relations")
        shapes = {}
        for name in ("wx", "ef", "er", "kernels", "wc"):
            block = getattr(self, name)
            if block is not None:
                setattr(self, name, np.asarray(block, dtype=np.float64))
                shapes[name] = np.shape(block)
        # The dims are read off wx, ef and kernels; the table then pins every shape.
        wx, ef, kernels = (shapes.get(name, ()) for name in ("wx", "ef", "kernels"))
        if len(wx) != 2 or not ef:
            raise ValueError(f"wx must be 2-D and ef at least 1-D, got {wx} and {ef}")
        expected = block_shapes(self.scorer, *wx, ef[0], len(self.relations), (*kernels, 0)[0])
        if shapes != expected:
            raise ValueError(f"{self.scorer} blocks have shapes {shapes}, expected {expected}")
        for name, block in self.blocks().items():
            if not np.all(np.isfinite(block)):
                raise ValueError(f"non-finite values in block {name}")

    @property
    def feature_dim(self) -> int:
        return self.wx.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.wx.shape[1]

    @property
    def n_findings(self) -> int:
        return self.ef.shape[0]

    @property
    def channels(self) -> int:
        return 0 if self.kernels is None else self.kernels.shape[0]

    @property
    def reshape_side(self) -> int:
        return _reshape_side(self.embed_dim)

    def relation_index(self, relation: RelationKind) -> int:
        try:
            return self.relations.index(relation)
        except ValueError:
            raise ValueError(f"model has no relation {relation.value}") from None

    def blocks(self) -> dict[str, np.ndarray]:
        """Live parameter arrays in the canonical block order."""
        named = {"wx": self.wx, "ef": self.ef, "er": self.er}
        if self.scorer == "conve":
            named["kernels"] = self.kernels
            named["wc"] = self.wc
        return named

    def copy(self) -> "EmbeddingModel":
        return EmbeddingModel(self.scorer, relations=self.relations,
                              **{name: block.copy() for name, block in self.blocks().items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingModel):
            return NotImplemented
        if (self.scorer, self.relations) != (other.scorer, other.relations):
            return False
        mine, theirs = self.blocks(), other.blocks()
        return all(np.array_equal(mine[k], theirs[k]) for k in mine)


def init_model(
    scorer: str,
    feature_dim: int,
    embed_dim: int,
    n_findings: int,
    relations: tuple[RelationKind, ...] = (RelationKind.HAS_FINDING,),
    channels: int = 8,
    seed: int | np.random.Generator = 0,
) -> EmbeddingModel:
    """Uniform initialization in [-a, a], a = sqrt(6 / (fan_in + fan_out)).

    Blocks are drawn in ``block_shapes`` order (wx, ef, er, kernels, wc) so
    the model is a deterministic function of the seed. ``seed`` may also be a
    ``np.random.Generator``; the blocks are then drawn from it, advancing it.
    """
    relations = tuple(relations)
    shapes = block_shapes(scorer, feature_dim, embed_dim, n_findings, len(relations), channels)
    rng = np.random.default_rng(seed)
    blocks = {}
    for name, shape in shapes.items():
        # Glorot fans: a kernel's fan-in is its taps, its fan-out every channel's taps.
        fan_in, fan_out = (shape[1] * shape[2], math.prod(shape)) if name == "kernels" else shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        blocks[name] = rng.uniform(-bound, bound, size=shape)
    return EmbeddingModel(scorer, relations=relations, **blocks)


def embed_subject(model: EmbeddingModel, c_x: np.ndarray) -> np.ndarray:
    """Project an image feature code into the embedding space."""
    c_x = np.asarray(c_x, dtype=np.float64)
    if c_x.shape != (model.feature_dim,):
        raise ValueError(f"feature code must have shape ({model.feature_dim},), got {c_x.shape}")
    return c_x @ model.wx


def score_distmult(e_s: np.ndarray, r_r: np.ndarray, e_o: np.ndarray) -> float:
    """Trilinear score: sum_k e_s[k] * r_r[k] * e_o[k].

    Computed as (e_s ⊙ e_o) · r_r, which is bitwise symmetric in s and o.
    """
    e_s, r_r, e_o = (np.asarray(v, dtype=np.float64) for v in (e_s, r_r, e_o))
    if not e_s.shape == r_r.shape == e_o.shape or e_s.ndim != 1:
        raise ValueError(f"dim mismatch: {e_s.shape}, {r_r.shape}, {e_o.shape}")
    return float(np.dot(e_s * e_o, r_r))


@dataclass
class ConvePipeline:
    """Intermediate activations of the conv scorer, up to the object dot.

    Shapes are for one query; ``forward`` keeps a leading batch axis on each.
    """

    stacked: np.ndarray    # (2k, k) subject reshaped on top of relation
    conv_out: np.ndarray   # (C, 2k-4, k-4) pre-activation
    flat: np.ndarray       # (C*(2k-4)*(k-4),) ReLU of conv_out, vectorized
    z2: np.ndarray         # (d,) pre-activation of the projection
    a2: np.ndarray         # (d,) ReLU of z2; score = a2 . e_o


def conve_pipeline(model: EmbeddingModel, e_s: np.ndarray, r_r: np.ndarray) -> ConvePipeline:
    """Everything before the object embedding enters: reusable across objects."""
    if model.scorer != "conve":
        raise ValueError("model is not a conv scorer")
    k = model.reshape_side
    e_s = np.asarray(e_s, dtype=np.float64)
    r_r = np.asarray(r_r, dtype=np.float64)
    if e_s.shape != (model.embed_dim,) or r_r.shape != (model.embed_dim,):
        raise ValueError("embedding dim mismatch")
    stacked = np.concatenate([e_s.reshape(k, k), r_r.reshape(k, k)], axis=0)
    conv_out = kernel.conv2d_fwd(stacked, model.kernels)
    flat = kernel.relu(conv_out).reshape(-1)
    z2 = flat @ model.wc
    a2 = kernel.relu(z2)
    return ConvePipeline(stacked, conv_out, flat, z2, a2)


def score_conve(model: EmbeddingModel, e_s: np.ndarray, r_r: np.ndarray, e_o: np.ndarray) -> float:
    """Conv score: stack, convolve, ReLU, project, ReLU, dot with the object."""
    pipe = conve_pipeline(model, e_s, r_r)
    e_o = np.asarray(e_o, dtype=np.float64)
    if e_o.shape != (model.embed_dim,):
        raise ValueError("object embedding dim mismatch")
    return float(np.dot(pipe.a2, e_o))


@dataclass
class BatchCache:
    """What ``backward`` needs from a ``forward`` pass over B queries."""

    e_s: np.ndarray                 # (B, d) subject embeddings
    ridx: np.ndarray                # (B,) relation row of each query
    h: np.ndarray                   # (B, d) psi = h @ ef.T: e_s * r (distmult), a2 (conve)
    pipe: ConvePipeline | None      # batched conv activations; None for distmult


def forward(
    model: EmbeddingModel, e_s: np.ndarray, ridx, workspace: kernel.Workspace | None = None
) -> tuple[np.ndarray, BatchCache]:
    """Scores (B, n) of B (subject, relation) queries against every finding.

    ``e_s`` holds the subject embeddings, one row per query, and ``ridx`` the
    row of ``model.er`` for each query's relation. This is ConvE's 1-N
    scoring across a batch; distmult is one elementwise product and a matmul.

    The conv scorer's batch-sized grids (slabs, conv output, its ReLU) come
    from ``workspace``, or are fresh when it is None. The cache's conv
    activations are views of them: run ``backward`` on the cache before the
    workspace's next ``forward``.
    """
    workspace = kernel.Workspace() if workspace is None else workspace
    e_s = np.asarray(e_s, dtype=np.float64)
    ridx = np.asarray(ridx, dtype=np.intp)
    if e_s.ndim != 2 or e_s.shape[1] != model.embed_dim or ridx.shape != e_s.shape[:1]:
        raise ValueError(
            f"expected e_s (B, {model.embed_dim}) and ridx (B,), got {e_s.shape} and {ridx.shape}"
        )
    r = model.er[ridx]
    pipe = None
    if model.scorer == "distmult":
        h = e_s * r
    else:
        b, k = len(e_s), model.reshape_side
        stacked = np.concatenate([e_s.reshape(b, k, k), r.reshape(b, k, k)], axis=1)
        conv_out = kernel.conv2d_fwd(stacked, model.kernels, workspace)
        flat = kernel.relu(conv_out, out=workspace.take("flat", conv_out.shape)).reshape(b, -1)
        z2 = flat @ model.wc
        h = kernel.relu(z2)
        pipe = ConvePipeline(stacked, conv_out, flat, z2, h)
    return h @ model.ef.T, BatchCache(e_s, ridx, h, pipe)


def backward(
    model: EmbeddingModel, cache: BatchCache, dpsi: np.ndarray,
    workspace: kernel.Workspace | None = None, ready=None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of sum(dpsi * psi) for the batch ``forward`` cached.

    Returns the gradients of ef, er and the conv blocks, summed over the
    batch, and dL/de_s (B, d) for the caller to route into wx (image
    subjects) or ef rows (finding subjects). The conv scorer's wc gradient
    and its batch-sized grids come from ``workspace``, or are fresh when it
    is None; the wc gradient holds until the workspace's next batch.

    ``ready(name, grad)``, when given, is offered a block's gradient as
    soon as it is final and the rest of the pass no longer reads the block;
    a block it takes (returning True) is left out of the returned
    gradients. Only conve's wc is offered: every distmult block is final
    only once dL/de_s is.
    """
    workspace = kernel.Workspace() if workspace is None else workspace
    dpsi = np.asarray(dpsi, dtype=np.float64)
    if dpsi.shape != (len(cache.e_s), model.n_findings):
        raise ValueError(f"dpsi must have shape ({len(cache.e_s)}, {model.n_findings})")
    grads = {"ef": dpsi.T @ cache.h}
    d_h = dpsi @ model.ef
    if model.scorer == "distmult":
        d_r = cache.e_s * d_h
        d_es = model.er[cache.ridx] * d_h
    else:
        pipe = cache.pipe
        # A ReLU's output is positive exactly where its input is, and the
        # contiguous outputs flat and a2 mask faster than the strided conv_out.
        d_z2 = kernel.relu_bwd(pipe.a2, d_h)
        grad_wc = np.matmul(pipe.flat.T, d_z2, out=workspace.take("grad_wc", model.wc.shape))
        d_flat = np.matmul(d_z2, model.wc.T, out=workspace.take("d_flat", pipe.flat.shape))
        if ready is None or not ready("wc", grad_wc):  # d_flat was wc's last read
            grads["wc"] = grad_wc
        d_conv = kernel.relu_bwd(pipe.flat, d_flat, out=workspace.take("d_conv", pipe.flat.shape))
        d_stacked, grads["kernels"] = kernel.conv2d_bwd(
            pipe.stacked, model.kernels, d_conv.reshape(pipe.conv_out.shape), workspace)
        k = model.reshape_side
        d_es = d_stacked[:, :k].reshape(d_h.shape)
        d_r = d_stacked[:, k:].reshape(d_h.shape)
    # One relation's rows, summed in batch order from +0.0 as np.add.at sums
    # them (at d = 1 numpy sums a single column pairwise instead).
    grads["er"] = np.empty_like(model.er)
    for r, row in enumerate(grads["er"]):
        np.add.reduce(d_r[cache.ridx == r], axis=0, initial=0.0, out=row)
    return grads, d_es

