"""Embedding model and the two triple scorers.

Images are projected into the embedding space through a learned linear map of
their feature codes; findings and relations are embedding-table lookups. Two
scoring functions are provided, a trilinear product and a convolutional
scorer, each with exact analytic gradients for every parameter block.

``forward`` and ``backward`` score and differentiate a batch of B
(subject, relation) queries against all n findings at once; training,
``predict_table`` and the gradient check all run through them. The single-triple
scorers (``score_distmult``, ``score_conve``, ``conve_pipeline``) and the
``score_all_objects*`` loops are the reference they are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def conve_flat_size(embed_dim: int, channels: int) -> int:
    """Length of the vectorized convolution output for the conv scorer."""
    k = _reshape_side(embed_dim)
    return channels * (2 * k - (KERNEL_SIZE - 1)) * (k - (KERNEL_SIZE - 1))


@dataclass
class EmbeddingModel:
    """All learnable parameters, with shapes pinned by the scorer kind.

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
        if self.scorer not in SCORER_KINDS:
            raise ValueError(f"unknown scorer {self.scorer!r}, expected one of {SCORER_KINDS}")
        self.relations = tuple(self.relations)
        if not self.relations:
            raise ValueError("model must carry at least one relation")
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("duplicate relations")
        self.wx = np.asarray(self.wx, dtype=np.float64)
        self.ef = np.asarray(self.ef, dtype=np.float64)
        self.er = np.asarray(self.er, dtype=np.float64)
        if self.wx.ndim != 2 or self.ef.ndim != 2 or self.er.ndim != 2:
            raise ValueError("wx, ef, er must be 2-D")
        d = self.wx.shape[1]
        if self.ef.shape[1] != d or self.er.shape[1] != d:
            raise ValueError("inconsistent embedding dims across blocks")
        if self.er.shape[0] != len(self.relations):
            raise ValueError(
                f"er has {self.er.shape[0]} rows for {len(self.relations)} relations"
            )
        if self.scorer == "distmult":
            if self.kernels is not None or self.wc is not None:
                raise ValueError("distmult takes no convolution blocks")
        else:
            if self.kernels is None or self.wc is None:
                raise ValueError("conve requires kernels and wc")
            self.kernels = np.asarray(self.kernels, dtype=np.float64)
            self.wc = np.asarray(self.wc, dtype=np.float64)
            if self.kernels.ndim != 3 or self.kernels.shape[1:] != (KERNEL_SIZE, KERNEL_SIZE):
                raise ValueError(f"kernels must be (C, {KERNEL_SIZE}, {KERNEL_SIZE})")
            flat = conve_flat_size(d, self.kernels.shape[0])
            if self.wc.shape != (flat, d):
                raise ValueError(f"wc shape {self.wc.shape} does not match expected ({flat}, {d})")
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
        return EmbeddingModel(
            scorer=self.scorer,
            wx=self.wx.copy(),
            ef=self.ef.copy(),
            er=self.er.copy(),
            relations=self.relations,
            kernels=None if self.kernels is None else self.kernels.copy(),
            wc=None if self.wc is None else self.wc.copy(),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, EmbeddingModel):
            return NotImplemented
        if (self.scorer, self.relations) != (other.scorer, other.relations):
            return False
        mine, theirs = self.blocks(), other.blocks()
        return all(
            mine[k].shape == theirs[k].shape and np.array_equal(mine[k], theirs[k])
            for k in mine
        )


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

    Blocks are drawn in a fixed order (wx, ef, er, kernels, wc) so the model
    is a deterministic function of the seed. ``seed`` may also be a
    ``np.random.Generator``; the blocks are then drawn from it, advancing it.
    """
    if scorer not in SCORER_KINDS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORER_KINDS}")
    if feature_dim < 1 or embed_dim < 1 or n_findings < 1:
        raise ValueError("dims must be positive")
    rng = np.random.default_rng(seed)

    def draw(shape, fan_in, fan_out):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)

    n_rel = len(tuple(relations))
    wx = draw((feature_dim, embed_dim), feature_dim, embed_dim)
    ef = draw((n_findings, embed_dim), n_findings, embed_dim)
    er = draw((n_rel, embed_dim), n_rel, embed_dim)
    kernels = wc = None
    if scorer == "conve":
        if channels < 1:
            raise ValueError("channels must be >= 1")
        flat = conve_flat_size(embed_dim, channels)
        taps = KERNEL_SIZE * KERNEL_SIZE
        kernels = draw((channels, KERNEL_SIZE, KERNEL_SIZE), taps, channels * taps)
        wc = draw((flat, embed_dim), flat, embed_dim)
    return EmbeddingModel(scorer, wx, ef, er, tuple(relations), kernels, wc)


def embed_subject(model: EmbeddingModel, c_x: np.ndarray) -> np.ndarray:
    """Project an image feature code into the embedding space."""
    c_x = np.asarray(c_x, dtype=np.float64)
    return kernel.linear_fwd(c_x, model.wx)


def embed_object(model: EmbeddingModel, j: int) -> np.ndarray:
    """Embedding of finding j: a row lookup, one-hot times the table."""
    if not 0 <= j < model.n_findings:
        raise IndexError(f"finding index {j} out of range for n={model.n_findings}")
    return model.ef[j]


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
    z2 = kernel.linear_fwd(flat, model.wc)
    a2 = kernel.relu(z2)
    return ConvePipeline(stacked, conv_out, flat, z2, a2)


def score_conve(model: EmbeddingModel, e_s: np.ndarray, r_r: np.ndarray, e_o: np.ndarray) -> float:
    """Conv score: stack, convolve, ReLU, project, ReLU, dot with the object."""
    pipe = conve_pipeline(model, e_s, r_r)
    e_o = np.asarray(e_o, dtype=np.float64)
    if e_o.shape != (model.embed_dim,):
        raise ValueError("object embedding dim mismatch")
    return float(np.dot(pipe.a2, e_o))


def _scores_from_embedding(model: EmbeddingModel, e_s: np.ndarray, relation: RelationKind) -> np.ndarray:
    r_r = model.er[model.relation_index(relation)]
    psi = np.empty(model.n_findings, dtype=np.float64)
    if model.scorer == "distmult":
        for j in range(model.n_findings):
            psi[j] = score_distmult(e_s, r_r, model.ef[j])
    else:
        pipe = conve_pipeline(model, e_s, r_r)
        for j in range(model.n_findings):
            psi[j] = float(np.dot(pipe.a2, model.ef[j]))
    return psi


def score_all_objects(model: EmbeddingModel, c_x: np.ndarray, relation: RelationKind) -> np.ndarray:
    """Raw scores of (image, relation, F_j) for every finding j.

    Each entry is arithmetically identical to the corresponding single-triple
    score; the conv pipeline before the object dot is computed once.
    """
    return _scores_from_embedding(model, embed_subject(model, c_x), relation)


def score_all_objects_finding(model: EmbeddingModel, i: int, relation: RelationKind) -> np.ndarray:
    """Scores of (F_i, relation, F_j) for every j, for finding-subject relations."""
    if relation.subject_kind.value != "Finding":
        raise ValueError(f"{relation.value} does not take Finding subjects")
    return _scores_from_embedding(model, embed_object(model, i), relation)


@dataclass
class ModelGrads:
    """Gradient accumulator shaped like the model's parameter blocks.

    ``c_x`` holds the gradient with respect to the image feature code when the
    subject was an image, else None.
    """

    wx: np.ndarray
    ef: np.ndarray
    er: np.ndarray
    kernels: np.ndarray | None = None
    wc: np.ndarray | None = None
    c_x: np.ndarray | None = None

    @classmethod
    def zeros_like(cls, model: EmbeddingModel) -> "ModelGrads":
        return cls(
            wx=np.zeros_like(model.wx),
            ef=np.zeros_like(model.ef),
            er=np.zeros_like(model.er),
            kernels=None if model.kernels is None else np.zeros_like(model.kernels),
            wc=None if model.wc is None else np.zeros_like(model.wc),
        )

    def blocks(self) -> dict[str, np.ndarray]:
        named = {"wx": self.wx, "ef": self.ef, "er": self.er}
        if self.kernels is not None:
            named["kernels"] = self.kernels
            named["wc"] = self.wc
        return named

    def add(self, other: "ModelGrads") -> None:
        for name, block in self.blocks().items():
            block += other.blocks()[name]

    def scale(self, factor: float) -> None:
        for block in self.blocks().values():
            block *= factor


@dataclass
class BatchCache:
    """What ``backward`` needs from a ``forward`` pass over B queries."""

    e_s: np.ndarray                 # (B, d) subject embeddings
    ridx: np.ndarray                # (B,) relation row of each query
    h: np.ndarray                   # (B, d) psi = h @ ef.T: e_s * r (distmult), a2 (conve)
    pipe: ConvePipeline | None      # batched conv activations; None for distmult


def forward(model: EmbeddingModel, e_s: np.ndarray, ridx) -> tuple[np.ndarray, BatchCache]:
    """Scores (B, n) of B (subject, relation) queries against every finding.

    ``e_s`` holds the subject embeddings, one row per query, and ``ridx`` the
    row of ``model.er`` for each query's relation. This is ConvE's 1-N
    scoring across a batch; distmult is one elementwise product and a matmul.
    """
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
        conv_out = kernel.conv2d_fwd(stacked, model.kernels)
        flat = kernel.relu(conv_out).reshape(b, -1)
        z2 = flat @ model.wc
        h = kernel.relu(z2)
        pipe = ConvePipeline(stacked, conv_out, flat, z2, h)
    return h @ model.ef.T, BatchCache(e_s, ridx, h, pipe)


def backward(
    model: EmbeddingModel, cache: BatchCache, dpsi: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Gradients of sum(dpsi * psi) for the batch ``forward`` cached.

    Returns the gradients of ef, er and the conv blocks, summed over the
    batch, and dL/de_s (B, d) for the caller to route into wx (image
    subjects) or ef rows (finding subjects).
    """
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
        d_z2 = kernel.relu_bwd(pipe.z2, d_h)
        grads["wc"] = pipe.flat.T @ d_z2
        d_flat = d_z2 @ model.wc.T
        d_conv = kernel.relu_bwd(pipe.conv_out, d_flat.reshape(pipe.conv_out.shape))
        d_stacked, grads["kernels"] = kernel.conv2d_bwd(pipe.stacked, model.kernels, d_conv)
        k = model.reshape_side
        d_es = d_stacked[:, :k].reshape(d_h.shape)
        d_r = d_stacked[:, k:].reshape(d_h.shape)
    grads["er"] = np.zeros_like(model.er)
    np.add.at(grads["er"], cache.ridx, d_r)
    return grads, d_es


def _backward_one(
    model: EmbeddingModel, e_s: np.ndarray, relation: RelationKind, upstream: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """``backward`` for a single query: block gradients and dL/de_s (d,)."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (model.n_findings,):
        raise ValueError(f"upstream must have shape ({model.n_findings},)")
    _, cache = forward(model, e_s[None], [model.relation_index(relation)])
    grads, d_es = backward(model, cache, upstream[None])
    return grads, d_es[0]


def grad_all_objects(
    model: EmbeddingModel,
    c_x: np.ndarray,
    relation: RelationKind,
    upstream: np.ndarray,
) -> ModelGrads:
    """Gradients of sum_j upstream[j] * psi(image, relation, F_j)."""
    c_x = np.asarray(c_x, dtype=np.float64)
    grads, d_es = _backward_one(model, embed_subject(model, c_x), relation, upstream)
    d_cx, d_wx = kernel.linear_bwd(c_x, model.wx, d_es)
    return ModelGrads(wx=d_wx, c_x=d_cx, **grads)


def grad_all_objects_finding(
    model: EmbeddingModel,
    i: int,
    relation: RelationKind,
    upstream: np.ndarray,
) -> ModelGrads:
    """Gradients of sum_j upstream[j] * psi(F_i, relation, F_j)."""
    grads, d_es = _backward_one(model, embed_object(model, i), relation, upstream)
    grads["ef"][i] += d_es
    return ModelGrads(wx=np.zeros_like(model.wx), **grads)


def grad_score(
    model: EmbeddingModel,
    c_x: np.ndarray,
    relation: RelationKind,
    j: int,
    upstream: float = 1.0,
) -> ModelGrads:
    """Gradients of upstream * psi(image, relation, F_j) for a single triple."""
    if not 0 <= j < model.n_findings:
        raise IndexError(f"finding index {j} out of range for n={model.n_findings}")
    one_hot = np.zeros(model.n_findings, dtype=np.float64)
    one_hot[j] = float(upstream)
    return grad_all_objects(model, c_x, relation, one_hot)
