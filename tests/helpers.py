"""Shared builders, oracles and per-item reference implementations for the test suite."""

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from radkg import AnnotationTable, ParseError, RelationKind, evaluate, kernel, scoring
from radkg.encoders import FeatureTable
from radkg.kernel import _kernel_side
from radkg.artifacts import csv_cell, data_lines as _data_lines
from radkg.kg import LABEL_TOKENS, EntityKind
from radkg.training import (
    PROB_CLAMP, _batch_gradients, _batch_losses, item_loss as _item_loss, resolve_relations,
)


def make_table(labels, groups=None, names=None, ids=None):
    """AnnotationTable from a plain nested list of label codes."""
    labels = np.asarray(labels, dtype=np.int8)
    m, n = labels.shape
    return AnnotationTable(
        image_ids=ids if ids is not None else [f"img{i}" for i in range(m)],
        finding_names=names if names is not None else [f"f{j}" for j in range(n)],
        labels=labels,
        groups=groups,
    )


def random_table(rng, m, n, uncertain=False, unmentioned=False):
    """Random annotation grid; optionally mixes in uncertain/unmentioned cells."""
    choices = [1, 0]
    if uncertain:
        choices.append(-1)
    if unmentioned:
        choices.append(-2)
    labels = rng.choice(np.array(choices, dtype=np.int8), size=(m, n))
    return make_table(labels)


def reference_split_folds(annotations, ratios, seed):
    """``kg.split``'s fold rows, from the per-group loop it replaced: each
    group, in a seeded shuffle, goes to the fold with the largest deficit
    (target minus count), a tie to the lowest fold."""
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(annotations.groups or range(annotations.m)):
        groups.setdefault(key, []).append(i)
    group_rows = list(groups.values())
    order = np.random.default_rng(seed).permutation(len(group_rows))
    targets = [r * annotations.m for r in ratios]
    counts = [0, 0, 0]
    folds = ([], [], [])
    for gi in order:
        rows = group_rows[gi]
        deficits = [targets[f] - counts[f] for f in range(3)]
        f = max(range(3), key=lambda f: (deficits[f], -f))
        folds[f].extend(rows)
        counts[f] += len(rows)
    return folds


#: ``select_features(features, ids)``: the name the acceptance tests call.
select_features = FeatureTable.select


# ---------------------------------------------------------------------------
# Oracles: a pairwise AUC, a scalar cross entropy and a relative error.
# ---------------------------------------------------------------------------


def auc_bruteforce(scores, labels) -> float | None:
    """Pairwise AUC oracle: wins plus half-ties over all pos/neg pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos_scores = scores[labels == 1]
    neg_scores = scores[labels == 0]
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        return None
    count = 0.0
    for sp in pos_scores:
        for sn in neg_scores:
            if sp > sn:
                count += 1.0
            elif sp == sn:
                count += 0.5
    return count / (len(pos_scores) * len(neg_scores))


def reference_midranks(values) -> list[float]:
    """1-based ranks, each group of equal values given the mean of the ranks
    it spans, by comparing every pair."""
    values = list(values)
    ranks = []
    for v in values:
        below = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(below + (equal + 1) / 2.0)
    return ranks


def bce_loss(p: float, y: int) -> float:
    """Binary cross entropy -y*log(p) - (1-y)*log(1-p), with p clamped away
    from exact 0/1 so the loss stays finite."""
    if y not in (0, 1):
        raise ValueError(f"target must be 0 or 1, got {y!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    p = min(max(p, PROB_CLAMP), 1.0 - PROB_CLAMP)
    return -(y * math.log(p) + (1 - y) * math.log(1.0 - p))


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Largest elementwise relative difference, floored to dodge 0/0 noise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# File readers: the per-cell feature reader and seeded byte mutations.
# ---------------------------------------------------------------------------


def reference_split_csv_line(text: str) -> list[str]:
    return next(csv.reader(io.StringIO(text)))


def reference_load_features(path) -> FeatureTable:
    """The per-cell feature reader ``load_features`` is compared with: each
    cell through ``float`` and ``math.isfinite``, rows as lists of floats,
    every line split by ``csv.reader``."""
    lines = _data_lines(path)
    try:
        header_line, header_text = next(lines)
    except StopIteration:
        raise ParseError(path, 1, "empty feature file") from None
    header = reference_split_csv_line(header_text)
    if not header or header[0] != "id":
        raise ParseError(path, header_line, f"first header column must be 'id', got {header[:1]}")
    dim = len(header) - 1
    expected = [f"f{k}" for k in range(dim)]
    if header[1:] != expected:
        raise ParseError(path, header_line, f"feature columns must be f0..f{dim - 1}")

    ids: list[str] = []
    seen: set[str] = set()
    rows: list[list[float]] = []
    for lineno, text in lines:
        cells = reference_split_csv_line(text)
        if len(cells) != dim + 1:
            raise ParseError(path, lineno, f"expected {dim + 1} columns, got {len(cells)}")
        image_id = cells[0]
        if image_id in seen:
            raise ParseError(path, lineno, f"duplicate image id {image_id!r}")
        seen.add(image_id)
        row = []
        for col, token in enumerate(cells[1:]):
            try:
                value = float(token)
            except ValueError:
                raise ParseError(path, lineno, f"non-numeric cell {token!r} in column {col + 2}") from None
            if not math.isfinite(value):
                raise ParseError(path, lineno, f"non-finite cell {token!r} in column {col + 2}")
            row.append(value)
        ids.append(image_id)
        rows.append(row)
    codes = np.asarray(rows, dtype=np.float64).reshape(len(ids), dim)
    return FeatureTable(ids, codes)


def reference_write_features(table: FeatureTable, path, comments=()) -> None:
    """The per-cell feature writer ``write_features`` is compared with: each
    cell written as ``repr(float(v))`` of its numpy scalar."""
    lines = [f"# {line}\n" for line in comments]
    lines.append(",".join(["id"] + [f"f{k}" for k in range(table.dim)]) + "\n")
    for i, image_id in enumerate(table.image_ids):
        cells = "".join("," + repr(float(v)) for v in table.codes[i])
        lines.append(csv_cell(image_id, first=True) + cells + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def reference_load_annotations(path) -> AnnotationTable:
    """The row-by-row annotation reader ``load_annotations`` is compared
    with: every line split by ``csv.reader``, every token stripped and looked
    up on its own."""
    lines = _data_lines(path)
    try:
        header_line, header_text = next(lines)
    except StopIteration:
        raise ParseError(path, 1, "empty annotation file") from None
    header = reference_split_csv_line(header_text)
    if not header or header[0] != "id":
        raise ParseError(path, header_line, f"first header column must be 'id', got {header[:1]}")
    has_group = len(header) > 2 and header[-1] == "group"
    finding_names = header[1:-1] if has_group else header[1:]
    if not finding_names:
        raise ParseError(path, header_line, "annotation header lists no findings")
    if len(set(finding_names)) != len(finding_names):
        raise ParseError(path, header_line, "finding names must be unique")
    width = 1 + len(finding_names) + (1 if has_group else 0)
    codes = {token: int(value) for token, value in LABEL_TOKENS.items()}

    ids, seen, groups, rows = [], set(), [], []
    for lineno, text in lines:
        cells = reference_split_csv_line(text)
        if len(cells) != width:
            raise ParseError(path, lineno, f"expected {width} columns, got {len(cells)}")
        image_id = cells[0]
        if image_id in seen:
            raise ParseError(path, lineno, f"duplicate image id {image_id!r}")
        seen.add(image_id)
        row = []
        for col, token in enumerate(cells[1:width - 1] if has_group else cells[1:]):
            if token.strip() not in codes:
                raise ParseError(path, lineno, f"bad label token {token!r} in column {col + 2}")
            row.append(codes[token.strip()])
        rows.append(row)
        ids.append(image_id)
        if has_group:
            groups.append(cells[-1])
    labels = np.asarray(rows, dtype=np.int8).reshape(len(ids), len(finding_names))
    return AnnotationTable(ids, finding_names, labels, groups if has_group else None)


#: Bytes a mutation draws from most of the time: the ones CSV parsing and
#: float parsing react to. The rest of the time it draws any byte.
MUTATION_BYTES = b',"#\n\r .+-_e0123456789abfinx\x00'


def mutate(data: bytes, rng) -> bytes:
    """``data`` with 1-3 bytes replaced, inserted or deleted at random."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(out) + 1))
        if rng.random() < 0.7:
            byte = MUTATION_BYTES[int(rng.integers(0, len(MUTATION_BYTES)))]
        else:
            byte = int(rng.integers(0, 256))
        op = int(rng.integers(0, 3)) if at < len(out) else 1
        if op == 0:
            out[at] = byte
        elif op == 1:
            out.insert(at, byte)
        else:
            del out[at]
    return bytes(out)


# ---------------------------------------------------------------------------
# Per-triple and per-item references for the grid-backed graph and batches.
# ---------------------------------------------------------------------------


def edges(kg):
    """Every edge of a graph as a ``(relation, subject, object)`` index tuple,
    read cell by cell from its grids."""
    return {
        (relation, s, o)
        for relation in RelationKind
        for s in range(kg.grid(relation).shape[0])
        for o in range(kg.n)
        if kg.grid(relation)[s, o]
    }


def reference_write_kg(kg, path, comments=()):
    """``write_kg`` as one line per edge tuple, sorted by the file's key."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# m = {kg.m}\n")
        fh.write(f"# n = {kg.n}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        for relation, s, o in sorted(edges(kg), key=lambda e: (e[0].value, e[1], e[2])):
            fh.write(f"{relation.subject_kind.value}:{s}\t{relation.value}\tFinding:{o}\n")


def edge_counts(path) -> dict[str, int]:
    """Edge lines per relation in a graph file, keyed by the second tab field."""
    counts: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                relation = line.split("\t")[1]
                counts[relation] = counts.get(relation, 0) + 1
    return counts


@dataclass(frozen=True)
class Item:
    """One training row: a subject index, a relation, closed-world targets
    and, for an image subject, its feature code. The relation's
    ``subject_kind`` says whether ``subject`` is an image or a finding."""

    subject: int
    relation: RelationKind
    targets: np.ndarray
    code: np.ndarray | None = None


def batch_items(batch):
    """The rows of a ``training.Batch`` as a list of ``Item``s."""
    codes = iter(batch.feature_codes[batch.subjects[batch.images]])
    return [
        Item(int(subject), relation, batch.targets[k], next(codes) if batch.images[k] else None)
        for k, (relation, subject) in enumerate(zip(batch.relations, batch.subjects))
    ]


def reference_batches(kg, features, config, epoch=0):
    """``make_batches`` built item by item from the graph's edge tuples."""
    linked = {}
    for relation, s, o in edges(kg):
        linked.setdefault((relation, s), []).append(o)
    items = []
    for relation in resolve_relations(kg, config.relations):
        if relation.subject_kind is EntityKind.IMAGE:
            subjects = [(i, features.codes[i]) for i in range(kg.m)]
        else:
            subjects = [(i, None) for i in range(kg.n)]
        for subject, code in subjects:
            targets = np.zeros(kg.n, dtype=np.float64)
            targets[linked.get((relation, subject), [])] = 1.0
            items.append(Item(subject, relation, targets, code))
    order = np.random.default_rng([config.seed, epoch]).permutation(len(items))
    shuffled = [items[k] for k in order]
    size = config.batch_size
    return [shuffled[s:s + size] for s in range(0, len(shuffled), size)]


# ---------------------------------------------------------------------------
# Per-item references for the batched engine. These are the per-item scoring
# loops, backward pass, training epoch and Adam update the engine replaced,
# kept so the batched code is differentially tested against them.
# ---------------------------------------------------------------------------


def linear_bwd(x, wm, upstream):
    """Gradients of ``upstream . (x @ wm)`` with respect to x and wm.

    Returns:
        (grad_x, grad_wm) with the shapes of x and wm.
    """
    x = np.asarray(x, dtype=np.float64)
    wm = np.asarray(wm, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (wm.shape[1],):
        raise ValueError(f"upstream shape {upstream.shape} does not match output ({wm.shape[1]},)")
    grad_x = wm @ upstream
    grad_wm = np.outer(x, upstream)
    return grad_x, grad_wm


def finite_diff_grad(scalar_fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle for a scalar function.

    Evaluates ``(f(p + h e_i) - f(p - h e_i)) / 2h`` for every coordinate of
    ``params``.  Quadratic cost in the parameter count; meant for
    verification, not training.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped.flat[i] += h
        f_plus = scalar_fn(bumped)
        bumped = params.copy()
        bumped.flat[i] -= h
        f_minus = scalar_fn(bumped)
        grad.flat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def reference_conv2d_fwd(inp: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of a single-channel 2D input with C kernels.

    Args:
        inp: (H, W) input plane, or (B, H, W) for a batch of B planes.
        kernels: (C, k, k) square kernels, applied without flipping.

    Returns:
        (C, H - k + 1, W - k + 1) output, one plane per kernel, with the
        leading batch axis kept when the input has one.
    """
    inp = np.asarray(inp, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    k = _kernel_side(inp, kernels)
    windows = sliding_window_view(inp, (k, k), axis=(-2, -1))
    # A batch goes through BLAS; a single plane keeps the direct sum.
    return np.einsum("...ijuv,cuv->...cij", windows, kernels, optimize=inp.ndim == 3)


def reference_conv2d_bwd(inp: np.ndarray, kernels: np.ndarray, upstream: np.ndarray):
    """Gradients of ``sum(upstream * conv2d_fwd(inp, kernels))``.

    Returns:
        (grad_inp, grad_kernels) with the shapes of inp and kernels; for a
        batched input the kernel gradient is summed over the batch.
    """
    inp = np.asarray(inp, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    k = _kernel_side(inp, kernels)
    ho, wo = inp.shape[-2] - k + 1, inp.shape[-1] - k + 1
    out_shape = inp.shape[:-2] + (len(kernels), ho, wo)
    if upstream.shape != out_shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match output {out_shape}")
    batched = inp.ndim == 3

    windows = sliding_window_view(inp, (k, k), axis=(-2, -1))
    if not batched:
        windows, upstream = windows[None], upstream[None]
    grad_kernels = np.einsum("bijuv,bcij->cuv", windows, upstream, optimize=batched)

    # Scatter each kernel tap back onto the input patch it touched.
    grad_inp = np.zeros((len(upstream),) + inp.shape[-2:])
    for u in range(k):
        for v in range(k):
            grad_inp[:, u:u + ho, v:v + wo] += np.einsum("c,bcij->bij", kernels[:, u, v], upstream)
    return (grad_inp if batched else grad_inp[0]), grad_kernels


def reference_init(scorer, feature_dim, embed_dim, n_findings, n_relations, channels, rng):
    """``init_model``'s blocks spelled out: Glorot-uniform draws from ``rng``
    in the order wx, ef, er, then kernels and wc for conve."""
    shapes = [(feature_dim, embed_dim), (n_findings, embed_dim), (n_relations, embed_dim)]
    fans = list(shapes)
    if scorer == "conve":
        k = math.isqrt(embed_dim)
        flat = channels * (2 * k - 4) * (k - 4)
        shapes += [(channels, 5, 5), (flat, embed_dim)]
        fans += [(25, 25 * channels), (flat, embed_dim)]
    blocks = []
    for shape, (fan_in, fan_out) in zip(shapes, fans):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        blocks.append(rng.uniform(-bound, bound, size=shape))
    return blocks


def reference_conve_pipeline(model, e_s, r_r):
    """``scoring.conve_pipeline`` with the convolution of ``reference_conv2d_fwd``."""
    k = model.reshape_side
    stacked = np.concatenate([e_s.reshape(k, k), r_r.reshape(k, k)], axis=0)
    conv_out = reference_conv2d_fwd(stacked, model.kernels)
    flat = kernel.relu(conv_out).reshape(-1)
    z2 = flat @ model.wc
    return scoring.ConvePipeline(stacked, conv_out, flat, z2, kernel.relu(z2))


def _scores_from_embedding(model, e_s, relation):
    r_r = model.er[model.relation_index(relation)]
    psi = np.empty(model.n_findings, dtype=np.float64)
    if model.scorer == "distmult":
        for j in range(model.n_findings):
            psi[j] = scoring.score_distmult(e_s, r_r, model.ef[j])
    else:
        pipe = reference_conve_pipeline(model, e_s, r_r)
        for j in range(model.n_findings):
            psi[j] = float(np.dot(pipe.a2, model.ef[j]))
    return psi


def score_all_objects(model, c_x, relation):
    """Raw scores of (image, relation, F_j) for every finding j, one
    single-triple score per finding."""
    return _scores_from_embedding(model, scoring.embed_subject(model, c_x), relation)


def score_all_objects_finding(model, i, relation):
    """Scores of (F_i, relation, F_j) for every j, for finding-subject relations."""
    return _scores_from_embedding(model, model.ef[i], relation)


def predict(model, c_x):
    """One row of ``predict_table``'s (psi, p) grids, scored by the per-finding loop."""
    psi = score_all_objects(model, c_x, RelationKind.HAS_FINDING)
    return psi, kernel.sigmoid(psi)


def reference_relu_bwd(x, upstream):
    """``kernel.relu_bwd`` as two copies: upstream, then +0.0 wherever
    x > 0 fails, NaN x included."""
    out = np.empty(np.shape(x))
    np.copyto(out, upstream)
    np.copyto(out, 0.0, where=~(np.asarray(x) > 0.0))
    return out


def reference_sigmoid(x):
    """``kernel.sigmoid`` by boolean masks: one exp per half of the input.

    Never overflows or produces NaN; saturates to exactly 0.0 or 1.0 in
    float64 for very large |x|.  Scalars in, scalar out.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    expx = np.exp(arr[~pos])
    out[~pos] = expx / (1.0 + expx)
    return float(out[0]) if scalar else out


def reference_predict_table(model, features):
    """``predict_table`` for both scorers: PREDICT_CHUNK rows per batched
    ``scoring.forward`` call, then ``reference_sigmoid``."""
    ridx = model.relation_index(RelationKind.HAS_FINDING)
    psi = np.empty((features.m, model.n_findings))
    for start in range(0, features.m, evaluate.PREDICT_CHUNK):
        codes = features.codes[start:start + evaluate.PREDICT_CHUNK]
        psi[start:start + len(codes)], _ = scoring.forward(
            model, codes @ model.wx, np.full(len(codes), ridx))
    return evaluate.Predictions(list(features.image_ids), psi, reference_sigmoid(psi))


def abs_scores(model, codes):
    """psi of (image, hasFinding, F_j) for every row of ``codes`` with every
    input and weight replaced by its absolute value and no ReLU: the sum a
    re-associated evaluation's rounding error is bounded by a multiple of."""
    r = np.abs(model.er[model.relation_index(RelationKind.HAS_FINDING)])
    e_s = np.abs(codes) @ np.abs(model.wx)
    if model.scorer == "distmult":
        return (e_s * r) @ np.abs(model.ef).T
    m, k = len(codes), model.reshape_side
    stacked = np.concatenate([e_s.reshape(m, k, k), np.broadcast_to(r.reshape(k, k), (m, k, k))], axis=1)
    flat = kernel.conv2d_fwd(stacked, np.abs(model.kernels)).reshape(m, len(model.wc))
    return flat @ np.abs(model.wc) @ np.abs(model.ef).T


#: Ids that a bare CSV cell breaks: a comma, quotes, and two that would make
#: their line read as a comment.
QUOTED_IDS = ["a,b", 'say "hi"', "#x", " #y"]


def reference_write_predictions(rows, finding_names, path, tau=None, comments=()):
    """``write_predictions`` one (image_id, p) row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        header = ["id", *finding_names]
        if tau is not None:
            header += [f"{name}_label" for name in finding_names]
        fh.write(",".join(header) + "\n")
        for image_id, p in rows:
            cells = [image_id] + [f"{v:.6f}" for v in p]
            if tau is not None:
                cells += ["1" if v > tau else "0" for v in p]
            fh.write(",".join(cells) + "\n")


def zero_grads(model):
    """Gradient accumulator: a zero array per parameter block of the model."""
    return {name: np.zeros_like(block) for name, block in model.blocks().items()}


def image_grads(model, c_x, relation, upstream):
    """Gradients of sum_j upstream[j] * psi(image, relation, F_j) from one B=1
    ``scoring.forward``/``backward`` call, with dL/de_s routed into ``wx``
    and into the feature code (key ``"c_x"``)."""
    c_x = np.asarray(c_x, dtype=np.float64)
    _, cache = scoring.forward(model, (c_x @ model.wx)[None], [model.relation_index(relation)])
    grads, d_es = scoring.backward(model, cache, np.asarray(upstream, dtype=np.float64)[None])
    grads["wx"] = np.outer(c_x, d_es[0])
    grads["c_x"] = model.wx @ d_es[0]
    return grads


def finding_grads(model, i, relation, upstream):
    """Gradients of sum_j upstream[j] * psi(F_i, relation, F_j) from one B=1
    ``scoring.forward``/``backward`` call, with dL/de_s routed into row i of
    ``ef``; ``wx`` gets zeros and there is no ``"c_x"``."""
    _, cache = scoring.forward(model, model.ef[i][None], [model.relation_index(relation)])
    grads, d_es = scoring.backward(model, cache, np.asarray(upstream, dtype=np.float64)[None])
    grads["ef"][i] += d_es[0]
    grads["wx"] = np.zeros_like(model.wx)
    return grads


def reference_grads_from_embedding(model, e_s, relation, upstream):
    """Per-item backward shared by image and finding subjects."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (model.n_findings,):
        raise ValueError(f"upstream must have shape ({model.n_findings},)")
    grads = zero_grads(model)
    ridx = model.relation_index(relation)
    r_r = model.er[ridx]
    if model.scorer == "distmult":
        pooled = upstream @ model.ef
        grads["ef"] += np.outer(upstream, e_s * r_r)
        grads["er"][ridx] += e_s * pooled
        d_es = r_r * pooled
    else:
        pipe = reference_conve_pipeline(model, e_s, r_r)
        grads["ef"] += np.outer(upstream, pipe.a2)
        d_a2 = upstream @ model.ef
        d_z2 = kernel.relu_bwd(pipe.z2, d_a2)
        d_flat, d_wc = linear_bwd(pipe.flat, model.wc, d_z2)
        grads["wc"] += d_wc
        d_conv = kernel.relu_bwd(pipe.conv_out, d_flat.reshape(pipe.conv_out.shape))
        d_stacked, d_kernels = reference_conv2d_bwd(pipe.stacked, model.kernels, d_conv)
        grads["kernels"] += d_kernels
        k = model.reshape_side
        d_es = d_stacked[:k].reshape(model.embed_dim)
        grads["er"][ridx] += d_stacked[k:].reshape(model.embed_dim)
    return grads, d_es


def reference_grad_all_objects(model, c_x, relation, upstream):
    """Per-item gradients of sum_j upstream[j] * psi(image, relation, F_j)."""
    c_x = np.asarray(c_x, dtype=np.float64)
    e_s = scoring.embed_subject(model, c_x)
    grads, d_es = reference_grads_from_embedding(model, e_s, relation, upstream)
    d_cx, d_wx = linear_bwd(c_x, model.wx, d_es)
    grads["wx"] += d_wx
    grads["c_x"] = d_cx
    return grads


def reference_grad_all_objects_finding(model, i, relation, upstream):
    """Per-item gradients of sum_j upstream[j] * psi(F_i, relation, F_j)."""
    e_s = model.ef[i].copy()
    grads, d_es = reference_grads_from_embedding(model, e_s, relation, upstream)
    grads["ef"][i] += d_es
    return grads


def reference_batch_grads(model, batch):
    """Per-item losses and the mean gradient of one ``Batch``, item by item."""
    losses = []
    accum = zero_grads(model)
    for item in batch_items(batch):
        if item.relation.subject_kind is EntityKind.IMAGE:
            psi = score_all_objects(model, item.code, item.relation)
            loss, dpsi = _item_loss(psi, item.targets)
            grads = reference_grad_all_objects(model, item.code, item.relation, dpsi)
        else:
            psi = score_all_objects_finding(model, item.subject, item.relation)
            loss, dpsi = _item_loss(psi, item.targets)
            grads = reference_grad_all_objects_finding(
                model, item.subject, item.relation, dpsi)
        losses.append(float(loss))
        for name, block in accum.items():
            block += grads[name]
    for block in accum.values():
        block *= 1.0 / len(batch)
    return losses, accum


def reference_backward(model, cache, dpsi):
    """``scoring.backward`` with each ReLU mask read off its pre-activation
    by ``reference_relu_bwd`` and the er rows summed by ``np.add.at``."""
    grads = {"ef": dpsi.T @ cache.h}
    d_h = dpsi @ model.ef
    if model.scorer == "distmult":
        d_r = cache.e_s * d_h
        d_es = model.er[cache.ridx] * d_h
    else:
        pipe = cache.pipe
        d_z2 = reference_relu_bwd(pipe.z2, d_h)
        grads["wc"] = pipe.flat.T @ d_z2
        d_flat = d_z2 @ model.wc.T
        d_conv = reference_relu_bwd(pipe.conv_out, d_flat.reshape(pipe.conv_out.shape))
        d_stacked, grads["kernels"] = kernel.conv2d_bwd(pipe.stacked, model.kernels, d_conv)
        k = model.reshape_side
        d_es = d_stacked[:, :k].reshape(d_h.shape)
        d_r = d_stacked[:, k:].reshape(d_h.shape)
    grads["er"] = np.zeros_like(model.er)
    np.add.at(grads["er"], cache.ridx, d_r)
    return grads, d_es


def batch_gradients(model, batch):
    """``training._batch_losses`` and ``_batch_gradients``, with the wx
    ``RowProduct`` computed whole."""
    losses, scored = _batch_losses(model, batch)
    grads = _batch_gradients(model, batch, scored)
    grads["wx"] = grads["wx"].rows(0, len(grads["wx"].grid))
    return losses, grads


def reference_batch_gradients(model, batch):
    """``training._batch_gradients`` through ``reference_backward``, with the
    finding-subject rows of dL/de_s added into ef by ``np.add.at``."""
    images, findings = batch.images, ~batch.images
    codes = batch.feature_codes[batch.subjects[images]]
    finding_idx = batch.subjects[findings]
    e_s = np.empty((len(batch), model.embed_dim))
    e_s[images] = codes @ model.wx
    e_s[findings] = model.ef[finding_idx]
    ridx = [model.relation_index(relation) for relation in batch.relations]
    psi, cache = scoring.forward(model, e_s, ridx)
    losses, dpsi = _item_loss(psi, batch.targets)
    grads, d_es = reference_backward(model, cache, dpsi)
    grads["wx"] = codes.T @ d_es[images]
    np.add.at(grads["ef"], finding_idx, d_es[findings])
    for block in grads.values():
        block *= 1.0 / len(batch)
    return losses, grads


def reference_train_epoch(model, batches, optimizer):
    """One epoch scored and differentiated one item at a time."""
    losses = []
    for batch in batches:
        batch_losses, grads = reference_batch_grads(model, batch)
        losses += batch_losses
        optimizer.step(model.blocks(), grads)
    return model, (float(np.mean(losses)) if losses else 0.0)


class TextbookAdam:
    """Adam with bias correction, written as the textbook formula."""

    def __init__(self, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.moment1 = {}
        self.moment2 = {}

    def step(self, params, grads):
        self.t += 1
        for name, block in params.items():
            g = grads[name]
            if name not in self.moment1:
                self.moment1[name] = np.zeros_like(block)
                self.moment2[name] = np.zeros_like(block)
            m = self.moment1[name]
            v = self.moment2[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            block -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def pin_cpus_and_blas(monkeypatch, cpus, env):
    """The CPUs ``kernel.Lanes`` sees, and the BLAS thread variables it reads."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
