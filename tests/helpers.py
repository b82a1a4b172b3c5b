"""Shared builders and per-item reference implementations for the test suite."""

from dataclasses import dataclass

import numpy as np

from radkg import AnnotationTable, EntityId, FeatureTable, RelationKind, kernel, scoring
from radkg.kg import EntityKind
from radkg.training import _item_loss, resolve_relations


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


def select_features(features: FeatureTable, ids) -> FeatureTable:
    index = {image_id: i for i, image_id in enumerate(features.image_ids)}
    return FeatureTable(list(ids), features.codes[[index[i] for i in ids]])


# ---------------------------------------------------------------------------
# Per-triple and per-item references for the grid-backed graph and batches.
# ---------------------------------------------------------------------------


def reference_write_kg(kg, path, comments=()):
    """``write_kg`` as one line per ``Triple``, sorted by the file's key."""
    ordered = sorted(
        kg.triples,
        key=lambda t: (t.relation.value, t.subject.kind.value, t.subject.index, t.obj.index),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# m = {kg.m}\n")
        fh.write(f"# n = {kg.n}\n")
        for line in comments:
            fh.write(f"# {line}\n")
        for t in ordered:
            fh.write(f"{t}\n")


@dataclass(frozen=True)
class Item:
    """One training row: a subject, a relation, closed-world targets and,
    for an image subject, its feature code."""

    subject: EntityId
    relation: RelationKind
    targets: np.ndarray
    code: np.ndarray | None = None


def batch_items(batch):
    """The rows of a ``training.Batch`` as a list of ``Item``s."""
    codes = iter(batch.feature_codes[batch.subjects[batch.images]])
    return [
        Item(EntityId(relation.subject_kind, int(subject)), relation, batch.targets[k],
             next(codes) if batch.images[k] else None)
        for k, (relation, subject) in enumerate(zip(batch.relations, batch.subjects))
    ]


def reference_batches(kg, features, config, epoch=0):
    """``make_batches`` built item by item from the graph's triples."""
    linked = {}
    for t in kg.triples:
        linked.setdefault((t.relation, t.subject), []).append(t.obj.index)
    items = []
    for relation in resolve_relations(kg, config.relations):
        if relation.subject_kind is EntityKind.IMAGE:
            subjects = [(EntityId.image(i), features.codes[i]) for i in range(kg.m)]
        else:
            subjects = [(EntityId.finding(i), None) for i in range(kg.n)]
        for subject, code in subjects:
            targets = np.zeros(kg.n, dtype=np.float64)
            targets[linked.get((relation, subject), [])] = 1.0
            items.append(Item(subject, relation, targets, code))
    order = np.random.default_rng([config.seed, epoch]).permutation(len(items))
    shuffled = [items[k] for k in order]
    size = config.batch_size
    return [shuffled[s:s + size] for s in range(0, len(shuffled), size)]


# ---------------------------------------------------------------------------
# Per-item references for the batched engine. These are the per-item backward
# pass, training epoch and Adam update the engine replaced, kept verbatim so
# the batched code is differentially tested against them.
# ---------------------------------------------------------------------------


def reference_grads_from_embedding(model, e_s, relation, upstream):
    """Per-item backward shared by image and finding subjects."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (model.n_findings,):
        raise ValueError(f"upstream must have shape ({model.n_findings},)")
    grads = scoring.ModelGrads.zeros_like(model)
    ridx = model.relation_index(relation)
    r_r = model.er[ridx]
    if model.scorer == "distmult":
        pooled = upstream @ model.ef
        grads.ef += np.outer(upstream, e_s * r_r)
        grads.er[ridx] += e_s * pooled
        d_es = r_r * pooled
    else:
        pipe = scoring.conve_pipeline(model, e_s, r_r)
        grads.ef += np.outer(upstream, pipe.a2)
        d_a2 = upstream @ model.ef
        d_z2 = kernel.relu_bwd(pipe.z2, d_a2)
        d_flat, d_wc = kernel.linear_bwd(pipe.flat, model.wc, d_z2)
        grads.wc += d_wc
        d_conv = kernel.relu_bwd(pipe.conv_out, d_flat.reshape(pipe.conv_out.shape))
        d_stacked, d_kernels = kernel.conv2d_bwd(pipe.stacked, model.kernels, d_conv)
        grads.kernels += d_kernels
        k = model.reshape_side
        d_es = d_stacked[:k].reshape(model.embed_dim)
        grads.er[ridx] += d_stacked[k:].reshape(model.embed_dim)
    return grads, d_es


def reference_grad_all_objects(model, c_x, relation, upstream):
    """Per-item gradients of sum_j upstream[j] * psi(image, relation, F_j)."""
    c_x = np.asarray(c_x, dtype=np.float64)
    e_s = scoring.embed_subject(model, c_x)
    grads, d_es = reference_grads_from_embedding(model, e_s, relation, upstream)
    d_cx, d_wx = kernel.linear_bwd(c_x, model.wx, d_es)
    grads.wx += d_wx
    grads.c_x = d_cx
    return grads


def reference_grad_all_objects_finding(model, i, relation, upstream):
    """Per-item gradients of sum_j upstream[j] * psi(F_i, relation, F_j)."""
    e_s = scoring.embed_object(model, i).copy()
    grads, d_es = reference_grads_from_embedding(model, e_s, relation, upstream)
    grads.ef[i] += d_es
    return grads


def reference_batch_grads(model, batch):
    """Per-item losses and the mean gradient of one ``Batch``, item by item."""
    losses = []
    accum = scoring.ModelGrads.zeros_like(model)
    for item in batch_items(batch):
        if item.subject.kind is EntityKind.IMAGE:
            psi = scoring.score_all_objects(model, item.code, item.relation)
            loss, dpsi = _item_loss(psi, item.targets)
            grads = reference_grad_all_objects(model, item.code, item.relation, dpsi)
        else:
            psi = scoring.score_all_objects_finding(model, item.subject.index, item.relation)
            loss, dpsi = _item_loss(psi, item.targets)
            grads = reference_grad_all_objects_finding(
                model, item.subject.index, item.relation, dpsi)
        losses.append(float(loss))
        accum.add(grads)
    accum.scale(1.0 / len(batch))
    return losses, accum


def reference_train_epoch(model, batches, optimizer):
    """One epoch scored and differentiated one item at a time."""
    losses = []
    for batch in batches:
        batch_losses, grads = reference_batch_grads(model, batch)
        losses += batch_losses
        optimizer.step(model.blocks(), grads.blocks())
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
