"""Differential tests of the batched scoring engine against the per-item reference.

``scoring.forward``/``scoring.backward`` and the training and inference paths
built on them must agree with the single-triple scorers and with the per-item
backward pass, training epoch and Adam update kept in ``helpers``.
"""

import numpy as np
import pytest

from helpers import (
    TextbookAdam,
    batch_items,
    make_table,
    reference_batch_grads,
    reference_train_epoch,
)

from radkg import (
    FeatureTable,
    RelationKind,
    TrainConfig,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    cooccurrence_matrix,
    evaluate,
    init_model,
    load_checkpoint,
    make_batches,
    predict,
    predict_table,
    save_checkpoint,
    score_conve,
    score_distmult,
    train_epoch,
)
from radkg.kernel import conv2d_bwd, conv2d_fwd, max_relative_error
from radkg.scoring import backward, forward
from radkg.training import Adam, _batch_gradients

RELATIONS = (RelationKind.HAS_FINDING, RelationKind.PROBABLY_HAS_FINDING,
             RelationKind.CO_OCCURS)
SEPARATE = UncertainPolicy.AS_SEPARATE_RELATION
CASES = [("distmult", 1), ("conve", 1), ("conve", 8)]
SEEDS = range(4)


def random_problem(scorer, channels, seed):
    """Random shapes; graph with hasFinding, probablyHasFinding and coOccurs
    items; a batch size that leaves a short last batch."""
    rng = np.random.default_rng([seed, channels])
    m, n = int(rng.integers(8, 16)), int(rng.integers(3, 7))
    dim = int(rng.integers(3, 12))
    embed_dim = int(rng.integers(2, 12)) if scorer == "distmult" else int(rng.choice([25, 36]))
    labels = rng.choice(np.array([1, 0, -1], dtype=np.int8), size=(m, n))
    table = make_table(labels)
    features = FeatureTable(list(table.image_ids), rng.normal(size=(m, dim)))
    graph = build_radkg(table, SEPARATE)
    graph = add_cooccurrence(graph, cooccurrence_matrix(table, SEPARATE), threshold=0.0)
    items = 2 * m + n
    batch_size = next(b for b in range(int(rng.integers(3, 9)), items) if items % b)
    config = TrainConfig(learning_rate=0.01, batch_size=batch_size, seed=seed,
                         policy=SEPARATE, relations=RELATIONS)
    model = init_model(scorer, dim, embed_dim, n, relations=RELATIONS,
                       channels=channels, seed=seed)
    return model, graph, features, config


def test_problem_mixes_relations_with_a_short_last_batch():
    for scorer, channels in CASES:
        for seed in SEEDS:
            model, graph, features, config = random_problem(scorer, channels, seed)
            batches = [batch_items(b) for b in make_batches(graph, features, config)]
            items = [item for batch in batches for item in batch]
            assert {item.relation for item in items} == set(RELATIONS)
            assert len(items) % config.batch_size
            assert any(len({item.relation for item in batch}) == 3 for batch in batches)


@pytest.mark.parametrize("scorer,channels", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_forward_matches_triple_loop(scorer, channels, seed):
    model, *_ = random_problem(scorer, channels, seed)
    rng = np.random.default_rng(seed)
    batch = int(rng.integers(1, 20))
    e_s = rng.normal(size=(batch, model.embed_dim))
    ridx = rng.integers(0, len(RELATIONS), size=batch)
    psi, _ = forward(model, e_s, ridx)
    oracle = np.empty_like(psi)
    for b in range(batch):
        r_r = model.er[ridx[b]]
        for j in range(model.n_findings):
            if scorer == "distmult":
                oracle[b, j] = score_distmult(e_s[b], r_r, model.ef[j])
            else:
                oracle[b, j] = score_conve(model, e_s[b], r_r, model.ef[j])
    assert max_relative_error(psi, oracle, floor=1e-12) < 1e-12


@pytest.mark.parametrize("scorer,channels", CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_batch_gradients_match_per_item_backward(scorer, channels, seed):
    """Every block, with dL/de_s routed into wx and into ef rows."""
    model, graph, features, config = random_problem(scorer, channels, seed)
    for batch in make_batches(graph, features, config):
        losses, grads = _batch_gradients(model, batch)
        reference_losses, reference = reference_batch_grads(model, batch)
        assert grads.keys() == reference.blocks().keys()
        for name, block in reference.blocks().items():
            assert max_relative_error(grads[name], block, floor=1e-12) < 1e-10, name
        assert max_relative_error(losses, reference_losses, floor=1e-12) < 1e-12


@pytest.mark.parametrize("scorer,channels", CASES)
def test_train_epoch_matches_per_item_epoch(scorer, channels):
    for seed in SEEDS:
        model, graph, features, config = random_problem(scorer, channels, seed)
        batches = make_batches(graph, features, config)
        reference = model.copy()
        _, loss = train_epoch(model, batches, config, Adam(config.learning_rate))
        _, reference_loss = reference_train_epoch(
            reference, batches, TextbookAdam(config.learning_rate))
        for name, block in reference.blocks().items():
            assert max_relative_error(model.blocks()[name], block, floor=1e-12) < 1e-10, name
        assert abs(loss - reference_loss) <= 1e-12 * abs(reference_loss)


def test_backward_is_linear_in_dpsi():
    model, *_ = random_problem("conve", 8, 0)
    rng = np.random.default_rng(1)
    e_s = rng.normal(size=(5, model.embed_dim))
    _, cache = forward(model, e_s, [0, 1, 2, 0, 1])
    dpsi = rng.normal(size=(5, model.n_findings))
    one, d_one = backward(model, cache, dpsi)
    three, d_three = backward(model, cache, 3.0 * dpsi)
    for name in one:
        assert np.allclose(3.0 * one[name], three[name], rtol=1e-12, atol=0)
    assert np.allclose(3.0 * d_one, d_three, rtol=1e-12, atol=0)


def test_forward_and_backward_reject_bad_shapes():
    model, *_ = random_problem("distmult", 1, 0)
    e_s = np.zeros((3, model.embed_dim))
    with pytest.raises(ValueError):
        forward(model, e_s[:, :-1], [0, 0, 0])
    with pytest.raises(ValueError):
        forward(model, e_s, [0, 0])
    _, cache = forward(model, e_s, [0, 1, 2])
    with pytest.raises(ValueError):
        backward(model, cache, np.zeros((2, model.n_findings)))


@pytest.mark.parametrize("scorer,channels", CASES)
def test_predict_table_matches_per_row_predict(monkeypatch, scorer, channels):
    model, _, features, _ = random_problem(scorer, channels, 5)
    monkeypatch.setattr(evaluate, "PREDICT_CHUNK", 4)  # several chunks, a short last one
    assert features.m % evaluate.PREDICT_CHUNK
    rows = predict_table(model, features)
    assert [row.image_id for row in rows] == features.image_ids
    for i, row in enumerate(rows):
        single = predict(model, features.codes[i], features.image_ids[i])
        assert max_relative_error(row.psi, single.psi, floor=1e-12) < 1e-12
        assert max_relative_error(row.p, single.p, floor=1e-12) < 1e-12
    assert predict_table(model, FeatureTable([], np.zeros((0, features.dim)))) == []


def test_batched_conv_matches_per_plane_loop():
    """Within 1e-12 of the largest magnitude: the batch sums in another order."""
    rng = np.random.default_rng(3)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    for channels in (1, 8):
        kernels = rng.normal(size=(channels, 5, 5))
        planes = rng.normal(size=(6, 10, 7))
        out = conv2d_fwd(planes, kernels)
        assert out.shape == (6, channels, 6, 3)
        upstream = rng.normal(size=out.shape)
        grad_inp, grad_kernels = conv2d_bwd(planes, kernels, upstream)
        per_plane = [conv2d_bwd(planes[b], kernels, upstream[b]) for b in range(6)]
        for b in range(6):
            assert close(out[b], conv2d_fwd(planes[b], kernels))
            assert close(grad_inp[b], per_plane[b][0])
        assert close(grad_kernels, sum(grads for _, grads in per_plane))


@pytest.mark.parametrize("scorer,channels", [("distmult", 1), ("conve", 8)])
def test_repeated_epochs_give_byte_identical_checkpoints(tmp_path, scorer, channels):
    blobs = []
    for run in range(2):
        model, graph, features, config = random_problem(scorer, channels, 7)
        optimizer = Adam(config.learning_rate)
        for epoch in range(3):
            train_epoch(model, make_batches(graph, features, config, epoch), config, optimizer)
        path = tmp_path / f"run{run}.rkg"
        save_checkpoint(model, path)
        assert load_checkpoint(path)[0] == model
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
