"""Tests for batching, loss, optimizers, the training loop, and checkpoints."""

import math

import numpy as np
import pytest

from helpers import TextbookAdam, batch_items, make_table, reference_batches, select_features

from radkg import (
    CheckpointError,
    EntityKind,
    FeatureTable,
    RelationKind,
    SyntheticSpec,
    TrainConfig,
    TrainingDivergedError,
    UncertainPolicy,
    add_cooccurrence,
    bce_loss,
    build_radkg,
    cooccurrence_matrix,
    init_model,
    load_checkpoint,
    make_batches,
    resolve_relations,
    save_checkpoint,
    split,
    synth_dataset,
    train,
    train_epoch,
)
from radkg.kernel import finite_diff_grad, max_relative_error, sigmoid
from radkg.scoring import ModelGrads, grad_all_objects, score_all_objects
from radkg.training import Adam, Sgd, _item_loss, make_optimizer

HAS = RelationKind.HAS_FINDING
PROB = RelationKind.PROBABLY_HAS_FINDING
CO = RelationKind.CO_OCCURS


def tiny_problem(m=6, n=3, dim=4, uncertain=False, policy=UncertainPolicy.AS_POSITIVE):
    rng = np.random.default_rng(77)
    labels = rng.integers(0, 2, size=(m, n)).astype(np.int8)
    if uncertain:
        labels[0, 0] = -1
    table = make_table(labels.tolist())
    features = FeatureTable(list(table.image_ids), rng.normal(size=(m, dim)))
    kg = build_radkg(table, policy)
    return table, features, kg


# ---------------------------------------------------------------- loss


def test_bce_known_values():
    assert abs(bce_loss(0.9, 0) - 2.302585092994046) < 1e-15
    assert abs(bce_loss(0.5, 1) - math.log(2.0)) < 1e-15
    assert bce_loss(1.0, 1) == pytest.approx(0.0, abs=1e-11)


def test_bce_clamp_keeps_loss_finite():
    assert math.isfinite(bce_loss(0.0, 1))
    assert abs(bce_loss(0.0, 1) - (-math.log(1e-12))) < 1e-9
    assert math.isfinite(bce_loss(1.0, 0))


def test_bce_validation():
    with pytest.raises(ValueError):
        bce_loss(0.5, 2)
    with pytest.raises(ValueError):
        bce_loss(1.5, 1)


def test_item_loss_gradient_is_mean_residual():
    psi = np.array([0.3, -1.2, 2.0])
    targets = np.array([1.0, 0.0, 1.0])
    loss, dpsi = _item_loss(psi, targets)
    assert np.array_equal(dpsi, (sigmoid(psi) - targets) / 3.0)
    expected = np.mean([bce_loss(float(sigmoid(v)), int(t))
                        for v, t in zip(psi, targets)])
    assert abs(loss - expected) < 1e-12


# ---------------------------------------------------------------- batching


def test_make_batches_closed_world_targets():
    table, features, kg = tiny_problem()
    config = TrainConfig(batch_size=4, seed=1)
    batches = make_batches(kg, features, config)
    items = [item for batch in batches for item in batch_items(batch)]
    assert len(items) == table.m  # one item per image for hasFinding
    for item in items:
        i = item.subject.index
        expected = (table.labels[i] == 1).astype(np.float64)
        assert np.array_equal(item.targets, expected)
        assert np.array_equal(item.code, features.codes[i])
    assert all(len(b) <= 4 for b in batches)


def test_make_batches_deterministic_and_epoch_dependent():
    _, features, kg = tiny_problem()
    config = TrainConfig(batch_size=2, seed=3)
    a = make_batches(kg, features, config, epoch=1)
    b = make_batches(kg, features, config, epoch=1)
    c = make_batches(kg, features, config, epoch=2)
    order = lambda bs: [str(item.subject) for batch in bs for item in batch_items(batch)]
    assert order(a) == order(b)
    assert order(a) != order(c)


def test_make_batches_separate_relation_targets():
    table, features, kg = tiny_problem(uncertain=True,
                                       policy=UncertainPolicy.AS_SEPARATE_RELATION)
    config = TrainConfig(batch_size=100, seed=0)
    items = [it for b in make_batches(kg, features, config) for it in batch_items(b)]
    has_items = [it for it in items if it.relation is HAS]
    prob_items = [it for it in items if it.relation is PROB]
    assert len(has_items) == table.m and len(prob_items) == table.m
    by_idx = {it.subject.index: it for it in prob_items}
    # only the uncertain cell is a probablyHasFinding positive
    assert by_idx[0].targets[0] == 1.0
    assert by_idx[0].targets.sum() == 1.0
    assert all(by_idx[i].targets.sum() == 0.0 for i in range(1, table.m))


def test_make_batches_cooccur_items_have_no_code():
    table, features, kg = tiny_problem()
    kg = add_cooccurrence(kg, cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE))
    config = TrainConfig(batch_size=100, seed=0)
    items = [it for b in make_batches(kg, features, config) for it in batch_items(b)]
    co_items = [it for it in items if it.relation is CO]
    assert len(co_items) == table.n
    assert all(it.code is None for it in co_items)
    assert all(it.subject.kind is EntityKind.FINDING for it in co_items)


@pytest.mark.parametrize("seed", range(4))
def test_make_batches_rows_match_per_item_reference(seed):
    """Same rows, targets, codes, order and batch cuts as building the items
    one by one from the triples, for all three relations."""
    rng = np.random.default_rng([seed, 31])
    m, n = int(rng.integers(5, 20)), int(rng.integers(2, 7))
    table = make_table(rng.choice(np.array([1, 0, -1, -2], dtype=np.int8), size=(m, n)))
    features = FeatureTable(list(table.image_ids), rng.normal(size=(m, 3)))
    policy = UncertainPolicy.AS_SEPARATE_RELATION
    kg = build_radkg(table, policy)
    kg = add_cooccurrence(kg, cooccurrence_matrix(table, policy), threshold=0.0)
    for relations in (None, (HAS, PROB, CO), (CO, HAS)):
        config = TrainConfig(batch_size=int(rng.integers(1, 9)), seed=seed, relations=relations)
        for epoch in (0, 1, 2):
            batches = make_batches(kg, features, config, epoch)
            reference = reference_batches(kg, features, config, epoch)
            assert [len(b) for b in batches] == [len(b) for b in reference]
            for batch, expected in zip(batches, reference):
                for got, item in zip(batch_items(batch), expected):
                    assert (got.subject, got.relation) == (item.subject, item.relation)
                    assert got.targets.dtype == np.float64
                    assert np.array_equal(got.targets, item.targets)
                    if item.code is None:
                        assert got.code is None
                    else:
                        assert np.array_equal(got.code, item.code)


def test_make_batches_rejects_misaligned_features():
    _, features, kg = tiny_problem()
    short = FeatureTable(features.image_ids[:-1], features.codes[:-1])
    with pytest.raises(ValueError):
        make_batches(kg, short, TrainConfig())


def test_resolve_relations():
    table, _, kg = tiny_problem()
    assert resolve_relations(kg, None) == (HAS,)
    cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    assert resolve_relations(add_cooccurrence(kg, cond), None) == (HAS, CO)
    assert resolve_relations(kg, (HAS, PROB)) == (HAS, PROB)


# ---------------------------------------------------------------- optimizers


def test_sgd_step():
    params = {"w": np.array([1.0, 2.0])}
    Sgd(0.5).step(params, {"w": np.array([2.0, -2.0])})
    assert np.array_equal(params["w"], np.array([0.0, 3.0]))


def test_adam_first_step_is_signed_learning_rate():
    """With bias correction the first update is lr * sign(grad) up to eps."""
    params = {"w": np.array([1.0, 1.0, 1.0])}
    Adam(0.1).step(params, {"w": np.array([3.0, -0.04, 0.0])})
    assert np.allclose(params["w"], [0.9, 1.1, 1.0], atol=1e-6)


def test_adam_state_persists_across_steps():
    opt = Adam(0.1)
    params = {"w": np.zeros(1)}
    opt.step(params, {"w": np.ones(1)})
    opt.step(params, {"w": np.ones(1)})
    assert opt.t == 2
    assert params["w"][0] < -0.19  # two near-full steps in the same direction


@pytest.mark.parametrize("learning_rate", [1e-3, 0.05, 0.0])
def test_adam_is_bit_identical_to_textbook_formula(rng, learning_rate):
    shapes = {"wx": (17, 9), "ef": (5, 9), "er": (3, 9), "kernels": (2, 5, 5)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    reference = {name: block.copy() for name, block in params.items()}
    fast, textbook = Adam(learning_rate), TextbookAdam(learning_rate)
    for _ in range(50):
        grads = {name: rng.normal(scale=rng.choice([1e-9, 1e-3, 10.0]), size=shape)
                 for name, shape in shapes.items()}
        grads["er"][0] = 0.0
        fast.step(params, grads)
        textbook.step(reference, grads)
    for name in shapes:
        assert np.array_equal(params[name], reference[name]), name
        assert np.array_equal(fast.moment1[name], textbook.moment1[name]), name
        assert np.array_equal(fast.moment2[name], textbook.moment2[name]), name


def test_make_optimizer_kinds():
    assert isinstance(make_optimizer(TrainConfig(optimizer="sgd")), Sgd)
    assert isinstance(make_optimizer(TrainConfig(optimizer="adam")), Adam)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1e-3)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="momentum")
    with pytest.raises(ValueError):
        TrainConfig(patience=-1)
    with pytest.raises(ValueError):
        TrainConfig(relations=(HAS, HAS))
    TrainConfig(learning_rate=0.0)  # zero is allowed: a frozen-model run


# ---------------------------------------------------------------- train_epoch


def test_zero_learning_rate_leaves_model_unchanged():
    _, features, kg = tiny_problem()
    for optimizer in ("sgd", "adam"):
        config = TrainConfig(learning_rate=0.0, optimizer=optimizer, seed=0)
        model = init_model("distmult", features.dim, 9, kg.n, seed=1)
        before = {k: v.copy() for k, v in model.blocks().items()}
        train_epoch(model, make_batches(kg, features, config), config)
        for name, block in model.blocks().items():
            assert np.array_equal(block, before[name]), (optimizer, name)


def test_batch_gradient_is_mean_over_items(rng):
    """The accumulated minibatch gradient matches finite differences of the
    mean per-item loss through the whole pipeline."""
    _, features, kg = tiny_problem(m=5, n=3, dim=4)
    config = TrainConfig(batch_size=5, seed=2)
    [batch] = map(batch_items, make_batches(kg, features, config))
    model = init_model("distmult", 4, 9, 3, seed=8)

    accum = ModelGrads.zeros_like(model)
    for item in batch:
        _, dpsi = _item_loss(score_all_objects(model, item.code, item.relation),
                             item.targets)
        accum.add(grad_all_objects(model, item.code, item.relation, dpsi))
    accum.scale(1.0 / len(batch))

    def batch_loss(name):
        block = model.blocks()[name]

        def fn(values):
            saved = block.copy()
            block[...] = values
            try:
                total = 0.0
                for item in batch:
                    loss, _ = _item_loss(
                        score_all_objects(model, item.code, item.relation),
                        item.targets)
                    total += loss
                return total / len(batch)
            finally:
                block[...] = saved

        return fn

    for name, grad in accum.blocks().items():
        numeric = finite_diff_grad(batch_loss(name), model.blocks()[name])
        assert max_relative_error(grad, numeric) < 1e-4, name


def test_single_item_converges():
    features = FeatureTable(["img0"], np.array([[1.0, -0.5, 0.25, 2.0]]))
    table = make_table([[1, 0, 0]], ids=["img0"])
    kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
    config = TrainConfig(learning_rate=0.05, batch_size=1, seed=0)
    model = init_model("distmult", 4, 9, 3, seed=0)
    optimizer = make_optimizer(config)
    loss = math.inf
    for epoch in range(300):
        batches = make_batches(kg, features, config, epoch=epoch)
        _, loss = train_epoch(model, batches, config, optimizer)
    assert loss < 1e-2


def test_train_epoch_flags_divergence():
    _, features, kg = tiny_problem()
    config = TrainConfig(seed=0)
    model = init_model("distmult", features.dim, 9, kg.n, seed=1)
    model.wx[0, 0] = np.nan  # poisoned parameter -> NaN loss on first item
    with pytest.raises(TrainingDivergedError):
        train_epoch(model, make_batches(kg, features, config), config)


# ---------------------------------------------------------------- train loop


def synth_folds(seed=0, m=80, uncertain=0.0):
    features, annotations = synth_dataset(
        SyntheticSpec(m=m, n=4, dim=8, noise_scale=0.3, seed=seed,
                      uncertain_fraction=uncertain))
    train_ann, val_ann, _ = split(annotations, (0.6, 0.2, 0.2), seed=1)
    return (
        select_features(features, train_ann.image_ids), train_ann,
        select_features(features, val_ann.image_ids), val_ann,
    )


def test_train_returns_best_validation_model():
    tr_feat, tr_ann, va_feat, va_ann = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    config = TrainConfig(learning_rate=0.01, epochs=8, batch_size=16, seed=0,
                         patience=8)
    model = init_model("distmult", 8, 16, 4, seed=0)
    best, history = train(model, kg, tr_feat, (va_feat, va_ann), config)
    assert 1 <= len(history) <= 8
    from radkg.evaluate import macro_auc, predict
    rows = [predict(best, va_feat.codes[i], va_feat.image_ids[i])
            for i in range(va_feat.m)]
    recomputed = macro_auc(rows, va_ann, UncertainPolicy.AS_POSITIVE).macro
    assert recomputed == max(h["val_auc"] for h in history)


def test_train_is_deterministic():
    tr_feat, tr_ann, va_feat, va_ann = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    config = TrainConfig(learning_rate=0.01, epochs=3, batch_size=16, seed=5)
    runs = []
    for _ in range(2):
        model = init_model("distmult", 8, 16, 4, seed=2)
        best, history = train(model, kg, tr_feat, (va_feat, va_ann), config)
        runs.append((best, history))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_train_rejects_fold_overlap():
    tr_feat, tr_ann, *_ = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    model = init_model("distmult", 8, 16, 4, seed=0)
    with pytest.raises(ValueError):
        train(model, kg, tr_feat, (tr_feat, tr_ann), TrainConfig())


def test_divergence_names_epoch_batch_and_item():
    tr_feat, tr_ann, va_feat, va_ann = synth_folds()
    graph = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    config = TrainConfig(epochs=3, batch_size=16, seed=0, patience=3)
    model = init_model("distmult", 8, 16, 4, seed=0)
    batches = [batch_items(b) for b in make_batches(graph, tr_feat, config, epoch=1)]
    number = 1
    item, later = batches[number][5], batches[number][9]
    # Infinite feature codes make only these two items' scores non-finite.
    tr_feat.codes[[item.subject.index, later.subject.index]] = np.inf
    with pytest.raises(TrainingDivergedError) as caught, np.errstate(invalid="ignore"):
        train(model, graph, tr_feat, (va_feat, va_ann), config)
    message = str(caught.value)
    assert message.startswith("epoch 1: ")
    assert f"batch {number} " in message
    assert f"({item.subject}, {item.relation.value})" in message
    assert f"({later.subject}," not in message


def test_patience_zero_runs_exactly_one_epoch():
    tr_feat, tr_ann, va_feat, va_ann = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    config = TrainConfig(epochs=10, patience=0, seed=0)
    model = init_model("distmult", 8, 16, 4, seed=0)
    _, history = train(model, kg, tr_feat, (va_feat, va_ann), config)
    assert len(history) == 1


def test_early_stopping_halts_before_epoch_budget():
    tr_feat, tr_ann, va_feat, va_ann = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    config = TrainConfig(learning_rate=0.02, epochs=60, batch_size=16,
                         patience=2, seed=0)
    model = init_model("distmult", 8, 16, 4, seed=0)
    _, history = train(model, kg, tr_feat, (va_feat, va_ann), config)
    assert len(history) < 60


# ---------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip(tmp_path):
    for scorer, dim, channels in (("distmult", 9, 0), ("conve", 25, 2)):
        model = init_model(scorer, 6, dim, 4, relations=(HAS, CO),
                           channels=max(channels, 1), seed=13)
        path = tmp_path / f"{scorer}.rkg"
        save_checkpoint(model, path, {"note": "round trip"})
        loaded, metadata = load_checkpoint(path)
        assert loaded == model
        assert metadata["note"] == "round trip"
        assert metadata["relations"] == "hasFinding,coOccurs"


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    model = init_model("conve", 8, 25, 3, channels=2, seed=21)
    first = tmp_path / "a.rkg"
    second = tmp_path / "b.rkg"
    save_checkpoint(model, first, {"k": "v"})
    loaded, metadata = load_checkpoint(first)
    save_checkpoint(loaded, second, {"k": metadata["k"]})
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.rkg"
    path.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation_and_trailing(tmp_path):
    model = init_model("distmult", 4, 9, 3, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    for cut in (3, 8, 9, 29, len(blob) - 1):
        (tmp_path / "cut.rkg").write_bytes(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "cut.rkg")
    (tmp_path / "long.rkg").write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "long.rkg")


def test_checkpoint_rejects_unknown_scorer_code(tmp_path):
    model = init_model("distmult", 4, 9, 3, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 9  # scorer code byte
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_metadata_validation(tmp_path):
    model = init_model("distmult", 4, 9, 3, seed=0)
    with pytest.raises(ValueError):
        save_checkpoint(model, tmp_path / "x.rkg", {"bad=key": "v"})
    with pytest.raises(ValueError):
        save_checkpoint(model, tmp_path / "x.rkg", {"key": "line\nbreak"})
