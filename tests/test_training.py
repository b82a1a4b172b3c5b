"""Tests for batching, loss, optimizers, the training loop, and checkpoints."""

import math
import re
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from helpers import (
    TextbookAdam, batch_gradients, batch_items, bce_loss, finite_diff_grad, make_table,
    max_relative_error, pin_cpus_and_blas, predict, reference_batch_gradients, reference_batches,
    score_all_objects,
)

from radkg import (
    CheckpointError,
    RelationKind,
    SyntheticSpec,
    TrainConfig,
    TrainingDivergedError,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    cooccurrence_matrix,
    init_model,
    load_checkpoint,
    resolve_relations,
    save_checkpoint,
    split,
    synth_dataset,
    train,
)
from radkg.encoders import FeatureTable
from radkg.evaluate import Predictions
from radkg.kg import AnnotationTable
from radkg import kernel
from radkg.kernel import sigmoid
from radkg.scoring import block_shapes
from radkg.training import (
    GRAD_ROWS, SPLIT_CELLS, Adam, RowProduct, Sgd, _batch_gradients, _batch_losses, _update_rows,
    item_loss as _item_loss, make_batches, make_optimizer, train_epoch,
)

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
        i = item.subject
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
    order = lambda bs: [(item.relation, item.subject) for batch in bs for item in batch_items(batch)]
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
    by_idx = {it.subject: it for it in prob_items}
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
    assert sorted(it.subject for it in co_items) == list(range(table.n))


@pytest.mark.parametrize("seed", range(4))
def test_make_batches_rows_match_per_item_reference(seed):
    """Same rows, targets, codes, order and batch cuts as building the items
    one by one from the edge tuples, for all three relations."""
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


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize("learning_rate", [1e-3, 0.05, 0.0])
def test_adam_is_bit_identical_to_textbook_formula(rng, monkeypatch, learning_rate, lanes):
    """wc is large enough to be updated by row ranges, one per lane."""
    shapes = {"wx": (17, 9), "ef": (5, 9), "er": (3, 9), "kernels": (2, 5, 5), "wc": (1000, 90)}
    assert math.prod(shapes["wc"]) >= SPLIT_CELLS
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    reference = {name: block.copy() for name, block in params.items()}
    fast, textbook = Adam(learning_rate), TextbookAdam(learning_rate)
    pin_cpus_and_blas(monkeypatch, lanes, {"OPENBLAS_NUM_THREADS": "1"})
    with kernel.Lanes() as running:
        assert running.count == lanes
        for _ in range(50):
            grads = {name: rng.normal(scale=rng.choice([1e-9, 1e-3, 10.0]), size=shape)
                     for name, shape in shapes.items()}
            grads["er"][0] = 0.0
            fast.step(params, grads, running)
            textbook.step(reference, grads)
    for name in shapes:
        assert np.array_equal(params[name], reference[name]), name
        assert np.array_equal(fast.moment1[name], textbook.moment1[name]), name
        assert np.array_equal(fast.moment2[name], textbook.moment2[name]), name


@pytest.mark.parametrize("lanes,ranges", [
    (1, [(0, 1000)]),
    (2, [(0, 512), (512, 1000)]),
    (3, [(0, 320), (320, 640), (640, 1000)]),
])
def test_a_large_block_is_updated_by_aligned_row_ranges_one_per_lane(monkeypatch, lanes, ranges):
    """A block of ``SPLIT_CELLS`` or more is cut on multiples of ``GRAD_ROWS``
    into one range per lane, the calling thread taking the first; a smaller
    block is updated whole by the calling thread."""
    params = {"wx": np.zeros((1000, 90)), "ef": np.zeros((999, 80))}
    assert params["ef"].size < SPLIT_CELLS <= params["wx"].size
    pin_cpus_and_blas(monkeypatch, lanes, {"OPENBLAS_NUM_THREADS": "1"})
    seen = []

    def record(name, lo, hi, g):
        seen.append((name, lo, hi, threading.current_thread()))

    with kernel.Lanes() as running:
        _update_rows(params, params, running, record)
    caller = threading.current_thread()
    assert sorted((lo, hi) for name, lo, hi, _ in seen if name == "wx") == ranges
    assert all(lo % GRAD_ROWS == 0 for _, lo, _, _ in seen)
    threads = {lo: thread for name, lo, _, thread in seen if name == "wx"}
    assert len(set(threads.values())) == lanes and threads[0] is caller
    assert [(name, lo, hi, thread) for name, lo, hi, thread in seen if name == "ef"] == [
        ("ef", 0, 999, caller)]


@pytest.mark.parametrize("feature_dim", [64, 128, 1000, 1024, 2048])
def test_the_wx_gradient_split_into_lane_ranges_is_bitwise_the_whole_product(rng, feature_dim):
    """Ranges that start on multiples of ``GRAD_ROWS`` give the bits of
    ``codes.T @ d_es`` scaled by 1/B, at 1 to 4 lanes; a batch without image
    subjects gives zeros."""
    for batch_size in (1, 7, 30, 32):
        for embed_dim in (1, 9, 100):
            codes = rng.normal(size=(batch_size, feature_dim))
            d_es = rng.normal(size=(batch_size, embed_dim))
            want = codes.T @ d_es
            want *= 1.0 / batch_size
            for lanes in (1, 2, 3, 4):
                product = RowProduct(codes, d_es, 1.0 / batch_size)
                for lo, hi in kernel.ranges(feature_dim, GRAD_ROWS, lanes):
                    product.rows(lo, hi)
                assert product.grid.tobytes() == want.tobytes(), (batch_size, embed_dim, lanes)
    empty = RowProduct(np.empty((0, feature_dim)), np.empty((0, 9)), 1.0)
    assert not empty.rows(0, feature_dim).any()


def test_a_worker_exception_in_a_fit_is_raised_in_the_caller(monkeypatch):
    """An optimizer step that fails on a worker lane raises in ``train``,
    and the fit's workers are joined on that path as on a normal return."""
    tr_feat, tr_ann, va_feat, va_ann = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    features = FeatureTable(tr_feat.image_ids, np.tile(tr_feat.codes, (1, 128)))
    val = (FeatureTable(va_feat.image_ids, np.tile(va_feat.codes, (1, 128))), va_ann)
    config = TrainConfig(epochs=1, batch_size=16, seed=0)
    model = init_model("distmult", features.dim, 100, 4, seed=0)
    assert model.wx.size >= SPLIT_CELLS
    pin_cpus_and_blas(monkeypatch, 2, {"OPENBLAS_NUM_THREADS": "1"})
    before = threading.active_count()
    train(model.copy(), kg, features, val, config)
    assert threading.active_count() == before
    rows = RowProduct.rows

    def failing_in_workers(self, lo, hi):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker lane")
        return rows(self, lo, hi)

    monkeypatch.setattr(RowProduct, "rows", failing_in_workers)
    with pytest.raises(MemoryError, match="worker lane"):
        train(model.copy(), kg, features, val, config)
    assert threading.active_count() == before


def conve_epoch(monkeypatch, lanes, embed_dim=25, channels=3):
    """A conve model, its epoch of hasFinding batches, and ``lanes`` lanes."""
    tr_feat, tr_ann, _, _ = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    batches = make_batches(kg, tr_feat, TrainConfig(batch_size=16, seed=0))
    pin_cpus_and_blas(monkeypatch, lanes, {"OPENBLAS_NUM_THREADS": "1"})
    return init_model("conve", 8, embed_dim, 4, channels=channels, seed=0), batches


@pytest.mark.parametrize("kind", [Adam, Sgd])
def test_a_conve_step_starts_wc_on_a_worker_once_per_batch(monkeypatch, kind):
    """On 2 lanes every batch hands wc's update to the worker during
    backward and the other blocks' to the calling thread; Adam's t counts
    the batches; the bits are those of the calling thread alone."""
    model, batches = conve_epoch(monkeypatch, 2)
    alone = model.copy()
    threads, apply = [], kind._apply

    def traced(self, params, name, lo, hi, g):
        threads.append((name, threading.current_thread() is threading.main_thread()))
        apply(self, params, name, lo, hi, g)

    monkeypatch.setattr(kind, "_apply", traced)
    optimizer = kind(0.01)
    with kernel.Lanes() as lanes, np.errstate(over="raise", invalid="raise"):
        train_epoch(model, batches, optimizer, kernel.Workspace(), lanes)
        assert lanes.free == 2
    assert kind is Sgd or optimizer.t == len(batches)
    assert threads.count(("wc", False)) == len(batches)
    assert {name for name, main in threads if main} == {"wx", "ef", "er", "kernels"}
    train_epoch(alone, batches, kind(0.01))
    assert model == alone


def test_a_conve_wc_of_split_cells_or_more_is_cut_by_rows_in_the_step(monkeypatch):
    """A 640 x 144 wc is not started early: on 3 lanes the step cuts its
    update into one aligned row range per lane, as it cuts any large block,
    and the bits are those of the calling thread alone."""
    model, batches = conve_epoch(monkeypatch, 3, embed_dim=144, channels=4)
    assert model.wc.size >= SPLIT_CELLS
    alone = model.copy()
    ranges, apply = [], Adam._apply

    def traced(self, params, name, lo, hi, g):
        if name == "wc":
            ranges.append((lo, hi, threading.current_thread()))
        apply(self, params, name, lo, hi, g)

    monkeypatch.setattr(Adam, "_apply", traced)
    with kernel.Lanes() as lanes, np.errstate(over="raise", invalid="raise"):
        train_epoch(model, batches[:1], Adam(0.01), kernel.Workspace(), lanes)
    assert sorted((lo, hi) for lo, hi, _ in ranges) == list(kernel.ranges(640, GRAD_ROWS, 3))
    assert len({thread for *_, thread in ranges}) == 3
    assert [lo for lo, _, thread in ranges if thread is threading.main_thread()] == [0]
    train_epoch(alone, batches[:1], Adam(0.01))
    assert model == alone


def test_a_conve_batch_with_a_non_finite_loss_updates_no_block_on_two_lanes(monkeypatch):
    """The loss check comes before backward, so no update of the batch
    has started on the worker when the check stops the epoch."""
    model, batches = conve_epoch(monkeypatch, 2)
    batches[1].feature_codes[batches[1].subjects[3]] = np.inf
    optimizer, first = Adam(0.01), model.copy()
    train_epoch(first, batches[:1], Adam(0.01))
    with kernel.Lanes() as lanes, np.errstate(over="raise", invalid="raise"):
        with pytest.raises(TrainingDivergedError, match="^non-finite loss nan in batch 1 on item"):
            train_epoch(model, batches, optimizer, kernel.Workspace(), lanes)
        assert lanes.free == 2
    assert optimizer.t == 1
    for name, block in model.blocks().items():
        assert block.tobytes() == first.blocks()[name].tobytes(), name


def test_a_fault_in_wc_update_on_the_worker_names_the_optimizer_step(monkeypatch):
    model, batches = conve_epoch(monkeypatch, 2)
    apply = Adam._apply

    def failing_on_the_worker(self, params, name, lo, hi, g):
        if threading.current_thread() is not threading.main_thread() and self.t == 3:
            raise FloatingPointError("overflow encountered in multiply")
        apply(self, params, name, lo, hi, g)

    monkeypatch.setattr(Adam, "_apply", failing_on_the_worker)
    before = threading.active_count()
    with kernel.Lanes() as lanes, np.errstate(over="raise", invalid="raise"):
        with pytest.raises(TrainingDivergedError) as caught:
            train_epoch(model, batches, Adam(0.01), kernel.Workspace(), lanes)
        assert lanes.free == 2
    assert str(caught.value) == (
        "overflow encountered in multiply in the optimizer step of batch 2 on block wc")
    assert threading.active_count() == before


def test_a_fault_in_the_rest_of_backward_waits_for_the_wc_update_and_names_backward(monkeypatch):
    """wc's update has started when conv2d_bwd faults; the epoch raises
    once it has ended, and no other block of the batch is updated."""
    model, batches = conve_epoch(monkeypatch, 2)
    conv2d_bwd, calls, ended = kernel.conv2d_bwd, [], []
    apply = Adam._apply

    def slow_wc(self, params, name, lo, hi, g):
        if name == "wc" and self.t == 2:
            time.sleep(0.05)
            ended.append(True)
        apply(self, params, name, lo, hi, g)

    def failing_second(*args, **kwargs):
        calls.append(True)
        if len(calls) == 2:
            assert ended == []  # the update runs beside backward
            raise FloatingPointError("invalid value encountered in matmul")
        return conv2d_bwd(*args, **kwargs)

    monkeypatch.setattr(Adam, "_apply", slow_wc)
    monkeypatch.setattr(kernel, "conv2d_bwd", failing_second)
    first = model.copy()
    train_epoch(first, batches[:1], Adam(0.01))
    calls.clear()
    with kernel.Lanes() as lanes, np.errstate(over="raise", invalid="raise"):
        with pytest.raises(TrainingDivergedError) as caught:
            train_epoch(model, batches, Adam(0.01), kernel.Workspace(), lanes)
        assert ended == [True] and lanes.free == 2
    assert str(caught.value) == ("invalid value encountered in matmul in the forward or "
                                 "backward pass of batch 1")
    for name, block in model.blocks().items():
        assert (block.tobytes() == first.blocks()[name].tobytes()) == (name != "wc"), name


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


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_train_config_refuses_a_learning_rate_that_is_not_finite(rate):
    with pytest.raises(ValueError, match="finite and non-negative"):
        TrainConfig(learning_rate=rate)
    TrainConfig(learning_rate=0.0)  # zero is allowed: a frozen-model run


# ---------------------------------------------------------------- train_epoch


def test_zero_learning_rate_leaves_model_unchanged():
    _, features, kg = tiny_problem()
    for optimizer in ("sgd", "adam"):
        config = TrainConfig(learning_rate=0.0, optimizer=optimizer, seed=0)
        model = init_model("distmult", features.dim, 9, kg.n, seed=1)
        before = {k: v.copy() for k, v in model.blocks().items()}
        train_epoch(model, make_batches(kg, features, config), make_optimizer(config))
        for name, block in model.blocks().items():
            assert np.array_equal(block, before[name]), (optimizer, name)


def test_batch_gradient_is_mean_over_items(rng):
    """The accumulated minibatch gradient matches finite differences of the
    mean per-item loss through the whole pipeline."""
    _, features, kg = tiny_problem(m=5, n=3, dim=4)
    config = TrainConfig(batch_size=5, seed=2)
    [rows] = make_batches(kg, features, config)
    batch = batch_items(rows)
    model = init_model("distmult", 4, 9, 3, seed=8)

    _, accum = batch_gradients(model, rows)

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

    for name, grad in accum.items():
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
        _, loss = train_epoch(model, batches, optimizer)
    assert loss < 1e-2


def test_train_epoch_flags_divergence():
    _, features, kg = tiny_problem()
    config = TrainConfig(seed=0)
    model = init_model("distmult", features.dim, 9, kg.n, seed=1)
    model.wx[0, 0] = np.nan  # poisoned parameter -> NaN loss on first item
    with pytest.raises(TrainingDivergedError):
        train_epoch(model, make_batches(kg, features, config), make_optimizer(config))


# ---------------------------------------------------------------- train loop


def synth_folds(seed=0, m=80, uncertain=0.0):
    features, annotations = synth_dataset(
        SyntheticSpec(m=m, n=4, dim=8, noise_scale=0.3, seed=seed,
                      uncertain_fraction=uncertain))
    train_ann, val_ann, _ = split(annotations, (0.6, 0.2, 0.2), seed=1)
    return (
        features.select(train_ann.image_ids), train_ann,
        features.select(val_ann.image_ids), val_ann,
    )


def test_train_returns_best_validation_model():
    tr_feat, tr_ann, va_feat, va_ann = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    config = TrainConfig(learning_rate=0.01, epochs=8, batch_size=16, seed=0,
                         patience=8)
    model = init_model("distmult", 8, 16, 4, seed=0)
    best, history = train(model, kg, tr_feat, (va_feat, va_ann), config)
    assert 1 <= len(history) <= 8
    from radkg.evaluate import macro_auc
    psi = np.array([predict(best, code)[0] for code in va_feat.codes])
    rows = Predictions(va_feat.image_ids, psi)
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


@pytest.mark.parametrize("scorer,embed_dim", [("distmult", 16), ("conve", 25)])
def test_train_writes_the_checkpoint_of_a_loop_without_a_workspace(tmp_path, scorer, embed_dim):
    """``train`` keeps one workspace across its batches and epochs; a loop
    whose every batch makes fresh grids picks the same model, to the byte."""
    tr_feat, tr_ann, va_feat, va_ann = synth_folds(uncertain=0.3)
    policy = UncertainPolicy.AS_SEPARATE_RELATION
    kg = add_cooccurrence(build_radkg(tr_ann, policy), cooccurrence_matrix(tr_ann, policy))
    relations = resolve_relations(kg, None)
    config = TrainConfig(learning_rate=0.01, epochs=4, batch_size=7, seed=3, policy=policy,
                         patience=4)
    model = init_model(scorer, 8, embed_dim, 4, relations=relations, channels=3, seed=1)
    best, history = train(model.copy(), kg, tr_feat, (va_feat, va_ann), config)

    optimizer, snapshots = Adam(config.learning_rate), []
    for epoch in range(1, len(history) + 1):
        for batch in make_batches(kg, tr_feat, config, epoch=epoch):
            _, scored = _batch_losses(model, batch)
            optimizer.step(model.blocks(), _batch_gradients(model, batch, scored))
        snapshots.append(model.copy())
    aucs = [h["val_auc"] for h in history]
    save_checkpoint(best, tmp_path / "train.rkg")
    save_checkpoint(snapshots[aucs.index(max(aucs))], tmp_path / "loop.rkg")
    assert (tmp_path / "train.rkg").read_bytes() == (tmp_path / "loop.rkg").read_bytes()


@pytest.mark.parametrize("scorer,embed_dim", [("distmult", 16), ("conve", 25)])
def test_batch_gradients_are_bitwise_the_add_at_form(scorer, embed_dim):
    """No batch names a finding subject twice, so adding its rows of dL/de_s
    into ef with one fancy-index ``+=`` gives the bits ``np.add.at`` gives:
    at batch sizes 1, 7 and 32, on a graph of three relations (coOccurs
    among them) and on one of hasFinding alone."""
    tr_feat, tr_ann, _, _ = synth_folds(uncertain=0.3)
    policy = UncertainPolicy.AS_SEPARATE_RELATION
    separate = build_radkg(tr_ann, policy)
    for kg in (add_cooccurrence(separate, cooccurrence_matrix(tr_ann, policy)),
               build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)):
        relations = resolve_relations(kg, None)
        model = init_model(scorer, 8, embed_dim, 4, relations=relations, channels=3, seed=1)
        for batch_size in (1, 7, 32):
            config = TrainConfig(batch_size=batch_size, seed=3, policy=policy)
            for batch in make_batches(kg, tr_feat, config):
                findings = batch.subjects[~batch.images]
                assert len(set(findings.tolist())) == len(findings)
                losses, grads = batch_gradients(model, batch)
                want_losses, want = reference_batch_gradients(model, batch)
                assert losses.tobytes() == want_losses.tobytes()
                assert grads.keys() == want.keys()
                for name, grad in grads.items():
                    assert grad.tobytes() == want[name].tobytes(), (batch_size, name)


def test_train_checks_every_trained_relation_before_the_first_step():
    """A model without a relation the graph trains on is refused before any
    optimizer step changes it."""
    tr_feat, tr_ann, va_feat, va_ann = synth_folds(uncertain=0.3)
    kg = build_radkg(tr_ann, UncertainPolicy.AS_SEPARATE_RELATION)
    assert PROB in resolve_relations(kg, None)
    config = TrainConfig(batch_size=1, policy=UncertainPolicy.AS_SEPARATE_RELATION)
    model = init_model("distmult", 8, 16, 4, relations=(HAS,), seed=0)
    before = model.copy()
    with pytest.raises(ValueError, match="model has no relation probablyHasFinding"):
        train(model, kg, tr_feat, (va_feat, va_ann), config)
    assert model == before


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
    tr_feat.codes[[item.subject, later.subject]] = np.inf
    with pytest.raises(TrainingDivergedError) as caught, np.errstate(invalid="ignore"):
        train(model, graph, tr_feat, (va_feat, va_ann), config)
    message = str(caught.value)
    assert message.startswith("epoch 1: ")
    assert f"batch {number} " in message
    assert f"(Image:{item.subject}, {item.relation.value})" in message
    assert f"(Image:{later.subject}," not in message


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


def test_a_fold_without_a_defined_auc_ignores_patience_and_returns_the_last_model():
    """When no finding of the validation fold has both classes, every epoch's
    AUC is undefined, which says nothing about the model: all epochs run and
    the returned model is the last one, as a run with no validation would."""
    tr_feat, tr_ann, va_feat, va_ann = synth_folds()
    kg = build_radkg(tr_ann, UncertainPolicy.AS_POSITIVE)
    one = va_ann.image_ids[:1]
    va_feat, va_ann = va_feat.select(one), AnnotationTable(one, va_ann.finding_names, va_ann.labels[:1])
    for patience in (0, 2):
        config = TrainConfig(learning_rate=0.02, epochs=6, batch_size=16, patience=patience, seed=0)
        best, history = train(init_model("distmult", 8, 16, 4, seed=0), kg, tr_feat,
                              (va_feat, va_ann), config)
        assert [h["epoch"] for h in history] == list(range(1, 7))
        assert all(h["val_auc"] is None for h in history)
        last = init_model("distmult", 8, 16, 4, seed=0)
        optimizer = make_optimizer(config)
        for epoch in range(1, 7):
            train_epoch(last, make_batches(kg, tr_feat, config, epoch=epoch), optimizer)
        assert best == last


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


@pytest.mark.parametrize("scorer", ["distmult", "conve"])
def test_initialized_and_loaded_models_have_the_table_shapes(tmp_path, scorer):
    model = init_model(scorer, 6, 25, 4, relations=(HAS, CO), channels=2, seed=3)
    save_checkpoint(model, tmp_path / "m.rkg")
    loaded, _ = load_checkpoint(tmp_path / "m.rkg")
    expected = list(block_shapes(scorer, 6, 25, 4, 2, 2).items())
    for built in (model, loaded):
        assert [(name, block.shape) for name, block in built.blocks().items()] == expected


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


def reseal(blob):
    """The checkpoint bytes with the CRC trailer recomputed over the rest."""
    body = bytes(blob[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def test_checkpoint_rejects_unknown_scorer_code(tmp_path):
    model = init_model("distmult", 4, 9, 3, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[8] = 9  # scorer code byte
    path.write_bytes(reseal(blob))
    with pytest.raises(CheckpointError, match="unknown scorer code 9"):
        load_checkpoint(path)


def test_checkpoint_with_zero_channels_is_checkpoint_error(tmp_path):
    """A conve file whose header says 0 channels, with empty kernels and wc
    blocks and a valid trailer, is refused rather than loaded."""
    model = init_model("conve", 4, 25, 3, channels=1, seed=0)
    parts = [b"RKG1", struct.pack("<IB5I", 2, 2, 4, 25, 3, 0, 1)]
    for block in (model.wx, model.ef, model.er, np.zeros((0, 5, 5)), np.zeros((0, 25))):
        parts += [struct.pack("<Q", block.size), block.astype("<f8").tobytes()]
    meta = b"relations=hasFinding\n"
    parts += [struct.pack("<Q", len(meta)), meta, bytes(4)]
    path = tmp_path / "zero.rkg"
    path.write_bytes(reseal(b"".join(parts)))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: channels must be >= 1")):
        load_checkpoint(path)


@pytest.mark.parametrize("channels", [7, 1])
def test_distmult_checkpoint_whose_header_names_channels_is_checkpoint_error(tmp_path, channels):
    """No distmult block reads the channels field, so only the header check
    can see it; such a file used to load as a 0-channel model that saved
    back as other bytes."""
    model = init_model("distmult", 4, 9, 3, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    assert blob[21:25] == struct.pack("<I", 0)  # channels: the 4th header dim, from byte 9
    blob[21:25] = struct.pack("<I", channels)
    path.write_bytes(reseal(blob))
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: header channels {channels} disagrees with the model's 0")):
        load_checkpoint(path)


def test_checkpoint_with_unsorted_or_repeated_metadata_keys_is_checkpoint_error(tmp_path):
    model = init_model("distmult", 4, 9, 3, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path, {"a": "1", "b": "2"})
    blob = path.read_bytes()
    assert b"a=1\nb=2\nrelations=" in blob
    for keys in (b"b=1\na=2\n", b"a=1\na=2\n"):
        path.write_bytes(reseal(blob.replace(b"a=1\nb=2\n", keys)))
        with pytest.raises(CheckpointError, match="metadata keys are not unique and sorted"):
            load_checkpoint(path)


@pytest.mark.parametrize("scorer", ["distmult", "conve"])
def test_every_checkpoint_that_loads_saves_back_byte_identical(tmp_path, scorer):
    """Each byte of the header and of the metadata block set to three other
    values, and 300 random 1-3 byte mutations anywhere, every file resealed:
    each one either raises CheckpointError or loads as a model and metadata
    that ``save_checkpoint`` writes back as the same bytes."""
    model = init_model(scorer, 4, 25, 3, relations=(HAS, CO), channels=2, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path, {"a": "1", "b": "x=y", "c": ""})
    blob = path.read_bytes()
    meta_start = blob.index(b"a=1\n") - 8  # from its length prefix
    rng = np.random.default_rng(7)
    mutations = [{at: value} for at in [*range(4, 29), *range(meta_start, len(blob) - 4)]
                 for value in (blob[at] ^ 1, blob[at] ^ 0x20, 0)]
    for _ in range(300):
        spots = rng.choice(len(blob) - 4, size=int(rng.integers(1, 4)), replace=False)
        mutations.append({int(at): int(rng.integers(0, 256)) for at in spots})
    outcomes = {"refused": 0, "loaded": 0}
    for mutation in mutations:
        mutated = bytearray(blob)
        for at, value in mutation.items():
            mutated[at] = value
        mutated = reseal(mutated)
        path.write_bytes(mutated)
        try:
            loaded, metadata = load_checkpoint(path)
        except CheckpointError:
            outcomes["refused"] += 1
            continue
        outcomes["loaded"] += 1
        save_checkpoint(loaded, tmp_path / "again.rkg", metadata)
        assert (tmp_path / "again.rkg").read_bytes() == mutated, mutation
    assert min(outcomes.values()) > 100, outcomes


def test_checkpoint_trailer_is_crc32_of_the_rest(tmp_path):
    model = init_model("conve", 4, 25, 3, channels=2, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    assert blob[4:8] == struct.pack("<I", 2)  # format version
    assert reseal(blob) == blob


def test_checkpoint_changed_float_byte_is_checkpoint_error(tmp_path):
    model = init_model("conve", 4, 25, 3, channels=2, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[37 + 8 * 7 + 3] ^= 0x40  # a byte of wx[0, 7]; wx data starts at byte 37
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=re.escape(f"{path}: checksum mismatch")):
        load_checkpoint(path)


def test_checkpoint_random_mutations_never_load_a_different_model(tmp_path):
    model = init_model("conve", 4, 25, 3, channels=2, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    rng = np.random.default_rng(99)
    bad = tmp_path / "bad.rkg"
    for _ in range(300):
        mutated = bytearray(blob)
        for at in rng.choice(len(blob), size=int(rng.integers(1, 4)), replace=False):
            mutated[at] = (mutated[at] + int(rng.integers(1, 256))) % 256
        bad.write_bytes(bytes(mutated))
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)


def test_checkpoint_version_1_is_unsupported(tmp_path):
    model = init_model("distmult", 4, 9, 3, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", 1)
    path.write_bytes(bytes(blob[:-4]))  # version 1 had no trailer
    with pytest.raises(CheckpointError, match="unsupported format version 1"):
        load_checkpoint(path)


@pytest.mark.parametrize("corruption", ["non-square embed_dim", "non-UTF-8 metadata"])
def test_checkpoint_corruption_is_checkpoint_error(tmp_path, corruption):
    model = init_model("conve", 4, 25, 3, channels=2, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    if corruption == "non-square embed_dim":
        blob[13:17] = struct.pack("<I", 24)  # header dims start at byte 9
    else:
        blob[-6] = 0xFF  # inside the last metadata line, before the CRC trailer
    path.write_bytes(reseal(blob))
    with pytest.raises(CheckpointError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_metadata_validation(tmp_path):
    model = init_model("distmult", 4, 9, 3, seed=0)
    with pytest.raises(ValueError):
        save_checkpoint(model, tmp_path / "x.rkg", {"bad=key": "v"})
    with pytest.raises(ValueError):
        save_checkpoint(model, tmp_path / "x.rkg", {"key": "line\nbreak"})


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_checkpoint_metadata_keeps_line_boundaries_other_than_newline(tmp_path, brk):
    """``str.splitlines`` breaks at each of these; the metadata block is
    split at the writer's ``\\n`` only."""
    model = init_model("distmult", 4, 9, 3, seed=0)
    path = tmp_path / "m.rkg"
    save_checkpoint(model, path, {"findings": f"a{brk}b,c", f"k{brk}ey": "v"})
    loaded, metadata = load_checkpoint(path)
    assert loaded == model
    assert metadata["findings"] == f"a{brk}b,c" and metadata[f"k{brk}ey"] == "v"


def test_checkpoint_metadata_must_end_with_a_line_break(tmp_path):
    model = init_model("distmult", 4, 9, 3, seed=0)
    path = tmp_path / "model.rkg"
    save_checkpoint(model, path)
    blob = bytearray(path.read_bytes())
    assert blob[-5] == ord("\n")  # the last metadata byte, before the CRC trailer
    blob[-5] = ord("x")
    path.write_bytes(reseal(blob))
    with pytest.raises(CheckpointError, match="does not end with a line break"):
        load_checkpoint(path)
