"""Tests for the embedding model and the two triple scorers."""

import numpy as np
import pytest

from helpers import (
    finding_grads, finite_diff_grad, image_grads, max_relative_error, reference_backward,
    reference_init, score_all_objects, score_all_objects_finding,
)

from radkg import (
    RelationKind,
    conve_pipeline,
    embed_subject,
    init_model,
    score_conve,
    score_distmult,
)
from radkg.scoring import EmbeddingModel, backward, block_shapes, forward

HAS = RelationKind.HAS_FINDING
CO = RelationKind.CO_OCCURS


def small_distmult(d=3, n=2, feature_dim=3, seed=0):
    return init_model("distmult", feature_dim, d, n, seed=seed)


# ---------------------------------------------------------------- distmult


def test_distmult_known_value():
    psi = score_distmult([1.0, 2.0, -1.0], [0.5, 1.0, 2.0], [2.0, 0.0, 1.0])
    assert psi == -1.0


def test_distmult_matches_triple_loop(rng):
    for _ in range(100):
        d = int(rng.integers(1, 64))
        e_s, r_r, e_o = rng.normal(size=(3, d))
        psi = score_distmult(e_s, r_r, e_o)
        slow = sum(float(e_s[k]) * float(r_r[k]) * float(e_o[k]) for k in range(d))
        assert abs(psi - slow) < 1e-12


def test_distmult_symmetric_bitwise(rng):
    for _ in range(100):
        e_s, r_r, e_o = rng.normal(size=(3, 16))
        assert score_distmult(e_s, r_r, e_o) == score_distmult(e_o, r_r, e_s)


def test_distmult_trilinear(rng):
    e_s, r_r, e_o, other = rng.normal(size=(4, 8))
    lhs = score_distmult(2.0 * e_s - 3.0 * other, r_r, e_o)
    rhs = 2.0 * score_distmult(e_s, r_r, e_o) - 3.0 * score_distmult(other, r_r, e_o)
    assert abs(lhs - rhs) < 1e-12


def test_distmult_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        score_distmult([1.0, 2.0], [1.0], [1.0, 2.0])


def test_distmult_identity_object_table_reads_off_product():
    model = EmbeddingModel(
        scorer="distmult",
        wx=np.eye(3),
        ef=np.eye(3),
        er=np.array([[0.5, 1.0, 2.0]]),
        relations=(HAS,),
    )
    c_x = np.array([1.0, 2.0, -1.0])
    psi = score_all_objects(model, c_x, HAS)
    assert np.array_equal(psi, c_x * model.er[0])


# ---------------------------------------------------------------- conv scorer


def test_conve_shape_contract():
    model = init_model("conve", feature_dim=32, embed_dim=100, n_findings=14,
                       channels=8, seed=1)
    assert model.reshape_side == 10
    e_s = embed_subject(model, np.random.default_rng(0).normal(size=32))
    pipe = conve_pipeline(model, e_s, model.er[0])
    assert pipe.stacked.shape == (20, 10)
    assert pipe.conv_out.shape == (8, 16, 6)
    assert pipe.flat.shape == (768,)
    assert pipe.z2.shape == (100,)
    assert pipe.a2.shape == (100,)
    psi = score_conve(model, e_s, model.er[0], model.ef[0])
    assert isinstance(psi, float)


def test_conve_subject_stacks_on_top():
    model = init_model("conve", 25, 25, 2, channels=1, seed=0)
    e_s = np.arange(25, dtype=np.float64)
    r_r = np.zeros(25)
    pipe = conve_pipeline(model, e_s, r_r)
    assert np.array_equal(pipe.stacked[:5], e_s.reshape(5, 5))
    assert np.array_equal(pipe.stacked[5:], np.zeros((5, 5)))


def test_conve_rejects_non_square_embed_dim():
    with pytest.raises(ValueError):
        init_model("conve", 8, 30, 3, channels=1)


def test_conve_rejects_reshape_smaller_than_kernel():
    # d = 16 gives a 4x4 grid, too small for a 5x5 kernel
    with pytest.raises(ValueError):
        init_model("conve", 8, 16, 3, channels=1)


def test_model_block_validation():
    base = init_model("distmult", 4, 9, 3, seed=0)
    with pytest.raises(ValueError):
        EmbeddingModel("distmult", base.wx, base.ef, base.er, (HAS,),
                       kernels=np.zeros((1, 5, 5)), wc=np.zeros((10, 9)))
    conv = init_model("conve", 4, 25, 3, channels=1, seed=0)
    with pytest.raises(ValueError):
        EmbeddingModel("conve", conv.wx, conv.ef, conv.er, (HAS,),
                       kernels=conv.kernels, wc=None)
    with pytest.raises(ValueError):
        EmbeddingModel("conve", conv.wx, conv.ef, conv.er, (HAS,),
                       kernels=conv.kernels, wc=np.zeros((7, 25)))
    bad = base.wx.copy()
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        EmbeddingModel("distmult", bad, base.ef, base.er, (HAS,))
    with pytest.raises(ValueError):
        EmbeddingModel("distmult", base.wx, base.ef, base.er, ())
    with pytest.raises(ValueError):
        EmbeddingModel("distmult", base.wx, base.ef,
                       np.zeros((2, 9)), (HAS, HAS))


def test_conve_model_refuses_zero_channels():
    conv = init_model("conve", 4, 25, 3, channels=1, seed=0)
    with pytest.raises(ValueError, match="channels must be >= 1"):
        EmbeddingModel("conve", conv.wx, conv.ef, conv.er, (HAS,),
                       kernels=np.zeros((0, 5, 5)), wc=np.zeros((0, 25)))


@pytest.mark.parametrize("args,message", [
    (("transe", 4, 25, 3, 1, 1), "unknown scorer"),
    (("distmult", 0, 25, 3, 1, 1), "dims must be positive"),
    (("distmult", 4, 25, 0, 1, 1), "dims must be positive"),
    (("distmult", 4, 25, 3, 0, 1), "dims must be positive"),
    (("conve", 4, 25, 3, 1, 0), "channels must be >= 1"),
])
def test_block_shapes_refuses_dims_no_model_has(args, message):
    with pytest.raises(ValueError, match=message):
        block_shapes(*args)


def test_block_shapes_order_and_shapes():
    assert block_shapes("distmult", 6, 9, 4, 2, 0) == {"wx": (6, 9), "ef": (4, 9), "er": (2, 9)}
    conv = block_shapes("conve", 6, 100, 4, 2, 8)
    assert list(conv.items()) == [("wx", (6, 100)), ("ef", (4, 100)), ("er", (2, 100)),
                                  ("kernels", (8, 5, 5)), ("wc", (768, 100))]


def test_relation_index_unknown_relation():
    model = init_model("distmult", 4, 8, 5, seed=0)
    with pytest.raises(ValueError):
        model.relation_index(CO)


# ---------------------------------------------------------------- gradients


def test_grad_score_distmult_known_values():
    model = EmbeddingModel(
        scorer="distmult",
        wx=np.eye(3),
        ef=np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0]]),
        er=np.array([[0.5, 1.0, 2.0]]),
        relations=(HAS,),
    )
    c_x = np.array([1.0, 2.0, -1.0])
    grads = image_grads(model, c_x, HAS, [1.0, 0.0])
    assert np.array_equal(grads["ef"][0], np.array([0.5, 2.0, -2.0]))   # e_s * r_r
    assert np.array_equal(grads["ef"][1], np.zeros(3))
    assert np.array_equal(grads["er"][0], np.array([2.0, 0.0, -1.0]))   # e_s * e_o
    assert np.array_equal(grads["c_x"], np.array([1.0, 0.0, 2.0]))      # r_r * e_o
    assert np.array_equal(grads["wx"], np.outer(c_x, np.array([1.0, 0.0, 2.0])))


def test_grad_zero_upstream_is_zero(rng):
    model = init_model("conve", 6, 25, 4, channels=2, seed=5)
    grads = image_grads(model, rng.normal(size=6), HAS, np.zeros(4))
    for block in grads.values():
        assert not block.any()
    assert not grads["c_x"].any()


@pytest.mark.parametrize("scorer,dim,channels", [("distmult", 9, 0), ("conve", 25, 1)])
def test_grad_score_matches_finite_differences(rng, scorer, dim, channels):
    model = init_model(scorer, 5, dim, 3, channels=max(channels, 1), seed=11)
    c_x = rng.normal(size=5) * 0.5
    upstream = rng.normal(size=3)
    grads = image_grads(model, c_x, HAS, upstream)

    def psi_sum(block_name):
        block = model.blocks()[block_name]

        def fn(values):
            saved = block.copy()
            block[...] = values
            try:
                return float(np.dot(score_all_objects(model, c_x, HAS), upstream))
            finally:
                block[...] = saved

        return fn

    for name, block in model.blocks().items():
        grad = grads[name]
        numeric = finite_diff_grad(psi_sum(name), block)
        assert max_relative_error(grad, numeric) < 1e-5, name


def test_grad_finding_subject_routes_into_ef_row(rng):
    model = init_model("distmult", 4, 8, 3, relations=(CO,), seed=4)
    upstream = rng.normal(size=3)
    grads = finding_grads(model, 0, CO, upstream)

    def fn(values):
        saved = model.ef.copy()
        model.ef[...] = values
        try:
            return float(np.dot(score_all_objects_finding(model, 0, CO), upstream))
        finally:
            model.ef[...] = saved

    numeric = finite_diff_grad(fn, model.ef)
    assert max_relative_error(grads["ef"], numeric) < 1e-5
    assert not grads["wx"].any()
    assert "c_x" not in grads


@pytest.mark.parametrize("scorer,embed_dim", [("distmult", 2), ("distmult", 16),
                                               ("conve", 25), ("conve", 100)])
def test_backward_is_bitwise_the_add_at_form(scorer, embed_dim):
    """Masking each ReLU by its output and summing er rows per relation gives
    the bits of the reference's pre-activation masks and ``np.add.at``: on
    one-row batches, one-relation batches and batches that repeat relations,
    with signed zeros in the er rows. (At d = 1 numpy sums a relation's
    single column pairwise, in another order than ``np.add.at``.)"""
    rng = np.random.default_rng(embed_dim)
    model = init_model(scorer, 6, embed_dim, 5, relations=tuple(RelationKind), channels=3, seed=2)
    for case in range(60):
        b = 1 if case % 4 == 0 else int(rng.integers(2, 40))
        ridx = np.full(b, case % 3) if case % 4 == 1 else rng.integers(0, 3, size=b)
        e_s = rng.normal(size=(b, embed_dim))
        e_s[rng.random(size=e_s.shape) < 0.1] = -0.0
        dpsi = rng.normal(size=(b, 5))
        dpsi[rng.random(size=b) < 0.2] = 0.0
        _, cache = forward(model, e_s, ridx)
        grads, d_es = backward(model, cache, dpsi)
        want_grads, want_d_es = reference_backward(model, cache, dpsi)
        assert d_es.tobytes() == want_d_es.tobytes(), case
        assert grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            assert grad.tobytes() == want_grads[name].tobytes(), (case, name)


# ---------------------------------------------------------------- init


def test_init_model_deterministic():
    a = init_model("conve", 8, 25, 4, channels=2, seed=42)
    b = init_model("conve", 8, 25, 4, channels=2, seed=42)
    assert a == b
    c = init_model("conve", 8, 25, 4, channels=2, seed=43)
    assert a != c


def test_init_model_draw_order_is_blockwise():
    """Shared leading blocks draw identically regardless of trailing blocks."""
    plain = init_model("distmult", 8, 25, 4, seed=5)
    conv = init_model("conve", 8, 25, 4, channels=2, seed=5)
    assert np.array_equal(plain.wx, conv.wx)
    assert np.array_equal(plain.ef, conv.ef)
    assert np.array_equal(plain.er, conv.er)


def test_init_model_bounds():
    model = init_model("conve", 50, 100, 14, channels=8, seed=9)
    for (name, block), (fan_in, fan_out) in zip(
        model.blocks().items(),
        [(50, 100), (14, 100), (1, 100), (25, 200), (768, 100)],
    ):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(block).max() <= bound, name


@pytest.mark.parametrize("scorer", ["distmult", "conve"])
@pytest.mark.parametrize("seeded", ["int", "generator"])
def test_init_model_is_the_reference_draw(scorer, seeded):
    """Bit for bit, in the order wx, ef, er, kernels, wc, and a Generator
    passed as the seed is advanced by exactly those draws."""
    generator = np.random.default_rng(17)
    model = init_model(scorer, 6, 36, 5, relations=(HAS, CO), channels=3,
                       seed=17 if seeded == "int" else generator)
    rng = np.random.default_rng(17)
    reference = reference_init(scorer, 6, 36, 5, 2, 3, rng)
    names = ["wx", "ef", "er"] + (["kernels", "wc"] if scorer == "conve" else [])
    assert list(model.blocks()) == names
    for name, expected in zip(names, reference, strict=True):
        assert np.array_equal(model.blocks()[name], expected), name
    if seeded == "generator":
        assert generator.random() == rng.random()


def test_model_copy_is_deep():
    model = init_model("distmult", 3, 4, 2, seed=1)
    clone = model.copy()
    clone.wx[0, 0] += 1.0
    assert model != clone
