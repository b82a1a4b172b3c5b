"""Tests for the finite-difference gradient verification harness."""

import numpy as np
import pytest

from helpers import score_all_objects

from radkg import check_gradients, default_cases, run_suite
from radkg.gradcheck import TOLERANCE, GradCheckResult, _random_instance
from radkg import scoring


@pytest.mark.parametrize("scorer", ["distmult", "conve"])
@pytest.mark.parametrize("mode", ["loss", "score"])
def test_small_instances_pass(scorer, mode):
    result = check_gradients(scorer, feature_dim=8, embed_dim=25, n_findings=4,
                             channels=2, seed=1, mode=mode)
    assert isinstance(result, GradCheckResult)
    assert result.max_rel_error < TOLERANCE
    assert result.coords_checked > 0


def test_mode_validation():
    with pytest.raises(ValueError):
        check_gradients("distmult", mode="hessian")


def test_random_instance_is_deterministic():
    a = _random_instance("distmult", 8, 16, 5, 0, seed=3)
    b = _random_instance("distmult", 8, 16, 5, 0, seed=3)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_random_instance_avoids_saturation():
    from radkg.gradcheck import SATURATION_LIMIT
    from radkg.kg import RelationKind
    for seed in range(5):
        model, c_x, _, _ = _random_instance("conve", 64, 100, 5, 8, seed=seed)
        psi = score_all_objects(model, c_x, RelationKind.HAS_FINDING)
        assert np.max(np.abs(psi)) <= SATURATION_LIMIT


def test_default_cases_cover_width_grid():
    plain = default_cases("distmult")
    conv = default_cases("conve")
    assert len(plain) == 6
    assert {(c[1], c[2]) for c in plain} == {(8, 4), (8, 16), (8, 100),
                                             (1024, 4), (1024, 16), (1024, 100)}
    assert len(conv) == 8
    assert all(c[2] in (25, 100) for c in conv)
    assert {c[4] for c in conv} == {1, 8}
    with pytest.raises(ValueError):
        default_cases("mlp")


def test_run_suite_aggregates_worst_case():
    report = run_suite([("distmult", 8, 16, 4, 0)], seeds=range(3), mode="loss")
    assert len(report.results) == 3
    assert report.max_rel_error == max(r.max_rel_error for r in report.results)
    assert report.passed


def test_run_suite_refuses_to_check_nothing():
    with pytest.raises(ValueError, match="at least one case and one seed"):
        run_suite([("distmult", 8, 16, 4, 0)], seeds=range(0))
    with pytest.raises(ValueError, match="at least one case and one seed"):
        run_suite([], seeds=range(3))
    for tolerance in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            run_suite([("distmult", 8, 16, 4, 0)], seeds=range(1), tolerance=tolerance)


def test_nan_gradient_is_the_worst_error(monkeypatch):
    true_backward = scoring.backward

    def nan_in_er(model, cache, dpsi):
        grads, d_es = true_backward(model, cache, dpsi)
        grads["er"] = np.full_like(grads["er"], np.nan)
        return grads, d_es

    monkeypatch.setattr(scoring, "backward", nan_in_er)
    result = check_gradients("distmult", feature_dim=8, embed_dim=16,
                             n_findings=4, seed=0, mode="loss")
    assert np.isnan(result.max_rel_error)
    report = run_suite([("distmult", 8, 16, 4, 0)], seeds=range(2), mode="loss")
    assert np.isnan(report.max_rel_error) and not report.passed


def test_corrupted_gradient_is_caught(monkeypatch):
    """Negative control: a biased backward pass must fail the check."""
    true_backward = scoring.backward

    def biased(model, cache, dpsi):
        grads, d_es = true_backward(model, cache, dpsi)
        return grads, d_es + 1e-2

    monkeypatch.setattr(scoring, "backward", biased)
    result = check_gradients("distmult", feature_dim=8, embed_dim=16,
                             n_findings=4, seed=0, mode="loss")
    assert result.max_rel_error > TOLERANCE


def test_corrupted_conv_backward_is_caught(monkeypatch):
    """A sign error inside the conv backward pass must fail the check."""
    from radkg import kernel
    true_bwd = kernel.conv2d_bwd

    def flipped(inp, kernels, upstream, workspace=None):
        d_inp, d_kernels = true_bwd(inp, kernels, upstream, workspace)
        return d_inp, -d_kernels

    monkeypatch.setattr(kernel, "conv2d_bwd", flipped)
    result = check_gradients("conve", feature_dim=8, embed_dim=25,
                             n_findings=4, channels=2, seed=0, mode="loss")
    assert result.max_rel_error > TOLERANCE
