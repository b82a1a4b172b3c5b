"""Tests for AUC, macro reports, thresholded metrics, and prediction output."""

import numpy as np
import pytest

from helpers import make_table

from radkg import (
    PredictionRow,
    RelationKind,
    UncertainPolicy,
    auc_bruteforce,
    auc_roc,
    classify,
    format_report,
    init_model,
    macro_auc,
    param_count,
    predict,
    predict_table,
    relation_grid,
    write_predictions,
)
from radkg.encoders import FeatureTable
from radkg.evaluate import EvalReport


def row(image_id, p, psi=None):
    p = np.asarray(p, dtype=np.float64)
    return PredictionRow(image_id=image_id,
                         psi=p if psi is None else np.asarray(psi, float),
                         p=p)


# ---------------------------------------------------------------- auc


def test_auc_known_value():
    assert auc_roc([0.9, 0.1, 0.8, 0.2], [1, 0, 0, 1]) == 0.75


def test_auc_perfect_reversed_constant():
    assert auc_roc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
    assert auc_roc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0
    assert auc_roc([0.5, 0.5, 0.5, 0.5], [1, 1, 0, 0]) == 0.5


def test_auc_undefined_single_class():
    assert auc_roc([0.1, 0.9], [1, 1]) is None
    assert auc_roc([0.1, 0.9], [0, 0]) is None
    assert auc_bruteforce([0.1], [1]) is None


def test_auc_tie_uses_midranks():
    # one positive tied with one negative: the tied pair contributes 1/2
    assert auc_roc([0.5, 0.5, 0.1], [1, 0, 0]) == 0.75


def test_auc_validation():
    with pytest.raises(ValueError):
        auc_roc([0.1, 0.2], [0, 2])
    with pytest.raises(ValueError):
        auc_roc([0.1], [0, 1])


def test_auc_matches_bruteforce_random(rng):
    for trial in range(200):
        size = int(rng.integers(2, 40))
        # quantized scores force plenty of ties
        scores = np.round(rng.random(size) * 4) / 4.0
        labels = rng.integers(0, 2, size=size)
        fast = auc_roc(scores, labels)
        slow = auc_bruteforce(scores, labels)
        if fast is None:
            assert slow is None
        else:
            assert abs(fast - slow) <= 1e-12


def test_auc_invariant_under_monotone_transform(rng):
    scores = rng.normal(size=60)
    labels = rng.integers(0, 2, size=60)
    labels[:2] = [0, 1]
    base = auc_roc(scores, labels)
    assert auc_roc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc_roc(2.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)


def test_auc_label_flip_complements(rng):
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    labels[:2] = [0, 1]
    assert auc_roc(scores, 1 - labels) == pytest.approx(1.0 - auc_roc(scores, labels),
                                                        abs=1e-12)


# ---------------------------------------------------------------- inference


def test_predict_scores_has_finding(rng):
    model = init_model("distmult", 6, 9, 4, seed=3)
    c_x = rng.normal(size=6)
    out = predict(model, c_x, "img9")
    from radkg.scoring import score_all_objects
    assert np.array_equal(out.psi,
                          score_all_objects(model, c_x, RelationKind.HAS_FINDING))
    assert out.image_id == "img9"
    assert np.all((out.p > 0) & (out.p < 1))


def test_predict_table_aligns_ids(rng):
    model = init_model("distmult", 6, 9, 4, seed=3)
    features = FeatureTable(["a", "b"], rng.normal(size=(2, 6)))
    rows = predict_table(model, features)
    assert [r.image_id for r in rows] == ["a", "b"]


def test_classify_strict_threshold():
    r = row("x", [0.2, 0.5, 0.8])
    assert classify(r, 0.5).tolist() == [0, 0, 1]
    with pytest.raises(ValueError):
        classify(r, 1.0)
    with pytest.raises(ValueError):
        classify(r, 0.0)


# ---------------------------------------------------------------- macro


def test_macro_auc_simple_mean():
    truth = make_table([[1, 0], [0, 1], [1, 1], [0, 0]])
    rows = [
        row("img0", [0.9, 0.1]),
        row("img1", [0.2, 0.8]),
        row("img2", [0.8, 0.7]),
        row("img3", [0.1, 0.2]),
    ]
    report = macro_auc(rows, truth)
    assert report.auc == [1.0, 1.0]
    assert report.macro == 1.0
    assert report.positives == [2, 2] and report.negatives == [2, 2]


def test_macro_auc_skips_undefined_findings():
    truth = make_table([[1, 1], [0, 1]])  # second finding: all positive
    rows = [row("img0", [0.9, 0.5]), row("img1", [0.1, 0.5])]
    report = macro_auc(rows, truth)
    assert report.auc == [1.0, None]
    assert report.macro == 1.0


def test_macro_auc_all_undefined_is_none():
    truth = make_table([[1, 1]])
    report = macro_auc([row("img0", [0.9, 0.5])], truth)
    assert report.macro is None


def test_macro_auc_policy_changes_truth():
    truth = make_table([[-1, 0], [0, 1]])
    rows = [row("img0", [0.9, 0.1]), row("img1", [0.1, 0.9])]
    as_pos = macro_auc(rows, truth, UncertainPolicy.AS_POSITIVE)
    as_neg = macro_auc(rows, truth, UncertainPolicy.AS_NEGATIVE)
    assert as_pos.auc[0] == 1.0      # uncertain counts as positive
    assert as_neg.auc[0] is None     # no positives left for finding 0
    as_sep = macro_auc(rows, truth, UncertainPolicy.AS_SEPARATE_RELATION)
    assert as_sep.auc[0] is None     # uncertain is not a hasFinding fact


def test_macro_auc_uses_raw_scores_not_probabilities():
    # identical probabilities but distinct psi: ranking comes from psi
    truth = make_table([[1], [0]])
    rows = [
        PredictionRow("img0", psi=np.array([2.0]), p=np.array([0.5])),
        PredictionRow("img1", psi=np.array([1.0]), p=np.array([0.5])),
    ]
    assert macro_auc(rows, truth).auc == [1.0]


def test_macro_auc_finding_subset():
    truth = make_table([[1, 0, 1], [0, 1, 0]])
    rows = [row("img0", [0.9, 0.1, 0.9]), row("img1", [0.1, 0.9, 0.2])]
    report = macro_auc(rows, truth, findings=["f2", "f0"])
    assert report.finding_names == ["f2", "f0"]
    assert report.auc == [1.0, 1.0]
    with pytest.raises(ValueError):
        macro_auc(rows, truth, findings=["nope"])


def test_macro_auc_id_matching_errors():
    truth = make_table([[1], [0]])
    with pytest.raises(ValueError):
        macro_auc([row("img0", [0.9])], truth)  # img1 missing
    rows = [row("img0", [0.9]), row("img0", [0.8])]
    with pytest.raises(ValueError):
        macro_auc(rows, truth)


def test_macro_auc_threshold_metrics():
    truth = make_table([[1], [1], [0], [0]])
    rows = [
        row("img0", [0.9]),
        row("img1", [0.4]),
        row("img2", [0.6]),
        row("img3", [0.1]),
    ]
    report = macro_auc(rows, truth, tau=0.5)
    assert report.sensitivity == [0.5]   # one of two positives above tau
    assert report.specificity == [0.5]   # one of two negatives at or below
    assert report.tau == 0.5


# ---------------------------------------------------------------- params


def test_param_count_reference_sizes():
    distmult = init_model("distmult", 1024, 100, 14, seed=0)
    assert param_count(distmult) == 103_900
    mlp_reference = 1024 * 100 + 100 * 14
    assert mlp_reference == 103_800
    ratio = param_count(distmult) / mlp_reference - 1.0
    assert abs(ratio) < 0.002
    three_rel = init_model(
        "distmult", 1024, 100, 14,
        relations=(RelationKind.HAS_FINDING, RelationKind.PROBABLY_HAS_FINDING,
                   RelationKind.CO_OCCURS),
        seed=0)
    assert param_count(three_rel) == 103_900 + 200


def test_param_count_conve():
    model = init_model("conve", 1024, 100, 14, channels=8, seed=0)
    expected = 1024 * 100 + 14 * 100 + 100 + 8 * 25 + 768 * 100
    assert param_count(model) == expected


# ---------------------------------------------------------------- output


def test_format_report_layout():
    report = EvalReport(
        finding_names=["a", "b"],
        auc=[0.948109876, None],
        macro=0.948109876,
        positives=[3, 0],
        negatives=[5, 8],
    )
    text = format_report(report, echo=["command = eval", "fold = test"])
    lines = text.splitlines()
    assert lines[0] == "# command = eval"
    assert lines[1] == "# fold = test"
    assert lines[2] == "finding,positives,negatives,auc"
    assert lines[3] == "a,3,5,0.948110"
    assert lines[4] == "b,0,8,undefined"
    assert lines[5] == "macro_auc,0.948110"


def test_format_report_with_threshold_columns():
    report = EvalReport(
        finding_names=["a"], auc=[1.0], macro=1.0, positives=[1], negatives=[1],
        tau=0.5, sensitivity=[1.0], specificity=[0.0],
    )
    lines = format_report(report).splitlines()
    assert lines[0] == "finding,positives,negatives,auc,sensitivity,specificity"
    assert lines[1] == "a,1,1,1.000000,1.000000,0.000000"


def test_write_predictions_round_trip(tmp_path):
    rows = [row("img0", [0.25, 0.75]), row("img1", [0.6, 0.4])]
    path = tmp_path / "pred.csv"
    write_predictions(rows, ["a", "b"], path, tau=0.5,
                      comments=["command = predict"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# command = predict"
    assert lines[1] == "id,a,b,a_label,b_label"
    assert lines[2] == "img0,0.250000,0.750000,0,1"
    assert lines[3] == "img1,0.600000,0.400000,1,0"


def test_write_predictions_without_threshold(tmp_path):
    path = tmp_path / "pred.csv"
    write_predictions([row("img0", [0.5])], ["a"], path)
    assert path.read_text().splitlines()[0] == "id,a"


def test_binary_truth_policies():
    truth = make_table([[1, -1, 0, -2]])
    assert relation_grid(truth, UncertainPolicy.AS_POSITIVE).tolist() == [[1, 1, 0, 0]]
    assert relation_grid(truth, UncertainPolicy.AS_NEGATIVE).tolist() == [[1, 0, 0, 0]]
    assert relation_grid(truth, UncertainPolicy.AS_SEPARATE_RELATION).tolist() == [[1, 0, 0, 0]]
