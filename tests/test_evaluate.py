"""Tests for AUC, macro reports, thresholded metrics, and prediction output."""

import threading

import numpy as np
import pytest

from helpers import (
    QUOTED_IDS,
    abs_scores,
    auc_bruteforce,
    make_table,
    pin_cpus_and_blas,
    random_table,
    reference_midranks,
    reference_predict_table,
    reference_sigmoid,
    reference_write_predictions,
)

from radkg import (
    RelationKind, UncertainPolicy, evaluate, init_model, kernel, macro_auc, param_count,
    predict_table,
)
from radkg.encoders import FeatureTable
from radkg.evaluate import (
    EvalReport,
    Predictions,
    _midranks,
    auc_roc,
    classify,
    format_report,
    write_predictions,
)
from radkg.artifacts import data_lines as _data_lines, split_csv_line as _split_csv_line
from radkg.kg import relation_grid


def grid(*rows):
    """``Predictions`` stacked from ``(image_id, psi)`` rows."""
    ids, psi = zip(*rows)
    return Predictions(list(ids), np.array(psi, dtype=np.float64))


def logit(p):
    """Scores whose sigmoids are ``p`` up to rounding; logit(0.5) is 0.0
    exactly, whose sigmoid is 0.5 exactly."""
    p = np.asarray(p, dtype=np.float64)
    return np.log(p) - np.log1p(-p)


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


def test_midranks_match_pairwise_tie_averaging(rng):
    for trial in range(2000):
        size = int(rng.integers(1, 30))
        if trial % 2:
            values = rng.integers(-3, 4, size=size).astype(np.float64)  # many ties
        else:
            values = rng.normal(size=size)
        if trial % 5 == 0:
            values[rng.integers(0, size)] = rng.choice([np.inf, -np.inf, -0.0])
        assert _midranks(values).tolist() == reference_midranks(values)
    assert _midranks(np.array([])).shape == (0,)


def test_auc_nan_score_gives_nan():
    assert np.isnan(auc_roc([0.2, np.nan, 0.7], [0, 1, 1]))


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


def test_predict_table_aligns_ids(rng):
    model = init_model("distmult", 6, 9, 4, seed=3)
    features = FeatureTable(["a", "b"], rng.normal(size=(2, 6)))
    predictions = predict_table(model, features)
    assert predictions.image_ids == ["a", "b"]
    assert len(predictions) == 2
    assert predictions.psi.shape == predictions.p.shape == (2, 4)


#: Relation lists in which hasFinding is not row 0 of ``er``.
SHUFFLED_RELATIONS = [
    (RelationKind.PROBABLY_HAS_FINDING, RelationKind.HAS_FINDING),
    (RelationKind.CO_OCCURS, RelationKind.PROBABLY_HAS_FINDING, RelationKind.HAS_FINDING),
    (RelationKind.CO_OCCURS, RelationKind.HAS_FINDING, RelationKind.PROBABLY_HAS_FINDING),
]


def test_distmult_predict_table_matches_the_chunked_forward():
    """The folded (n, D) map sums in another order than ``scoring.forward``,
    so each psi is held to the error bound of a re-associated sum: 1e-12
    times the same sum taken over absolute values (worst seen 4.5e-16).
    p is the sigmoid of that psi, bit for bit."""
    rng = np.random.default_rng(88)
    # After the random cases (m <= 300), two with m >> n, where OpenBLAS picks
    # other kernels: fit-distmult's table and the paper's D, d and n at m=5000.
    shaped = [(2000, 1024, 100, 14), (5000, 1024, 100, 14)]
    for case in range(400 + len(shaped)):
        if case < 400:
            m = 0 if case % 20 == 0 else int(rng.integers(1, 301))
            dim, embed_dim = int(rng.choice([3, 17, 128, 1024])), int(rng.choice([2, 16, 100]))
            n = int(rng.integers(1, 15))
        else:
            m, dim, embed_dim, n = shaped[case - 400]
        relations = SHUFFLED_RELATIONS[case % len(SHUFFLED_RELATIONS)]
        model = init_model("distmult", dim, embed_dim, n, relations=relations, seed=case)
        scale = 10.0 ** rng.uniform(-2, 2)
        features = FeatureTable([f"i{i}" for i in range(m)], scale * rng.normal(size=(m, dim)))
        got, want = predict_table(model, features), reference_predict_table(model, features)
        bound = 1e-12 * abs_scores(model, features.codes)
        assert got.image_ids == want.image_ids
        assert got.psi.shape == want.psi.shape == (m, model.n_findings)
        assert np.all(np.abs(got.psi - want.psi) <= bound), case
        assert np.array_equal(got.p, reference_sigmoid(got.psi))


def test_conve_predict_table_matches_the_chunked_forward():
    """The conv scorer's table folds the convolution rows that read only the
    relation into one vector, so its z2 sums in another order than
    ``scoring.forward``; psi is held to 1e-12 times the same score taken over
    absolute values, and p is the sigmoid of that psi, bit for bit. d = 25
    leaves one such row, d = 100 six of sixteen."""
    rng = np.random.default_rng(89)
    for case in range(320):
        m = 0 if case % 20 == 0 else int(rng.integers(1, 301))
        dim, embed_dim = int(rng.choice([3, 17, 128, 1024])), int(rng.choice([25, 36, 49, 100]))
        relations = SHUFFLED_RELATIONS[case % len(SHUFFLED_RELATIONS)]
        model = init_model("conve", dim, embed_dim, int(rng.integers(1, 15)), relations=relations,
                           channels=int(rng.integers(1, 9)), seed=case)
        scale = 10.0 ** rng.uniform(-2, 2)
        features = FeatureTable([f"i{i}" for i in range(m)], scale * rng.normal(size=(m, dim)))
        got, want = predict_table(model, features), reference_predict_table(model, features)
        bound = 1e-12 * abs_scores(model, features.codes)
        assert got.image_ids == want.image_ids
        assert got.psi.shape == want.psi.shape == (m, model.n_findings)
        assert np.all(np.abs(got.psi - want.psi) <= bound), case
        assert np.array_equal(got.p, reference_sigmoid(got.psi))


def wrap_range_tasks(monkeypatch, wrap):
    """Make ``kernel.Lanes.run`` call ``wrap(task)`` in place of each range
    task it receives, in the thread that runs that task."""
    run = kernel.Lanes.run

    def wrapped(self, tasks):
        return run(self, [lambda task=task: wrap(task) for task in tasks])

    monkeypatch.setattr(kernel.Lanes, "run", wrapped)


def trace_range_threads(monkeypatch):
    """A list that each range task of a table appends its thread to as it
    runs."""
    threads = []

    def traced(task):
        threads.append(threading.current_thread())
        return task()

    wrap_range_tasks(monkeypatch, traced)
    return threads


# Each scorer's model, its chunk, and table sizes around that chunk's multiples.
LANE_CASES = {
    "distmult": (lambda: init_model("distmult", 16, 8, 6, seed=5), "DISTMULT_CHUNK",
                 (0, 1, 511, 512, 513, 1535, 1536, 1537, 2047, 2048, 2049, 5000)),
    "conve": (lambda: init_model("conve", 16, 25, 6, channels=3, seed=5), "PREDICT_CHUNK",
              (0, 1, 63, 64, 65, 255, 256, 257, 1000)),
}


@pytest.mark.parametrize("scorer", sorted(LANE_CASES))
def test_a_table_is_bitwise_the_same_on_every_cpu_count(monkeypatch, scorer):
    """Each range starts on a chunk boundary, so every chunk runs the
    products of the one-range loop: psi and p are equal bit for bit at 1 to
    4 CPUs, and with one BLAS thread a table of c chunks uses
    min(CPUs, c // 2) threads."""
    make_model, chunk, sizes = LANE_CASES[scorer]
    model, rng = make_model(), np.random.default_rng(6)
    threads = trace_range_threads(monkeypatch)
    for m in sizes:
        features = FeatureTable([f"i{i}" for i in range(m)], rng.normal(size=(m, 16)))
        tables = []
        for cpus in (1, 2, 3, 4):
            pin_cpus_and_blas(monkeypatch, cpus, {"OPENBLAS_NUM_THREADS": "1"})
            threads.clear()
            tables.append(predict_table(model, features))
            lanes = max(1, min(cpus, -(-m // getattr(evaluate, chunk)) // 2))
            assert len(threads) == len(set(threads)) == lanes, (m, cpus)
        for got in tables[1:]:
            assert got.image_ids == tables[0].image_ids
            assert got.psi.tobytes() == tables[0].psi.tobytes(), m
            assert got.p.tobytes() == tables[0].p.tobytes(), m


@pytest.mark.parametrize("scorer", sorted(LANE_CASES))
@pytest.mark.parametrize("chunks", [1, 3, 4, 9])
def test_a_table_takes_a_lane_per_two_chunks_up_to_the_lanes_there_are(monkeypatch, scorer,
                                                                         chunks):
    """At 4 lanes a table of c chunks runs on min(4, max(1, c // 2)) threads:
    ``predict_table`` caps its range count, not the lanes it opens."""
    make_model, chunk, _ = LANE_CASES[scorer]
    m = chunks * getattr(evaluate, chunk)
    features = FeatureTable([f"i{i}" for i in range(m)],
                            np.random.default_rng(9).normal(size=(m, 16)))
    threads = trace_range_threads(monkeypatch)
    pin_cpus_and_blas(monkeypatch, 4, {"OPENBLAS_NUM_THREADS": "1"})
    predict_table(make_model(), features)
    assert len(threads) == len(set(threads)) == min(4, max(1, chunks // 2))


@pytest.mark.parametrize("scorer", sorted(LANE_CASES))
@pytest.mark.parametrize("env,cpus,lanes", [
    ({}, 4, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 4),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 3, 1),
    ({"OPENBLAS_NUM_THREADS": "8"}, 4, 1),
    ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4, 4),
    ({"OMP_NUM_THREADS": "1"}, 3, 3),
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 4, 2),
    ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 2, 2),
])
def test_a_table_leaves_the_blas_threads_their_cpus(monkeypatch, scorer, env, cpus, lanes):
    """Ranges take only the CPUs the BLAS's threads leave: CPUs // the first
    positive OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS, and
    one range when none is set, as OpenBLAS then runs on every CPU."""
    make_model, chunk, _ = LANE_CASES[scorer]
    m = 8 * getattr(evaluate, chunk)
    features = FeatureTable([f"i{i}" for i in range(m)],
                            np.random.default_rng(8).normal(size=(m, 16)))
    threads = trace_range_threads(monkeypatch)
    pin_cpus_and_blas(monkeypatch, cpus, env)
    predict_table(make_model(), features)
    assert len(threads) == len(set(threads)) == lanes


@pytest.mark.parametrize("scorer", sorted(LANE_CASES))
def test_a_failing_range_raises_in_the_caller_and_leaves_no_thread(monkeypatch, scorer):
    """An exception in a worker's range reaches the caller, and both a normal
    call and a failing one join every thread they start."""
    pin_cpus_and_blas(monkeypatch, 3, {"OPENBLAS_NUM_THREADS": "1"})
    make_model, chunk, _ = LANE_CASES[scorer]
    model, m = make_model(), 8 * getattr(evaluate, chunk)
    features = FeatureTable([f"i{i}" for i in range(m)],
                            np.random.default_rng(7).normal(size=(m, 16)))
    before = threading.active_count()
    predict_table(model, features)
    assert threading.active_count() == before

    def failing_in_workers(task):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("worker range")
        return task()

    wrap_range_tasks(monkeypatch, failing_in_workers)
    with pytest.raises(MemoryError, match="worker range"):
        predict_table(model, features)
    assert threading.active_count() == before


@pytest.mark.parametrize("scorer", sorted(LANE_CASES))
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_table_takes_its_sigmoid_once_and_only_when_p_is_read(monkeypatch, scorer, cpus):
    """``predict_table`` stores scores only: no range calls ``kernel.sigmoid``.
    The first read of ``p`` calls it once, on psi, and later reads return
    that same array."""
    make_model, chunk, _ = LANE_CASES[scorer]
    m = 4 * getattr(evaluate, chunk) + 1
    features = FeatureTable([f"i{i}" for i in range(m)],
                            np.random.default_rng(4).normal(size=(m, 16)))
    pin_cpus_and_blas(monkeypatch, cpus, {"OPENBLAS_NUM_THREADS": "1"})
    calls, sigmoid = [], kernel.sigmoid

    def counted(x):
        calls.append(x)
        return sigmoid(x)

    monkeypatch.setattr(kernel, "sigmoid", counted)
    threads = trace_range_threads(monkeypatch)
    table = predict_table(make_model(), features)
    assert len(set(threads)) == cpus
    assert calls == []
    p = table.p
    assert len(calls) == 1 and calls[0] is table.psi
    assert p.tobytes() == sigmoid(table.psi).tobytes()
    assert table.p is p and len(calls) == 1


def test_classify_strict_threshold():
    p = np.array([[0.2, 0.5, 0.8]])
    assert classify(p, 0.5).tolist() == [[0, 0, 1]]
    with pytest.raises(ValueError):
        classify(p, 1.0)
    with pytest.raises(ValueError):
        classify(p, 0.0)


# ---------------------------------------------------------------- macro


def test_macro_auc_simple_mean():
    truth = make_table([[1, 0], [0, 1], [1, 1], [0, 0]])
    rows = grid(
        ("img0", [0.9, 0.1]),
        ("img1", [0.2, 0.8]),
        ("img2", [0.8, 0.7]),
        ("img3", [0.1, 0.2]),
    )
    report = macro_auc(rows, truth)
    assert report.auc == [1.0, 1.0]
    assert report.macro == 1.0
    assert report.positives == [2, 2] and report.negatives == [2, 2]


def test_macro_auc_skips_undefined_findings():
    truth = make_table([[1, 1], [0, 1]])  # second finding: all positive
    rows = grid(("img0", [0.9, 0.5]), ("img1", [0.1, 0.5]))
    report = macro_auc(rows, truth)
    assert report.auc == [1.0, None]
    assert report.macro == 1.0


def test_macro_auc_all_undefined_is_none():
    truth = make_table([[1, 1]])
    report = macro_auc(grid(("img0", [0.9, 0.5])), truth)
    assert report.macro is None


def test_macro_auc_policy_changes_truth():
    truth = make_table([[-1, 0], [0, 1]])
    rows = grid(("img0", [0.9, 0.1]), ("img1", [0.1, 0.9]))
    as_pos = macro_auc(rows, truth, UncertainPolicy.AS_POSITIVE)
    as_neg = macro_auc(rows, truth, UncertainPolicy.AS_NEGATIVE)
    assert as_pos.auc[0] == 1.0      # uncertain counts as positive
    assert as_neg.auc[0] is None     # no positives left for finding 0
    as_sep = macro_auc(rows, truth, UncertainPolicy.AS_SEPARATE_RELATION)
    assert as_sep.auc[0] is None     # uncertain is not a hasFinding fact


def test_macro_auc_uses_raw_scores_not_probabilities():
    # identical probabilities but distinct psi: ranking comes from psi
    truth = make_table([[1], [0]])
    rows = grid(("img0", [900.0]), ("img1", [800.0]))
    assert rows.p.tolist() == [[1.0], [1.0]]
    assert macro_auc(rows, truth).auc == [1.0]


def test_macro_auc_finding_subset():
    truth = make_table([[1, 0, 1], [0, 1, 0]])
    rows = grid(("img0", [0.9, 0.1, 0.9]), ("img1", [0.1, 0.9, 0.2]))
    report = macro_auc(rows, truth, findings=["f2", "f0"])
    assert report.finding_names == ["f2", "f0"]
    assert report.auc == [1.0, 1.0]
    with pytest.raises(ValueError):
        macro_auc(rows, truth, findings=["nope"])


def test_macro_auc_refuses_a_finding_named_twice():
    """A repeated name would count its AUC twice in the macro mean."""
    truth = make_table([[1, 0, 1], [0, 1, 0]])
    rows = grid(("img0", [0.9, 0.1, 0.9]), ("img1", [0.1, 0.9, 0.2]))
    with pytest.raises(ValueError, match="finding 'f0' is named twice"):
        macro_auc(rows, truth, findings=["f0", "f0", "f1"])
    with pytest.raises(ValueError, match="finding 'f2' is named twice"):
        macro_auc(rows, truth, findings=["f2", "f1", "f2"])


@pytest.mark.parametrize("policy", list(UncertainPolicy))
def test_macro_auc_matches_a_per_finding_loop(rng, policy):
    """The report's column sums equal counts taken one finding and one row at
    a time, on shuffled rows with extra ids, ties, subsets and m=0. psi = 0
    has p = 0.5 exactly, a tie with the threshold."""
    for m in (0, 1, 7, 40):
        truth = random_table(rng, m, 5, uncertain=True, unmentioned=True)
        ids = list(rng.permutation(truth.image_ids + ["x0", "x1", "x2"]))
        psi = rng.integers(-2, 3, size=(len(ids), 5)).astype(np.float64)
        rows = Predictions(ids, psi)
        at = [ids.index(i) for i in truth.image_ids]
        y = relation_grid(truth, policy)
        for findings in (None, ["f3", "f0"], ["f1"]):
            report = macro_auc(rows, truth, policy, findings=findings, tau=0.5)
            names = findings or truth.finding_names
            assert report.finding_names == names
            aucs = []
            for k, name in enumerate(names):
                j = truth.finding_names.index(name)
                labels = [bool(y[r, j]) for r in range(m)]
                above = [rows.p[a, j] > 0.5 for a in at]
                pos = sum(labels)
                tp = sum(a and t for a, t in zip(above, labels))
                tn = sum(not a and not t for a, t in zip(above, labels))
                assert (report.positives[k], report.negatives[k]) == (pos, m - pos)
                assert report.sensitivity[k] == (tp / pos if pos else None)
                assert report.specificity[k] == (tn / (m - pos) if m - pos else None)
                aucs.append(auc_roc([psi[a, j] for a in at], labels))
            assert report.auc == aucs
            defined = [a for a in aucs if a is not None]
            assert report.macro == (float(np.mean(defined)) if defined else None)


def test_macro_auc_matches_rows_by_id():
    """Prediction rows in another order, plus rows truth does not list."""
    truth = make_table([[1, 0], [0, 1], [1, 1], [0, 0]])
    rows = grid(
        ("extra", [-5.0, 5.0]),
        ("img3", [-0.4, -0.3]),
        ("img2", [0.3, 0.2]),
        ("img1", [-0.3, 0.3]),
        ("img0", [0.4, -0.4]),
    )
    report = macro_auc(rows, truth, tau=0.5)
    assert report.auc == [1.0, 1.0]
    assert report.sensitivity == [1.0, 1.0] and report.specificity == [1.0, 1.0]


def test_macro_auc_id_matching_errors():
    truth = make_table([[1], [0]])
    with pytest.raises(ValueError):
        macro_auc(grid(("img0", [0.9])), truth)  # img1 missing
    rows = grid(("img0", [0.9]), ("img0", [0.8]))
    with pytest.raises(ValueError):
        macro_auc(rows, truth)


def test_macro_auc_threshold_metrics():
    truth = make_table([[1], [1], [0], [0]])
    rows = grid(
        ("img0", logit([0.9])),
        ("img1", logit([0.4])),
        ("img2", logit([0.6])),
        ("img3", logit([0.1])),
    )
    report = macro_auc(rows, truth, tau=0.5)
    assert report.sensitivity == [0.5]   # one of two positives above tau
    assert report.specificity == [0.5]   # one of two negatives at or below
    assert report.tau == 0.5


@pytest.mark.parametrize("tau", [1.5, 0.0, 1.0, -0.1, float("nan")])
def test_macro_auc_rejects_threshold_outside_unit_interval(tau):
    truth = make_table([[1], [0]])
    rows = grid(("img0", [0.9]), ("img1", [0.1]))
    with pytest.raises(ValueError, match=r"threshold must be inside \(0, 1\)"):
        macro_auc(rows, truth, tau=tau)


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
    rows = grid(("img0", logit([0.25, 0.75])), ("img1", logit([0.6, 0.4])))
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
    write_predictions(grid(("img0", [0.5])), ["a"], path)
    assert path.read_text().splitlines()[0] == "id,a"


@pytest.mark.parametrize("tau", [None, 0.5, 0.25])
def test_write_predictions_matches_per_row_writer(tmp_path, rng, tau):
    psi = logit(rng.random((23, 5)))
    psi[3, 1] = psi[7, 4] = 0.0                       # p = 0.5, at the threshold: label 0
    psi[5, 2], psi[9, 0] = logit([0.1234565, 0.9999996])  # six-decimal rounding edges
    psi[11] = [-800.0, 800.0, *logit([0.25, 1e-12, 1.0 - 1e-12])]  # p = 0.0 and 1.0 exactly
    predictions = Predictions([f"img{i:03d}" for i in range(23)], psi)
    names = [f"f{j}" for j in range(5)]
    comments = ["command = predict", "tau = x"]
    write_predictions(predictions, names, tmp_path / "grid.csv", tau=tau, comments=comments)
    reference_write_predictions(zip(predictions.image_ids, reference_sigmoid(psi)), names,
                                tmp_path / "rows.csv", tau=tau, comments=comments)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def exactly(p):
    """``Predictions`` whose probabilities are exactly ``p``, row by row; the
    scores are zero, as the writer reads only their width."""
    p = np.asarray(p, dtype=np.float64)
    predictions = Predictions([f"img{i:03d}" for i in range(len(p))], np.zeros_like(p))
    predictions.p = p
    return predictions


def rounding_edges():
    """Probabilities where ``"%.6f"`` is hardest to match: exact ties of the
    sixth decimal and their neighbours, products ``p * 1e6`` within 1e-9 of
    a half either way, the ends of [0, 1] and a NaN, in rows of 7."""
    ties = np.array([2.0 ** -7, 3 / 8, 5 / 8, 0.5, 8192 / 2 ** 20, 0.0078125 * 3])
    offsets = np.array([-2e-9, -1e-9, -9e-10, -5e-10, -1e-10, 1e-10, 5e-10, 9e-10, 1e-9, 2e-9])
    near = (np.array([1234, 456789, 999999])[:, None] + 0.5 + offsets) / 1e6
    ends = [0.0, 1.0, 5e-324, np.nextafter(1.0, 0), 0.9999995, 0.0000005, 0.1234565, np.nan]
    p = np.concatenate([ties, np.nextafter(ties, 0), np.nextafter(ties, 1), near.ravel(), ends])
    return np.resize(p, (-(-len(p) // 7), 7))


@pytest.mark.parametrize("tau", [None, 0.5, 0.25])
def test_write_predictions_matches_per_row_writer_at_rounding_edges(tmp_path, tau):
    """Ties, near-ties, 0.9999995 (which rounds up to 1.000000), 0.0, 1.0
    and NaN come out as the per-row writer's ``"%.6f"`` prints them, and a
    NaN score's row reads ``nan`` with label 0."""
    names = [f"f{j}" for j in range(7)]
    nan_psi = Predictions(["a", "b"], np.array([[np.nan, 0.0, 1.0], [-1.0, 2.0, np.nan]]))
    for number, (predictions, width) in enumerate([(exactly(rounding_edges()), 7), (nan_psi, 3)]):
        fast, slow = tmp_path / f"grid{number}.csv", tmp_path / f"rows{number}.csv"
        write_predictions(predictions, names[:width], fast, tau=tau)
        reference_write_predictions(zip(predictions.image_ids, predictions.p), names[:width],
                                    slow, tau=tau)
        assert fast.read_bytes() == slow.read_bytes(), number
    labels = {None: ("", ""), 0.5: (",0,0,1", ",0,1,0"), 0.25: (",0,1,1", ",1,1,0")}[tau]
    assert fast.read_text().endswith(f"\na,nan,0.500000,0.731059{labels[0]}\n"
                                     f"b,0.268941,0.880797,nan{labels[1]}\n")
    edges = rounding_edges().ravel().tolist()
    cells = [cell for line in (tmp_path / "grid0.csv").read_text().splitlines()[1:]
             for cell in line.split(",")[1:8]]
    assert cells[edges.index(0.9999995)] == "1.000000" and cells[edges.index(1.0)] == "1.000000"


def test_write_predictions_matches_per_row_writer_at_every_multiple_of_two_to_the_minus_20(tmp_path):
    """Every k / 2**20 in [0, 1), whose products with 1e6 hold the 64 exact
    ties k = 8192 (mod 16384), reads as the per-row writer prints it."""
    predictions = exactly(np.arange(2 ** 20).reshape(-1, 16) / 2 ** 20)
    names = [f"f{j}" for j in range(16)]
    write_predictions(predictions, names, tmp_path / "grid.csv")
    reference_write_predictions(zip(predictions.image_ids, predictions.p), names, tmp_path / "rows.csv")
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_only_a_row_with_a_cell_that_is_not_plain_is_formatted_with_percent(tmp_path, rng, monkeypatch):
    """A random table fills every cell from the byte grid; a row holding an
    exact tie is formatted with ``%``, and so formatting every row writes
    the same bytes."""
    micros, plain = evaluate._micros, []

    def spy(p):
        result = micros(p)
        plain.append(result[1])
        return result

    monkeypatch.setattr(evaluate, "_micros", spy)
    names = [f"f{j}" for j in range(14)]
    random = Predictions([f"img{i}" for i in range(2000)], rng.normal(size=(2000, 14)) * 4)
    write_predictions(random, names, tmp_path / "grid.csv", tau=0.5)
    assert plain[-1].all()
    p = random.p.copy()
    p[3, 5] = 2.0 ** -7
    write_predictions(exactly(p), names, tmp_path / "tie.csv", tau=0.5)
    assert np.flatnonzero(~plain[-1].all(axis=1)).tolist() == [3]
    monkeypatch.setattr(evaluate, "_micros", lambda p: (micros(p)[0], np.zeros(p.shape, bool)))
    write_predictions(random, names, tmp_path / "rows.csv", tau=0.5)
    assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_write_predictions_quotes_ids_that_need_it(tmp_path):
    """Each row reads back whole, with its id, through the artifact line
    reader: quoted as ``csv.writer`` quotes, and where the line would read as
    a comment. A plain id is written bare."""
    ids = [*QUOTED_IDS, "plain"]
    path = tmp_path / "pred.csv"
    write_predictions(Predictions(ids, np.zeros((len(ids), 2))), ["a", "b"], path, tau=0.25)
    rows = [_split_csv_line(text) for _, text in _data_lines(path)]
    assert rows[0] == ["id", "a", "b", "a_label", "b_label"]
    assert rows[1:] == [[i, "0.500000", "0.500000", "1", "1"] for i in ids]
    assert path.read_text().endswith("\nplain,0.500000,0.500000,1,1\n")


@pytest.mark.parametrize("tau", [None, 0.25])
def test_finding_names_that_need_quoting_read_back_whole(tmp_path, tau):
    """Finding names are quoted as ids are, in the predictions header and in
    the report lines, so each reads back as one cell; a report line whose
    name would read as a comment is quoted too."""
    names = [*QUOTED_IDS, "plain"]
    n = len(names)
    path = tmp_path / "pred.csv"
    write_predictions(Predictions(["img0"], np.zeros((1, n))), names, path, tau=tau)
    header = _split_csv_line(next(_data_lines(path))[1])
    labels = [] if tau is None else [f"{name}_label" for name in names]
    assert header == ["id", *names, *labels]

    report = EvalReport(finding_names=names, auc=[0.5] * n, macro=0.5, positives=[1] * n,
                        negatives=[1] * n, tau=tau, sensitivity=[1.0] * n, specificity=[0.0] * n)
    path.write_text(format_report(report, echo=["command = eval"]))
    rows = [_split_csv_line(text) for _, text in _data_lines(path)]
    extra = [] if tau is None else ["1.000000", "0.000000"]
    assert rows[1:-1] == [[name, "1", "1", "0.500000", *extra] for name in names]
    assert rows[-1] == ["macro_auc", "0.500000"]


def test_write_predictions_rejects_width_mismatch(tmp_path):
    with pytest.raises(ValueError):
        write_predictions(grid(("img0", [0.5, 0.5])), ["a"], tmp_path / "pred.csv")


def test_binary_truth_policies():
    truth = make_table([[1, -1, 0, -2]])
    assert relation_grid(truth, UncertainPolicy.AS_POSITIVE).tolist() == [[1, 1, 0, 0]]
    assert relation_grid(truth, UncertainPolicy.AS_NEGATIVE).tolist() == [[1, 0, 0, 0]]
    assert relation_grid(truth, UncertainPolicy.AS_SEPARATE_RELATION).tolist() == [[1, 0, 0, 0]]
