"""Acceptance gate: one test per release criterion.

Each test carries a ``criterion`` marker; the conftest hook prints one
[PASS]/[FAIL] line per criterion as results come in. Values asserted here were
fixed against independent oracles (explicit triple-loop sums, pairwise AUC
counting, per-pair co-occurrence counting) or derived by hand; tolerances are
part of the contract, not tuning knobs.
"""

import time

import numpy as np
import pytest

from helpers import auc_bruteforce, select_features

from radkg import (
    RelationKind,
    SyntheticSpec,
    TrainConfig,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    conve_pipeline,
    cooccurrence_matrix,
    default_cases,
    embed_subject,
    init_model,
    load_checkpoint,
    macro_auc,
    param_count,
    predict_table,
    resolve_relations,
    run_suite,
    save_checkpoint,
    score_conve,
    score_distmult,
    split,
    synth_dataset,
    train,
)
from radkg.cli import main as cli_main
from radkg.evaluate import auc_roc
from radkg.kg import KnowledgeGraph


def criterion(label):
    return pytest.mark.criterion(label)


# -----------------------------------------------------------------------------


@criterion("gradient correctness: analytic vs central differences, 1e-4")
def test_gradient_correctness():
    start = time.perf_counter()
    loss_d = run_suite(default_cases("distmult"), seeds=range(10), mode="loss")
    loss_c = run_suite(default_cases("conve"), seeds=range(6), mode="loss")
    score_d = run_suite(default_cases("distmult"), seeds=range(3), mode="score")
    score_c = run_suite(default_cases("conve"), seeds=range(2), mode="score")
    elapsed = time.perf_counter() - start

    reports = [loss_d, loss_c, score_d, score_c]
    seed_configs = sum(len(r.results) for r in reports)
    worst = max(r.max_rel_error for r in reports)
    checked = sum(res.coords_checked for r in reports for res in r.results)

    assert seed_configs >= 100, seed_configs
    assert checked > 10_000, checked
    assert worst < 1e-4, f"worst relative error {worst:.3e}"
    assert all(r.passed for r in reports)
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f} s"


@criterion("distmult oracle: triple-loop equality and subject/object symmetry")
def test_distmult_oracle():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        d = int(rng.integers(1, 129))
        e_s, r_r, e_o = rng.normal(size=(3, d))
        psi = score_distmult(e_s, r_r, e_o)
        oracle = 0.0
        for k in range(d):
            oracle += float(e_s[k]) * float(r_r[k]) * float(e_o[k])
        assert abs(psi - oracle) <= 1e-12
        assert psi == score_distmult(e_o, r_r, e_s)


@criterion("conv scorer shape contract: 20x10 -> 8x16x6 -> 768 -> 100 -> scalar")
def test_conve_shape_contract():
    model = init_model("conve", feature_dim=64, embed_dim=100, n_findings=14,
                       channels=8, seed=0)
    e_s = embed_subject(model, np.random.default_rng(1).normal(size=64))
    pipe = conve_pipeline(model, e_s, model.er[0])
    assert pipe.stacked.shape == (20, 10)
    assert pipe.conv_out.shape == (8, 16, 6)
    assert pipe.flat.shape == (768,)
    assert pipe.z2.shape == (100,)
    psi = score_conve(model, e_s, model.er[0], model.ef[3])
    assert isinstance(psi, float)
    assert np.isfinite(psi)


@criterion("auc oracle: rank formulation vs pairwise counting, ties included")
def test_auc_oracle():
    assert auc_roc([4.0, 3.0, 2.0, 1.0], [1, 1, 0, 0]) == 1.0
    assert auc_roc([1.0, 2.0, 3.0, 4.0], [1, 1, 0, 0]) == 0.0
    assert auc_roc([5.0, 5.0, 5.0, 5.0], [1, 1, 0, 0]) == 0.5

    rng = np.random.default_rng(202)
    tied = 0
    for _ in range(1000):
        size = int(rng.integers(2, 41))
        scores = np.round(rng.random(size) * 6) / 6.0  # quantized: many ties
        labels = rng.integers(0, 2, size=size)
        labels[0], labels[1] = 0, 1  # both classes always present
        if len(np.unique(scores)) < size:
            tied += 1
        fast = auc_roc(scores, labels)
        slow = auc_bruteforce(scores, labels)
        assert abs(fast - slow) <= 1e-12
    assert tied >= 100, f"only {tied}/1000 instances had tied scores"


@criterion("co-occurrence oracle: edge set equals brute-force counting")
def test_cooccurrence_oracle():
    rng = np.random.default_rng(303)
    threshold = 0.2
    compared = 0
    trials = 0
    while compared < 100 and trials < 400:
        trials += 1
        m = int(rng.integers(1, 201))
        n = int(rng.integers(2, 15))
        labels = rng.choice(np.array([1, 0, -1, -2], dtype=np.int8),
                            size=(m, n), p=[0.35, 0.45, 0.1, 0.1])
        from helpers import make_table
        table = make_table(labels.tolist())
        policy = UncertainPolicy.AS_POSITIVE
        pos = (labels == 1) | (labels == -1)

        cond = cooccurrence_matrix(table, policy)
        defined = np.isfinite(cond)
        off_diag = ~np.eye(n, dtype=bool)
        if np.any(defined & off_diag & (cond == threshold)):
            continue  # strict-threshold boundary excluded from the random suite
        compared += 1

        kg = add_cooccurrence(KnowledgeGraph([], m, n), cond, threshold)
        got = set(map(tuple, np.argwhere(kg.grid(RelationKind.CO_OCCURS)).tolist()))
        expected = set()
        for j in range(n):
            denom = int(pos[:, j].sum())
            if denom == 0:
                continue
            for i in range(n):
                if i == j:
                    continue
                if int((pos[:, i] & pos[:, j]).sum()) / denom > threshold:
                    expected.add((i, j))
        assert got == expected
    assert compared >= 100, f"only {compared} boundary-free tables in {trials} draws"


@criterion("parameter parity: 103,900 vs the 103,800 dense reference, <0.2%")
def test_parameter_parity():
    model = init_model("distmult", feature_dim=1024, embed_dim=100,
                       n_findings=14, seed=0)
    count = param_count(model)
    reference = 1024 * 100 + 100 * 14
    assert count == 103_900
    assert reference == 103_800
    assert abs(count / reference - 1.0) < 0.002


@criterion("synthetic end to end: distmult >= 0.95 and conv scorer >= 0.90")
def test_synthetic_end_to_end(tmp_path, capsys):
    def run(args):
        rc = cli_main(list(args))
        assert rc == 0, f"exit {rc} from {args[0]}"

    run([
        "synth",
        "--out-features", str(tmp_path / "features.csv"),
        "--out-annotations", str(tmp_path / "annotations.csv"),
        "--m", "500", "--n", "14", "--dim", "64",
        "--noise-scale", "0.5", "--seed", "7",
    ])

    def train_and_eval(scorer, budget):
        start = time.perf_counter()
        checkpoint = tmp_path / f"{scorer}.rkg"
        report = tmp_path / f"{scorer}_report.csv"
        run([
            "train",
            "--features", str(tmp_path / "features.csv"),
            "--annotations", str(tmp_path / "annotations.csv"),
            "--out-checkpoint", str(checkpoint),
            "--scorer", scorer, "--embed-dim", "100", "--channels", "8",
            "--lr", "1e-3", "--epochs", "50", "--batch-size", "32",
            "--patience", "5", "--seed", "0", "--split-seed", "0",
        ])
        run([
            "eval",
            "--checkpoint", str(checkpoint),
            "--features", str(tmp_path / "features.csv"),
            "--annotations", str(tmp_path / "annotations.csv"),
            "--fold", "test", "--out", str(report),
        ])
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"{scorer} pipeline took {elapsed:.1f} s"
        last = [l for l in report.read_text().splitlines()
                if not l.startswith("#")][-1]
        assert last.startswith("macro_auc,")
        return float(last.split(",")[1])

    distmult_auc = train_and_eval("distmult", budget=120.0)
    conve_auc = train_and_eval("conve", budget=600.0)
    capsys.readouterr()
    assert distmult_auc >= 0.95, f"distmult test macro-AUC {distmult_auc:.4f}"
    assert conve_auc >= 0.90, f"conve test macro-AUC {conve_auc:.4f}"


@criterion("policy behavior: three uncertainty policies, two-relation separate run")
def test_policy_behavior():
    features, annotations = synth_dataset(
        SyntheticSpec(m=150, n=6, dim=16, noise_scale=0.5,
                      uncertain_fraction=0.2, seed=11))
    assert int((annotations.labels == -1).sum()) > 0
    train_t, val_t, test_t = split(annotations, (0.7, 0.1, 0.2), seed=0)
    train_f = select_features(features, train_t.image_ids)
    val_f = select_features(features, val_t.image_ids)
    test_f = select_features(features, test_t.image_ids)

    for policy in UncertainPolicy:
        kg = build_radkg(train_t, policy)
        relations = resolve_relations(kg, None)
        model = init_model("distmult", 16, 16, 6, relations=relations, seed=0)
        config = TrainConfig(learning_rate=0.01, epochs=10, batch_size=32,
                             seed=0, policy=policy, relations=relations,
                             patience=10)
        best, history = train(model, kg, train_f, (val_f, val_t), config)
        rows = predict_table(best, test_f)  # inference queries hasFinding only
        report = macro_auc(rows, test_t, policy)
        assert report.macro is not None, policy
        assert len(history) >= 1
        if policy is UncertainPolicy.AS_SEPARATE_RELATION:
            assert best.relations == (RelationKind.HAS_FINDING,
                                      RelationKind.PROBABLY_HAS_FINDING)
            assert best.er.shape[0] == 2
        else:
            assert best.relations == (RelationKind.HAS_FINDING,)


@criterion("determinism: identical config yields byte-identical checkpoints")
def test_determinism(tmp_path):
    features, annotations = synth_dataset(
        SyntheticSpec(m=60, n=4, dim=8, noise_scale=0.4, seed=5))
    train_t, val_t, _ = split(annotations, (0.7, 0.1, 0.2), seed=0)
    train_f = select_features(features, train_t.image_ids)
    val_f = select_features(features, val_t.image_ids)
    kg = build_radkg(train_t, UncertainPolicy.AS_POSITIVE)
    config = TrainConfig(learning_rate=0.01, epochs=4, batch_size=16, seed=9)

    paths = []
    for name in ("first.rkg", "second.rkg"):
        model = init_model("distmult", 8, 16, 4, seed=9)
        best, _ = train(model, kg, train_f, (val_f, val_t), config)
        path = tmp_path / name
        save_checkpoint(best, path, {"run": "determinism"})
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    loaded, metadata = load_checkpoint(paths[0])
    resaved = tmp_path / "resaved.rkg"
    save_checkpoint(loaded, resaved, {"run": metadata["run"]})
    assert resaved.read_bytes() == paths[0].read_bytes()
