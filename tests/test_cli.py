"""End-to-end tests of the command-line interface, run in process."""

import os
import shlex
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import BLAS_VARS, edge_counts, mutate, pin_cpus_and_blas

from radkg import cli, encoders, load_checkpoint, scoring, training
from radkg.cli import main as cli_main
from radkg.encoders import load_features
from radkg.kg import UncertainPolicy, load_annotations, relation_grid, split


def run_cli(args):
    """Invoke the CLI; argparse-level failures surface as SystemExit."""
    try:
        return cli_main(list(args))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A synthetic dataset plus a trained checkpoint, built once via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    rc = run_cli([
        "synth",
        "--out-features", str(root / "features.csv"),
        "--out-annotations", str(root / "annotations.csv"),
        "--m", "60", "--n", "4", "--dim", "8",
        "--noise-scale", "0.5", "--seed", "3",
    ])
    assert rc == 0
    rc = run_cli([
        "train",
        "--features", str(root / "features.csv"),
        "--annotations", str(root / "annotations.csv"),
        "--out-checkpoint", str(root / "model.rkg"),
        "--out-history", str(root / "history.csv"),
        "--scorer", "distmult", "--embed-dim", "16",
        "--lr", "0.01", "--epochs", "8", "--batch-size", "16",
        "--patience", "8", "--seed", "0",
    ])
    assert rc == 0
    return root


# ---------------------------------------------------------------- synth


def test_synth_writes_aligned_files(tmp_path, capsys):
    rc = run_cli([
        "synth",
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
        "--m", "12", "--n", "3", "--dim", "6", "--seed", "1",
    ])
    assert rc == 0
    assert "12 images x 3 findings" in capsys.readouterr().out
    features = load_features(tmp_path / "f.csv")
    annotations = load_annotations(tmp_path / "a.csv")
    assert features.m == annotations.m == 12
    assert features.image_ids == annotations.image_ids


@pytest.mark.parametrize("flag", ["prototype-scale", "noise-scale"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_refuses_a_scale_that_is_not_finite_before_generating(tmp_path, capsys, flag, value):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(["synth", "--out-features", str(tmp_path / "f.csv"),
                      "--out-annotations", str(tmp_path / "a.csv"), f"--{flag}", value])
    assert rc == 2
    assert f"{flag.replace('-', '_')} must be finite and non-negative" in capsys.readouterr().err
    assert caught == []
    assert list(tmp_path.iterdir()) == []


def test_synth_echoes_config_into_outputs(tmp_path):
    rc = run_cli([
        "synth",
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
        "--m", "5", "--n", "3", "--dim", "4", "--seed", "9",
    ])
    assert rc == 0
    text = (tmp_path / "f.csv").read_text()
    assert "# command = synth\n" in text
    assert "# m = 5\n" in text
    assert "# seed = 9\n" in text
    # echoed keys are sorted
    comment_keys = [line[2:].split(" = ")[0]
                    for line in text.splitlines() if line.startswith("# ")]
    assert comment_keys[1:] == sorted(comment_keys[1:])


def test_synth_deterministic_across_runs(tmp_path, monkeypatch):
    outputs = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        rc = run_cli([
            "synth", "--out-features", "f.csv", "--out-annotations", "a.csv",
            "--m", "10", "--n", "3", "--dim", "4", "--seed", "5",
        ])
        assert rc == 0
        outputs.append(((d / "f.csv").read_bytes(), (d / "a.csv").read_bytes()))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- build-kg


def test_build_kg_counts_and_file(workspace, tmp_path, capsys):
    out = tmp_path / "graph.tsv"
    rc = run_cli([
        "build-kg",
        "--annotations", str(workspace / "annotations.csv"),
        "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    counts = {line.split(":")[0]: int(line.split(":")[1])
              for line in printed.strip().splitlines()}
    written = edge_counts(out)
    assert {relation: written.get(relation, 0) for relation in counts} == counts
    assert set(written) <= set(counts)
    annotations = load_annotations(workspace / "annotations.csv")
    grid = relation_grid(annotations, UncertainPolicy.AS_POSITIVE)
    assert counts["hasFinding"] == int(grid.sum()) == int((annotations.labels == 1).sum())


def test_build_kg_cooccurrence_threshold(workspace, tmp_path, capsys):
    def co_count(extra):
        out = tmp_path / "g.tsv"
        rc = run_cli([
            "build-kg",
            "--annotations", str(workspace / "annotations.csv"),
            "--out", str(out), "--cooccurrence", *extra,
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        count = edge_counts(out).get("coOccurs", 0)
        assert f"coOccurs: {count}\n" in printed
        return count

    loose = co_count(["--cooccur-threshold", "0.05"])
    default = co_count([])
    tight = co_count(["--cooccur-threshold", "0.95"])
    assert loose >= default >= tight
    assert loose > 0


# ---------------------------------------------------------------- train


def test_train_outputs(workspace):
    model, metadata = load_checkpoint(workspace / "model.rkg")
    assert model.scorer == "distmult"
    assert model.embed_dim == 16
    assert metadata["relations"] == "hasFinding"
    assert metadata["config.scorer"] == "distmult"
    assert metadata["config.lr"] == repr(0.01)
    assert metadata["findings"].count(",") == 3
    assert "val_auc" in metadata and "epoch" in metadata

    history = (workspace / "history.csv").read_text().splitlines()
    assert "# command = train" in [l for l in history if l.startswith("#")][0]
    data = [l for l in history if not l.startswith("#")]
    assert data[0] == "epoch,loss,val_auc"
    assert len(data) >= 2
    first = data[1].split(",")
    assert int(first[0]) == 1 and float(first[1]) > 0.0


def test_train_deterministic_checkpoints(tmp_path, monkeypatch, workspace):
    blobs = []
    for sub in ("one", "two"):
        d = tmp_path / sub
        d.mkdir()
        monkeypatch.chdir(d)
        rc = run_cli([
            "train",
            "--features", str(workspace / "features.csv"),
            "--annotations", str(workspace / "annotations.csv"),
            "--out-checkpoint", "m.rkg",
            "--embed-dim", "16", "--lr", "0.01", "--epochs", "3",
            "--batch-size", "16", "--seed", "4",
        ])
        assert rc == 0
        blobs.append((d / "m.rkg").read_bytes())
    assert blobs[0] == blobs[1]


def test_train_seed_changes_model(tmp_path, workspace, capsys):
    blobs = []
    for seed in ("4", "5"):
        out = tmp_path / f"m{seed}.rkg"
        rc = run_cli([
            "train",
            "--features", str(workspace / "features.csv"),
            "--annotations", str(workspace / "annotations.csv"),
            "--out-checkpoint", str(out),
            "--embed-dim", "16", "--epochs", "2", "--seed", seed,
        ])
        assert rc == 0
        assert "no model selection" not in capsys.readouterr().out  # the fold defines an AUC
        model, _ = load_checkpoint(out)
        blobs.append(model)
    assert blobs[0] != blobs[1]


@pytest.mark.parametrize("patience", ["5", "0"])
def test_train_without_a_defined_validation_auc_runs_every_epoch(tmp_path, capsys, patience):
    """At m=40 the 1% validation fold holds one image, so no finding has both
    classes there and no epoch can select a model: all 7 epochs run, whatever
    the patience, and the command says so."""
    assert run_cli(["synth", "--out-features", str(tmp_path / "f.csv"),
                    "--out-annotations", str(tmp_path / "a.csv"), "--m", "40", "--dim", "8"]) == 0
    rc = run_cli(["train", "--features", str(tmp_path / "f.csv"),
                  "--annotations", str(tmp_path / "a.csv"), "--epochs", "7",
                  "--ratios", "0.98,0.01,0.01", "--patience", patience,
                  "--out-checkpoint", str(tmp_path / "m.rkg"),
                  "--out-history", str(tmp_path / "h.csv")])
    assert rc == 0
    rows = [l for l in (tmp_path / "h.csv").read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "epoch,loss,val_auc"
    assert [row.split(",")[0] for row in rows[1:]] == [str(e) for e in range(1, 8)]
    assert all(row.endswith(",none") for row in rows[1:])
    out = capsys.readouterr().out
    assert "trained 7 epochs; best val macro-AUC none at epoch 7" in out
    assert "no model selection took place: the validation fold (1 rows)" in out
    assert load_checkpoint(tmp_path / "m.rkg")[1]["epoch"] == "7"


def test_train_separate_policy_records_two_relations(tmp_path):
    rc = run_cli([
        "synth",
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
        "--m", "30", "--n", "3", "--dim", "6",
        "--uncertain-fraction", "0.3", "--seed", "2",
    ])
    assert rc == 0
    rc = run_cli([
        "train",
        "--features", str(tmp_path / "f.csv"),
        "--annotations", str(tmp_path / "a.csv"),
        "--out-checkpoint", str(tmp_path / "m.rkg"),
        "--embed-dim", "16", "--epochs", "2", "--policy", "separate",
    ])
    assert rc == 0
    model, metadata = load_checkpoint(tmp_path / "m.rkg")
    assert metadata["relations"] == "hasFinding,probablyHasFinding"
    assert model.er.shape[0] == 2


# ---------------------------------------------------------------- eval


def test_eval_report_to_stdout_and_file(workspace, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = run_cli([
        "eval",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        "--fold", "test", "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    lines = [l for l in printed.splitlines() if not l.startswith("#")]
    assert lines[0] == "finding,positives,negatives,auc"
    assert lines[-1].startswith("macro_auc,")
    assert "# command = eval" in printed
    # policy defaulted from the checkpoint metadata
    assert "# policy = positive" in printed


def test_eval_fold_selection_differs(workspace, capsys):
    reports = {}
    for fold in ("val", "test", "all"):
        rc = run_cli([
            "eval",
            "--checkpoint", str(workspace / "model.rkg"),
            "--features", str(workspace / "features.csv"),
            "--annotations", str(workspace / "annotations.csv"),
            "--fold", fold,
        ])
        assert rc == 0
        reports[fold] = [l for l in capsys.readouterr().out.splitlines()
                         if not l.startswith("#")]
    assert reports["val"] != reports["test"]
    # fold sizes: positives+negatives per finding add up to the fold size
    def fold_size(lines):
        first = lines[1].split(",")
        return int(first[1]) + int(first[2])
    assert fold_size(reports["all"]) == 60
    assert fold_size(reports["test"]) == 12  # 0.2 of 60


def test_eval_findings_subset_and_tau(workspace, capsys):
    rc = run_cli([
        "eval",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        "--findings", "finding_01,finding_00", "--tau", "0.5",
    ])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
    assert lines[0] == "finding,positives,negatives,auc,sensitivity,specificity"
    assert [l.split(",")[0] for l in lines[1:-1]] == ["finding_01", "finding_00"]


def test_eval_refuses_a_finding_named_twice(workspace, tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = run_cli([
        "eval",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        "--findings", "finding_01,finding_01", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert "finding 'finding_01' is named twice" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("tau", ["1.5", "0", "1", "-0.1", "nan"])
def test_eval_rejects_threshold_outside_unit_interval(workspace, capsys, tau):
    rc = run_cli([
        "eval",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        f"--tau={tau}",
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert "threshold must be inside (0, 1)" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", ["features.csv", "annotations.csv"])
def test_eval_on_mutated_inputs_exits_0_or_2(workspace, tmp_path, capsys, name):
    """Seeded 1-3 byte mutations of one input file: the CLI either succeeds
    or exits 2 with a message, never with a traceback."""
    rng = np.random.default_rng(6)
    data = (workspace / name).read_bytes()
    paths = {n: workspace / n for n in ("features.csv", "annotations.csv")}
    paths[name] = tmp_path / name
    codes = set()
    for _ in range(80):
        paths[name].write_bytes(mutate(data, rng))
        rc = run_cli([
            "eval",
            "--checkpoint", str(workspace / "model.rkg"),
            "--features", str(paths["features.csv"]),
            "--annotations", str(paths["annotations.csv"]),
        ])
        err = capsys.readouterr().err
        assert rc in (0, 2)
        if rc == 2:
            assert err.startswith("radkg: ")
        codes.add(rc)
    assert codes == {0, 2}


def test_eval_rejects_mismatched_dims(workspace, tmp_path, capsys):
    rc = run_cli([
        "synth",
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
        "--m", "10", "--n", "4", "--dim", "5", "--seed", "0",
    ])
    assert rc == 0
    capsys.readouterr()
    rc = run_cli([
        "eval",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(tmp_path / "f.csv"),
        "--annotations", str(tmp_path / "a.csv"),
    ])
    assert rc == 2


def test_eval_refuses_annotations_that_list_the_findings_in_another_order(
        workspace, tmp_path, capsys):
    """Columns are matched by position, so a reordered header would score
    each model column against another finding's truth."""
    lines = (workspace / "annotations.csv").read_text(encoding="utf-8").splitlines()
    reordered = tmp_path / "a.csv"
    reordered.write_text("".join(
        line + "\n" if line.startswith("#") else
        ",".join([line.split(",")[0]] + line.split(",")[:0:-1]) + "\n" for line in lines),
        encoding="utf-8")
    assert load_annotations(reordered).finding_names == [f"finding_0{j}" for j in (3, 2, 1, 0)]
    rc = run_cli([
        "eval",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--annotations", str(reordered),
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "radkg: checkpoint scores findings ['finding_00', 'finding_01', 'finding_02', "
        "'finding_03'], annotations list ['finding_03', 'finding_02', 'finding_01', "
        "'finding_00']\n")


# ---------------------------------------------------------------- predict


def test_predict_all_rows(workspace, tmp_path, capsys):
    out = tmp_path / "pred.csv"
    rc = run_cli([
        "predict",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--out", str(out),
    ])
    assert rc == 0
    assert "wrote 60 prediction rows" in capsys.readouterr().out
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "id,finding_00,finding_01,finding_02,finding_03"
    assert len(lines) == 61
    for cell in lines[1].split(",")[1:]:
        assert 0.0 <= float(cell) <= 1.0 and len(cell.split(".")[1]) == 6


def test_predict_id_subset_and_labels(workspace, tmp_path):
    out = tmp_path / "pred.csv"
    rc = run_cli([
        "predict",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--out", str(out), "--ids", "img00003,img00001", "--tau", "0.5",
    ])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 3
    assert lines[1].startswith("img00003,")
    assert lines[2].startswith("img00001,")
    assert lines[0].endswith("finding_03_label")
    assert set(lines[1].split(",")[5:]) <= {"0", "1"}


def test_predict_header_keeps_finding_names_that_hold_a_comma(tmp_path):
    """The checkpoint stores the finding list as CSV cells, so ``predict``
    writes the names ``eval`` reads, not generic ones."""
    rc = run_cli(["synth", "--out-features", str(tmp_path / "f.csv"),
                  "--out-annotations", str(tmp_path / "a.csv"),
                  "--m", "30", "--n", "2", "--dim", "4", "--seed", "1"])
    assert rc == 0
    annotations = tmp_path / "a.csv"
    text = annotations.read_text(encoding="utf-8")
    annotations.write_text(text.replace("id,finding_00,finding_01", 'id,"Pleural, Other",Edema'),
                           encoding="utf-8")
    assert load_annotations(annotations).finding_names == ["Pleural, Other", "Edema"]
    rc = run_cli(["train", "--features", str(tmp_path / "f.csv"), "--annotations", str(annotations),
                  "--out-checkpoint", str(tmp_path / "m.rkg"), "--embed-dim", "4", "--epochs", "1"])
    assert rc == 0
    assert load_checkpoint(tmp_path / "m.rkg")[1]["findings"] == '"Pleural, Other",Edema'
    out = tmp_path / "pred.csv"
    rc = run_cli(["predict", "--checkpoint", str(tmp_path / "m.rkg"),
                  "--features", str(tmp_path / "f.csv"), "--out", str(out), "--tau", "0.5"])
    assert rc == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == 'id,"Pleural, Other",Edema,"Pleural, Other_label",Edema_label'


def test_predict_header_keeps_a_finding_name_that_holds_a_form_feed(tmp_path):
    """The checkpoint's metadata block is split at ``\\n`` only, so a name
    holding another line boundary survives train then predict."""
    rc = run_cli(["synth", "--out-features", str(tmp_path / "f.csv"),
                  "--out-annotations", str(tmp_path / "a.csv"),
                  "--m", "30", "--n", "2", "--dim", "4", "--seed", "1"])
    assert rc == 0
    annotations = tmp_path / "a.csv"
    text = annotations.read_text(encoding="utf-8")
    annotations.write_text(text.replace("id,finding_00,", "id,a\x0cb,"), encoding="utf-8")
    rc = run_cli(["train", "--features", str(tmp_path / "f.csv"), "--annotations", str(annotations),
                  "--out-checkpoint", str(tmp_path / "m.rkg"), "--embed-dim", "4", "--epochs", "1"])
    assert rc == 0
    out = tmp_path / "pred.csv"
    rc = run_cli(["predict", "--checkpoint", str(tmp_path / "m.rkg"),
                  "--features", str(tmp_path / "f.csv"), "--out", str(out)])
    assert rc == 0
    lines = [l for l in out.read_text(encoding="utf-8").split("\n") if not l.startswith("#")]
    assert lines[0] == "id,a\x0cb,finding_01"


@pytest.mark.parametrize("n_findings", [1, 3])
def test_predict_names_the_findings_of_a_checkpoint_without_names_generically(
        workspace, tmp_path, n_findings):
    """A checkpoint saved with no ``findings`` metadata gets finding_00.. in
    the header, one name per column, even when it scores one finding."""
    model = scoring.init_model("distmult", 8, 4, n_findings, seed=0)
    training.save_checkpoint(model, tmp_path / "m.rkg")
    out = tmp_path / "pred.csv"
    rc = run_cli(["predict", "--checkpoint", str(tmp_path / "m.rkg"),
                  "--features", str(workspace / "features.csv"), "--out", str(out)])
    assert rc == 0
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header == ",".join(["id"] + [f"finding_{j:02d}" for j in range(n_findings)])


def test_plain_finding_names_are_stored_as_a_bare_comma_join(workspace):
    metadata = load_checkpoint(workspace / "model.rkg")[1]
    assert metadata["findings"] == "finding_00,finding_01,finding_02,finding_03"


def test_predict_unknown_id_fails_with_data_error(workspace, tmp_path, capsys):
    rc = run_cli([
        "predict",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--out", str(tmp_path / "pred.csv"), "--ids", "img99999",
    ])
    assert rc == 2
    assert "img99999" in capsys.readouterr().err


# ---------------------------------------------------------------- gradcheck


def test_gradcheck_cli_passes_quickly(capsys):
    rc = run_cli([
        "gradcheck", "--scorer", "distmult", "--dim", "8", "--embed-dim", "16",
        "--n", "3", "--trials", "1",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "gradcheck: PASS" in out
    assert "max relative error" in out


def test_gradcheck_cli_catches_corruption(monkeypatch, capsys):
    true_backward = scoring.backward

    def biased(model, cache, dpsi):
        grads, d_es = true_backward(model, cache, dpsi)
        grads["er"] += 5e-3
        return grads, d_es

    monkeypatch.setattr(scoring, "backward", biased)
    rc = run_cli([
        "gradcheck", "--scorer", "distmult", "--dim", "8", "--embed-dim", "16",
        "--n", "3", "--trials", "1",
    ])
    assert rc == 3
    assert "gradcheck: FAIL" in capsys.readouterr().out


def test_gradcheck_cli_fails_on_a_nan_gradient(monkeypatch, capsys):
    true_backward = scoring.backward

    def nan_backward(model, cache, dpsi):
        grads, d_es = true_backward(model, cache, dpsi)
        grads["er"] = np.full_like(grads["er"], np.nan)
        return grads, d_es

    monkeypatch.setattr(scoring, "backward", nan_backward)
    rc = run_cli([
        "gradcheck", "--scorer", "distmult", "--dim", "8", "--embed-dim", "16",
        "--n", "3", "--trials", "1",
    ])
    assert rc == 3
    out = capsys.readouterr().out
    assert "max relative error: nan" in out
    assert "gradcheck: FAIL" in out


@pytest.mark.parametrize("option, value, message", [
    ("--trials", "0", "at least one case and one seed"),
    ("--trials", "-2", "at least one case and one seed"),
    ("--tolerance", "nan", "tolerance must be positive and finite"),
    ("--tolerance", "inf", "tolerance must be positive and finite"),
    ("--tolerance", "0", "tolerance must be positive and finite"),
    ("--tolerance", "-0.5", "tolerance must be positive and finite"),
])
def test_gradcheck_cli_refuses_a_run_that_checks_nothing(capsys, option, value, message):
    rc = run_cli(["gradcheck", "--scorer", "distmult", "--dim", "8", "--embed-dim", "16",
                  "--n", "3", "--trials", "1", option, value])
    assert rc == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert message in captured.err


# ---------------------------------------------------------------- usage/config


def test_no_command_is_usage_error(capsys):
    assert run_cli([]) == 1


def test_unknown_command_is_usage_error():
    assert run_cli(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error():
    assert run_cli(["synth", "--wat", "1"]) == 1


@pytest.fixture
def resolve(monkeypatch, capsys):
    """What ``main`` makes of an argv before it runs a command: the exit code,
    the resolved options and the error text. No command runs."""
    resolved = []

    def capture(cfg, echo):
        resolved.append(cfg)
        return 0

    for command in cli.COMMAND_OPTS:
        monkeypatch.setitem(cli._RUNNERS, command, capture)

    def outcome(argv):
        resolved.clear()
        rc = run_cli(argv)
        return rc, repr(resolved), capsys.readouterr().err

    return outcome


@pytest.mark.parametrize("command", sorted(cli.COMMAND_OPTS))
def test_a_value_resolves_the_same_whichever_way_it_is_spelled(command, resolve, tmp_path,
                                                                 monkeypatch):
    """``--x v`` and ``--x=v`` give the same options or the same UsageError,
    also for values that look like flags."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RADKG_CONFIG", raising=False)
    opts = [cli._CONFIG_OPT, *cli.COMMAND_OPTS[command]]
    for opt in (o for o in opts if not o.flag):
        required = [token for other in opts if other.required and other is not opt
                    for token in (f"--{other.name}", "x")]
        for value in ("-1e-4", "-inf", "nan", "-0", "-1"):
            apart = resolve([command, *required, f"--{opt.name}", value])
            joined = resolve([command, *required, f"--{opt.name}={value}"])
            assert apart == joined, (opt.name, value)
            assert "usage:" not in apart[2], (opt.name, value, apart)
    assert list(tmp_path.iterdir()) == []


def test_an_option_prefix_is_not_accepted(resolve):
    for argv in (["gradcheck", "--tol", "1e-3"], ["gradcheck", "--tol=1e-3"]):
        rc, resolved, err = resolve(argv)
        assert (rc, resolved) == (1, "[]")
        assert "unrecognized arguments: --tol" in err


def test_a_negative_exponent_value_reaches_the_range_check(capsys):
    rc = run_cli(["gradcheck", "--scorer", "distmult", "--dim", "8", "--embed-dim", "16",
                  "--n", "3", "--trials", "1", "--tolerance", "-1e-4"])
    assert rc == 2
    assert "tolerance must be positive and finite" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error(capsys):
    assert run_cli(["synth", "--out-features", "f.csv"]) == 1
    assert "out-annotations" in capsys.readouterr().err


def test_bad_choice_is_usage_error():
    rc = run_cli(["train", "--features", "f", "--annotations", "a",
                  "--out-checkpoint", "c", "--scorer", "mlp"])
    assert rc == 1


def readme_commands() -> list[list[str]]:
    """The argv of each ``radkg`` command in the README's ``## Command line``
    sh block, its backslash continuations joined and its comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("radkg ")]


def test_every_command_of_the_readme_command_line_block_runs(tmp_path, monkeypatch, capsys):
    """The documented pipeline runs as written, in order, in one directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RADKG_CONFIG", raising=False)
    commands = readme_commands()
    assert sorted({argv[0] for argv in commands}) == sorted(cli.COMMAND_OPTS)
    for argv in commands:
        assert run_cli(argv) == 0, (argv, capsys.readouterr().err)


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert run_cli(["train", "--help"]) == 0
    capsys.readouterr()


def test_missing_input_file_is_data_error(tmp_path, capsys):
    rc = run_cli(["build-kg", "--annotations", str(tmp_path / "nope.csv"),
                  "--out", str(tmp_path / "g.tsv")])
    assert rc == 2


def test_malformed_annotations_report_location(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,f0\nimg0,1\nimg1,7\n")
    rc = run_cli(["build-kg", "--annotations", str(bad),
                  "--out", str(tmp_path / "g.tsv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err


def test_tampered_checkpoint_is_data_error(workspace, tmp_path, capsys):
    blob = bytearray((workspace / "model.rkg").read_bytes())
    blob[:4] = b"XXXX"
    bad = tmp_path / "bad.rkg"
    bad.write_bytes(bytes(blob))
    rc = run_cli(["predict", "--checkpoint", str(bad),
                  "--features", str(workspace / "features.csv"),
                  "--out", str(tmp_path / "p.csv")])
    assert rc == 2


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("# synthetic data settings\nm = 7\nn = 3\ndim = 4\nseed = 2\n")
    rc = run_cli([
        "synth", "--config", str(cfg),
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
    ])
    assert rc == 0
    assert load_features(tmp_path / "f.csv").m == 7
    assert "# m = 7\n" in (tmp_path / "f.csv").read_text()


def test_explicit_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("m = 7\nn = 3\ndim = 4\n")
    rc = run_cli([
        "synth", "--config", str(cfg), "--m", "9",
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
    ])
    assert rc == 0
    assert load_features(tmp_path / "f.csv").m == 9


def test_config_file_from_environment(tmp_path, monkeypatch):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("m = 6\nn = 3\ndim = 4\n")
    monkeypatch.setenv("RADKG_CONFIG", str(cfg))
    rc = run_cli([
        "synth",
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
    ])
    assert rc == 0
    assert load_features(tmp_path / "f.csv").m == 6


@pytest.mark.parametrize("env", ["set", "unset"])
def test_an_empty_config_path_is_a_usage_error_whatever_radkg_config_holds(
        workspace, tmp_path, monkeypatch, capsys, env):
    """``--config ''`` names no file; it does not fall through to RADKG_CONFIG."""
    cfg = tmp_path / "env.cfg"
    cfg.write_text("policy = negative\n")
    if env == "set":
        monkeypatch.setenv("RADKG_CONFIG", str(cfg))
    else:
        monkeypatch.delenv("RADKG_CONFIG", raising=False)
    out = tmp_path / "out"
    out.mkdir()
    rc = run_cli(["build-kg", "--config", "", "--annotations", str(workspace / "annotations.csv"),
                  "--out", str(out / "graph.tsv")])
    assert rc == 1
    assert capsys.readouterr().err == "radkg: [Errno 2] No such file or directory: ''\n"
    assert list(out.iterdir()) == []


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wat = 1\n")
    rc = run_cli([
        "synth", "--config", str(cfg),
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
    ])
    assert rc == 1
    assert "wat" in capsys.readouterr().err


def test_config_value_with_bad_type_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("m = many\n")
    rc = run_cli([
        "synth", "--config", str(cfg),
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
    ])
    assert rc == 1


# ---------------------------------------------------------------- training lanes


# Fits whose largest block is updated by row ranges, one per lane: distmult's
# 1024 x 100 wx and conve's 640 x 144 wc.
LANE_FITS = {
    "distmult": (["--dim", "1024"], ["--scorer", "distmult", "--embed-dim", "100"]),
    "conve": (["--dim", "64"], ["--scorer", "conve", "--embed-dim", "144", "--channels", "4"]),
}


def lane_fit_args(tmp_path, scorer, *extra):
    """Synthesize the data of a ``LANE_FITS`` fit; returns its train argv."""
    data_args, fit_args = LANE_FITS[scorer]
    assert run_cli(["synth", "--out-features", str(tmp_path / "f.csv"),
                    "--out-annotations", str(tmp_path / "a.csv"),
                    "--m", "120", "--n", "4", "--seed", "3", *data_args]) == 0
    return ["train", "--features", str(tmp_path / "f.csv"),
            "--annotations", str(tmp_path / "a.csv"), "--out-checkpoint", "m.rkg",
            *fit_args, "--epochs", "2", "--batch-size", "16", "--seed", "4", *extra]


@pytest.mark.parametrize("scorer", sorted(LANE_FITS))
def test_train_writes_the_same_checkpoint_on_one_lane_two_lanes_and_every_blas_thread(
        tmp_path, monkeypatch, scorer):
    """The bytes of a fit do not depend on its lanes: 1 lane, 2 lanes, and a
    process with no BLAS variable set, where OpenBLAS runs each product on
    every CPU and the fit keeps one lane. On 2 lanes distmult's steps run
    on both, and so does conve's wc update: its 92,160 cells reach
    SPLIT_CELLS, so it is cut by rows in the step, not started early."""
    argv = lane_fit_args(tmp_path, scorer, "--lr", "0.01")
    shapes = scoring.block_shapes(scorer, 1024 if scorer == "distmult" else 64,
                                  100 if scorer == "distmult" else 144, 4, 1, 4)
    assert max(map(np.prod, shapes.values())) >= training.SPLIT_CELLS
    counts, update_rows = [], training._update_rows
    wc_threads, apply = [], training.Adam._apply

    def counted(params, grads, lanes, update):
        counts.append(lanes.count)
        update_rows(params, grads, lanes, update)

    def traced(self, params, name, lo, hi, g):
        if name == "wc":
            wc_threads.append(threading.current_thread())
        apply(self, params, name, lo, hi, g)

    monkeypatch.setattr(training, "_update_rows", counted)
    monkeypatch.setattr(training.Adam, "_apply", traced)
    blobs = {}
    for lanes in (1, 2):
        pin_cpus_and_blas(monkeypatch, lanes, {"OPENBLAS_NUM_THREADS": "1"})
        run = tmp_path / f"lanes{lanes}"
        run.mkdir()
        monkeypatch.chdir(run)
        counts.clear()
        wc_threads.clear()
        assert run_cli(argv) == 0
        if scorer == "distmult":
            assert set(counts) == {lanes}
        else:
            assert {thread is threading.main_thread()
                    for thread in wc_threads} == ({True} if lanes == 1 else {True, False})
        blobs[lanes] = (run / "m.rkg").read_bytes()
    env = {var: value for var, value in os.environ.items() if var not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    (tmp_path / "unset").mkdir()
    subprocess.run([sys.executable, "-m", "radkg", *argv], cwd=tmp_path / "unset", env=env,
                   check=True, capture_output=True)
    assert blobs[1] == blobs[2] == (tmp_path / "unset" / "m.rkg").read_bytes()


def test_a_fit_that_diverges_on_two_lanes_says_what_it_says_on_one(tmp_path, monkeypatch,
                                                                   capsys):
    """A huge learning rate makes the second batch's loss non-finite: exit 3
    with the same message at 1 and 2 lanes, and no file written."""
    argv = lane_fit_args(tmp_path, "distmult", "--lr", "1e300", "--out-history", "h.csv")
    capsys.readouterr()
    outcomes = []
    for lanes in (1, 2):
        pin_cpus_and_blas(monkeypatch, lanes, {"OPENBLAS_NUM_THREADS": "1"})
        run = tmp_path / f"lanes{lanes}"
        run.mkdir()
        monkeypatch.chdir(run)
        with np.errstate(over="ignore", invalid="ignore"):
            rc = run_cli(argv)
        outcomes.append((rc, capsys.readouterr().err))
        assert list(run.iterdir()) == []
    assert outcomes[0] == outcomes[1]
    rc, err = outcomes[0]
    assert rc == 3 and err.startswith("radkg: epoch 1: non-finite loss ")
    assert " in batch 1 on item " in err


@pytest.mark.parametrize("scorer, rate", [("distmult", "1e100"), ("conve", "1e60")])
def test_a_fit_whose_parameters_overflow_exits_3_in_one_line_and_writes_nothing(
        tmp_path, monkeypatch, capsys, scorer, rate):
    """At these rates every loss stays finite, since item_loss clamps p, but
    Adam's update overflows: the fit stops there, with no numpy warning, and
    says the same at 1 and 2 lanes. On 2 lanes conve's wc update, which
    overflows too, is cut by rows across both lanes; the calling thread's
    wx fault is the one named, as on 1 lane. A higher rate makes conve's loss non-finite."""
    argv = lane_fit_args(tmp_path, scorer, "--lr", rate, "--out-history", "h.csv")
    capsys.readouterr()
    errors = []
    for lanes in (1, 2):
        pin_cpus_and_blas(monkeypatch, lanes, {"OPENBLAS_NUM_THREADS": "1"})
        run = tmp_path / f"lanes{lanes}"
        run.mkdir()
        monkeypatch.chdir(run)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run_cli(argv)
        captured = capsys.readouterr()
        assert rc == 3
        assert caught == []
        assert captured.err.count("\n") == 1 and "Warning" not in captured.err
        assert list(run.iterdir()) == []
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("radkg: epoch 1: overflow encountered in ")
    assert " in the optimizer step of batch " in errors[0]
    assert errors[0].endswith(" on block wx\n")


# ---------------------------------------------------------------- option values


TRAIN_NUMBERS = ("lr", "epochs", "batch-size", "patience", "embed-dim", "channels", "seed")
HOSTILE_VALUES = ("nan", "inf", "-0", "0", "-1", "1e400", "", "123456789012345678901234567890",
                  "-inf", "-1e-4", ",", "Ünïcode")


def sweep_spellings(tmp_path, capsys, option, values, argv):
    """Each value, given as ``--x v``, ``--x=v`` or in a config file, ends in
    exit 0-3 without a traceback, the same for all three spellings, and a
    run that fails leaves no file behind. ``argv(out)`` is the command line
    without the swept option, writing its outputs into directory ``out``."""
    for number, value in enumerate(values):
        config = tmp_path / f"{number}.cfg"
        config.write_text(f"{option} = {value}\n", encoding="utf-8")
        codes = []
        spellings = ([f"--{option}", value], [f"--{option}={value}"], ["--config", str(config)])
        for spelling in spellings:
            out = tmp_path / f"{number}-{len(codes)}"
            out.mkdir()
            rc = run_cli([*argv(out), *spelling])
            captured = capsys.readouterr()
            assert rc in (0, 1, 2, 3), (option, value, spelling)
            assert "Traceback" not in captured.out + captured.err, (option, value, spelling)
            if rc != 0:
                assert list(out.iterdir()) == [], (option, value, spelling)
                assert len(captured.err.splitlines()) == 1 and captured.err.startswith("radkg: "), (
                    option, value, spelling, captured.err)
            codes.append(rc)
        assert len(set(codes)) == 1, (option, value, codes)


@pytest.mark.parametrize("option", TRAIN_NUMBERS)
def test_train_ends_in_an_exit_code_for_odd_values_however_they_are_spelled(
        workspace, tmp_path, monkeypatch, capsys, option):
    """``sweep_spellings`` over train's numeric options. The other options
    keep the fit to one short epoch."""
    monkeypatch.delenv("RADKG_CONFIG", raising=False)
    short = {"epochs": "1", "patience": "0", "embed-dim": "16", "batch-size": "64"}
    fixed = [token for name, value in short.items() if name != option
             for token in (f"--{name}", value)]
    sweep_spellings(tmp_path, capsys, option, HOSTILE_VALUES, lambda out: [
        "train", "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        "--out-checkpoint", str(out / "m.rkg"), "--out-history", str(out / "h.csv"), *fixed])


@pytest.mark.parametrize("command, option", [
    ("eval", "fold"), ("eval", "policy"), ("eval", "findings"), ("eval", "tau"),
    ("predict", "ids"), ("predict", "tau"),
    ("build-kg", "policy"), ("build-kg", "cooccur-threshold"),
])
def test_reading_commands_end_in_an_exit_code_for_hostile_values_however_they_are_spelled(
        workspace, tmp_path, monkeypatch, capsys, command, option):
    """``sweep_spellings`` over the options of the commands that read a
    checkpoint or annotations; build-kg adds co-occurrence edges, so that
    its threshold is read."""
    monkeypatch.delenv("RADKG_CONFIG", raising=False)
    checkpoint, features, annotations = (str(workspace / name) for name in
                                         ("model.rkg", "features.csv", "annotations.csv"))
    argv = {
        "eval": lambda out: ["eval", "--checkpoint", checkpoint, "--features", features,
                             "--annotations", annotations, "--out", str(out / "r.csv")],
        "predict": lambda out: ["predict", "--checkpoint", checkpoint, "--features", features,
                                "--out", str(out / "p.csv")],
        "build-kg": lambda out: ["build-kg", "--annotations", annotations, "--cooccurrence",
                                 "--out", str(out / "g.tsv")],
    }[command]
    sweep_spellings(tmp_path, capsys, option, HOSTILE_VALUES, argv)


# A 30-digit --m, --n or --dim asks synth for grids beyond physical memory,
# which test_synth_beyond_physical_memory_exits_2_in_one_line_and_writes_nothing
# covers; a 30-digit --trials asks gradcheck for about 10^29 checks, which is
# work requested, not a fault. Those four cases are left out of the sweep.
HUGE_SIZES = {("synth", "m"), ("synth", "n"), ("synth", "dim"), ("gradcheck", "trials")}


@pytest.mark.parametrize("command, option", [
    *(("synth", option) for option in ("m", "n", "dim", "prototype-scale", "noise-scale",
                                       "sparsity", "uncertain-fraction", "seed")),
    *(("gradcheck", option) for option in ("scorer", "dim", "embed-dim", "channels", "n",
                                           "trials", "seed", "tolerance")),
    *(("train", option) for option in ("scorer", "optimizer", "policy", "ratios", "split-seed",
                                       "cooccur-threshold", "relations")),
])
def test_writing_commands_end_in_an_exit_code_for_hostile_values_however_they_are_spelled(
        workspace, tmp_path, monkeypatch, capsys, command, option):
    """``sweep_spellings`` over synth's and gradcheck's options and train's
    non-numeric ones, at tiny sizes; train adds co-occurrence edges, so that
    its threshold is read."""
    monkeypatch.delenv("RADKG_CONFIG", raising=False)
    sizes = {
        "synth": {"m": "20", "n": "3", "dim": "4"},
        "gradcheck": {"dim": "8", "embed-dim": "16", "n": "3", "trials": "1"},
        "train": {"epochs": "1", "patience": "0", "embed-dim": "16", "batch-size": "64"},
    }[command]
    fixed = [token for name, value in sizes.items() if name != option
             for token in (f"--{name}", value)]
    argv = {
        "synth": lambda out: ["synth", "--out-features", str(out / "f.csv"),
                              "--out-annotations", str(out / "a.csv"), *fixed],
        "gradcheck": lambda out: ["gradcheck", *fixed],
        "train": lambda out: ["train", "--features", str(workspace / "features.csv"),
                              "--annotations", str(workspace / "annotations.csv"),
                              "--out-checkpoint", str(out / "m.rkg"), "--cooccurrence", *fixed],
    }[command]
    values = [value for value in HOSTILE_VALUES
              if (command, option) not in HUGE_SIZES or value != "123456789012345678901234567890"]
    sweep_spellings(tmp_path, capsys, option, values, argv)


#: Every command's path options: those it reads, then those it writes.
PATH_OPTIONS = {
    "synth": ((), ("out-features", "out-annotations")),
    "build-kg": (("annotations",), ("out",)),
    "train": (("features", "annotations"), ("out-checkpoint", "out-history")),
    "eval": (("checkpoint", "features", "annotations"), ("out",)),
    "predict": (("checkpoint", "features"), ("out",)),
    "gradcheck": ((), ()),
}


def path_argv(workspace, command, option, out):
    """A command line of ``command`` that would succeed, writing into ``out``,
    without ``option``."""
    given = {"features": workspace / "features.csv", "annotations": workspace / "annotations.csv",
             "checkpoint": workspace / "model.rkg", "out": out / "o.csv",
             "out-features": out / "f.csv", "out-annotations": out / "a.csv",
             "out-checkpoint": out / "m.rkg", "out-history": out / "h.csv"}
    reads, writes = PATH_OPTIONS[command]
    sizes = {"synth": ["--m", "5", "--n", "2", "--dim", "2"],
             "train": ["--epochs", "1", "--embed-dim", "4"],
             "gradcheck": ["--dim", "2", "--embed-dim", "2", "--n", "2", "--trials", "1"]}
    return [command, *sizes.get(command, []),
            *(token for name in (*reads, *writes) if name != option
              for token in (f"--{name}", str(given[name])))]


@pytest.mark.parametrize("command, option", [
    *((command, option) for command, (reads, writes) in PATH_OPTIONS.items()
      for option in (*reads, *writes)),
    *((command, "config") for command in PATH_OPTIONS),
])
def test_a_bad_path_ends_in_one_line_and_the_same_exit_code_however_it_is_spelled(
        workspace, tmp_path, monkeypatch, capsys, command, option):
    """A path option given a missing file (read options), a directory, an
    empty string, a path under a missing directory, a path holding a NUL
    byte, or a file that is not UTF-8 (read options), as ``--x v``, ``--x=v``
    or a config-file line, exits 1 or 2 whatever the spelling, in one
    ``radkg: `` line with no traceback, and leaves no file behind. A NUL
    byte is refused naming the option and the path."""
    monkeypatch.delenv("RADKG_CONFIG", raising=False)
    reads = option == "config" or option in PATH_OPTIONS[command][0]
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.csv").write_bytes(b"id,f0\n\xe9,1\n# \xff\n")
    values = {"directory": tmp_path / "dir", "empty": "", "under a missing directory":
              tmp_path / "nodir" / "x.csv", "NUL byte": f"{tmp_path}/x\0.csv"}
    if reads:
        values.update({"missing file": tmp_path / "missing.csv",
                       "not UTF-8": tmp_path / "latin1.csv"})
    before = sorted(tmp_path.rglob("*"))
    for number, (what, value) in enumerate(values.items()):
        config = tmp_path / f"{number}.cfg"
        config.write_text(f"{option} = {value}\n", encoding="utf-8")
        spellings = [[f"--{option}", str(value)], [f"--{option}={value}"]]
        if option != "config":
            spellings.append(["--config", str(config)])
        codes = []
        for spelling in spellings:
            out = tmp_path / f"out-{number}-{len(codes)}"
            out.mkdir()
            monkeypatch.chdir(out)
            rc = run_cli([*path_argv(workspace, command, option, out), *spelling])
            captured = capsys.readouterr()
            case = (what, spelling, captured.err)
            assert rc in (1, 2), case
            assert "Traceback" not in captured.out + captured.err, case
            assert len(captured.err.splitlines()) == 1 and captured.err.startswith("radkg: "), case
            if what == "NUL byte":
                assert captured.err == f"radkg: --{option}: path {str(value)!r} holds a NUL byte\n", case
            assert list(out.iterdir()) == [], case
            codes.append(rc)
        assert len(set(codes)) == 1, (what, codes)
        config.unlink()
    monkeypatch.chdir(tmp_path)
    assert sorted(path for path in tmp_path.rglob("*") if not path.name.startswith("out-")) == before


@pytest.mark.parametrize("ids", ["", ","])
def test_predict_refuses_an_empty_id_list_before_reading_the_checkpoint(
        workspace, tmp_path, monkeypatch, capsys, ids):
    def no_checkpoint(path):
        raise AssertionError("read the checkpoint")

    monkeypatch.setattr(cli, "load_checkpoint", no_checkpoint)
    rc = run_cli(["predict", "--checkpoint", str(workspace / "model.rkg"),
                  "--features", str(workspace / "features.csv"),
                  "--out", str(tmp_path / "p.csv"), "--ids", ids])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "radkg: --ids: empty image id list (none selects every row)\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ids, twice", [("img00001,img00001", "img00001"),
                                        ("a,b,c,b,a", "a"), ("x, y,y ", "y")])
def test_predict_refuses_a_repeated_id_before_reading_the_checkpoint(
        workspace, tmp_path, monkeypatch, capsys, ids, twice):
    def no_checkpoint(path):
        raise AssertionError("read the checkpoint")

    monkeypatch.setattr(cli, "load_checkpoint", no_checkpoint)
    rc = run_cli(["predict", "--checkpoint", str(workspace / "model.rkg"),
                  "--features", str(workspace / "features.csv"),
                  "--out", str(tmp_path / "p.csv"), "--ids", ids])
    assert rc == 2
    assert capsys.readouterr().err == f"radkg: --ids: image id {twice!r} is named twice\n"
    assert list(tmp_path.iterdir()) == []


def eval_rows(workspace, capsys, *extra, checkpoint=None):
    rc = run_cli([
        "eval",
        "--checkpoint", str(checkpoint or workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        *extra,
    ])
    assert rc == 0
    return [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]


def train_args(workspace, out, *extra):
    return [
        "train",
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        "--out-checkpoint", str(out),
        "--embed-dim", "16", "--epochs", "1", *extra,
    ]


def test_ratios_flag_sets_the_fold_sizes(workspace, tmp_path, capsys):
    """train's --ratios sizes the folds that eval then scores."""
    checkpoint = tmp_path / "m.rkg"
    assert run_cli(train_args(workspace, checkpoint, "--ratios", "0.5,0.3,0.2")) == 0
    capsys.readouterr()
    for fold, size in (("train", 30), ("val", 18), ("test", 12)):
        first = eval_rows(workspace, capsys, "--fold", fold, checkpoint=checkpoint)[1]
        assert int(first.split(",")[1]) + int(first.split(",")[2]) == size


def test_ratios_need_three_values(workspace, tmp_path, capsys):
    """--ratios is train's: two values are a usage error there, and eval,
    which takes its split from the checkpoint, does not know the option."""
    rc = run_cli(train_args(workspace, tmp_path / "m.rkg", "--ratios", "0.5,0.5"))
    assert rc == 1
    assert "--ratios" in capsys.readouterr().err
    for option, value in (("ratios", "0.5,0.5"), ("ratios", "0.5,0.3,0.2"), ("split-seed", "5")):
        rc = run_cli(["eval", "--checkpoint", str(workspace / "model.rkg"),
                      "--features", str(workspace / "features.csv"),
                      "--annotations", str(workspace / "annotations.csv"),
                      f"--{option}", value, "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert f"unrecognized arguments: --{option}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_scores_the_test_fold_of_the_split_the_fit_made(workspace, tmp_path, capsys,
                                                             monkeypatch):
    """A fit with --split-seed 5, scored by ``eval --fold test`` with no
    split option, scores exactly the rows that split(annotations, ratios, 5)
    puts in test, none of them training rows, which the default seed's test
    fold would hold, and echoes the checkpoint's split."""
    checkpoint = tmp_path / "m.rkg"
    assert run_cli(train_args(workspace, checkpoint, "--split-seed", "5")) == 0
    scored, score = [], cli.predict_table
    monkeypatch.setattr(cli, "predict_table",
                        lambda model, features: scored.append(features.image_ids) or
                        score(model, features))
    capsys.readouterr()
    assert run_cli(["eval", "--checkpoint", str(checkpoint),
                    "--features", str(workspace / "features.csv"),
                    "--annotations", str(workspace / "annotations.csv"), "--fold", "test"]) == 0
    echo = [line for line in capsys.readouterr().out.splitlines() if line.startswith("#")]
    annotations = load_annotations(workspace / "annotations.csv")
    train_t, _, test_t = split(annotations, (0.7, 0.1, 0.2), 5)
    assert scored == [test_t.image_ids]
    assert not set(test_t.image_ids) & set(train_t.image_ids)
    assert set(split(annotations, (0.7, 0.1, 0.2), 0)[2].image_ids) & set(train_t.image_ids)
    assert {"# ratios = 0.7,0.1,0.2", "# split-seed = 5", "# policy = positive"} <= set(echo)


def test_an_eval_config_file_that_sets_the_split_leaves_the_folds_alone(workspace, tmp_path,
                                                                         capsys):
    """``ratios`` and ``split-seed`` are train's keys, so a config file that
    sets them still parses for eval, which scores the checkpoint's folds."""
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("ratios = 0.2,0.1,0.7\nsplit-seed = 5\n")
    assert eval_rows(workspace, capsys, "--config", str(cfg)) == eval_rows(workspace, capsys)


def test_eval_takes_train_defaults_for_a_checkpoint_without_a_stored_split(workspace, tmp_path,
                                                                            capsys):
    """A checkpoint written by ``save_checkpoint`` with no ``config.*`` keys
    and no training-fold digest is scored on train's default split and
    policy, the same folds as a CLI fit with those defaults."""
    model, metadata = load_checkpoint(workspace / "model.rkg")
    training.save_checkpoint(model, tmp_path / "m.rkg", {"findings": metadata["findings"]})
    for fold in ("train", "val", "test"):
        assert (eval_rows(workspace, capsys, "--fold", fold, checkpoint=tmp_path / "m.rkg")
                == eval_rows(workspace, capsys, "--fold", fold))


@pytest.mark.parametrize("key, value", [
    ("config.ratios", "0.5,0.5"), ("config.split-seed", "five"), ("config.policy", "bogus"),
])
def test_eval_refuses_a_stored_split_or_policy_that_does_not_parse(workspace, tmp_path, capsys,
                                                                   key, value):
    model, metadata = load_checkpoint(workspace / "model.rkg")
    training.save_checkpoint(model, tmp_path / "m.rkg", {**metadata, key: value})
    rc = run_cli(["eval", "--checkpoint", str(tmp_path / "m.rkg"),
                  "--features", str(workspace / "features.csv"),
                  "--annotations", str(workspace / "annotations.csv"),
                  "--out", str(tmp_path / "r.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith(f"radkg: {tmp_path / 'm.rkg'}: {key}: ")
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "r.csv").exists()


def test_eval_refuses_annotations_that_changed_since_training(workspace, tmp_path, capsys):
    """One row appended to both inputs after the fit moves its training
    fold: every fold but ``all`` is refused in one line that names the
    annotation file, and no report is written. The file as trained passes."""
    digest = load_checkpoint(workspace / "model.rkg")[1]["train-ids"]
    assert len(digest) == 8 and int(digest, 16) >= 0
    features, annotations = tmp_path / "features.csv", tmp_path / "annotations.csv"
    for path in (features, annotations):
        text = (workspace / path.name).read_text(encoding="utf-8")
        last = text.splitlines()[-1]
        path.write_text(text + "img99999" + last[last.index(","):] + "\n", encoding="utf-8")
    out = tmp_path / "r.csv"
    for fold in ("test", "val", "train"):
        rc = run_cli(["eval", "--checkpoint", str(workspace / "model.rkg"),
                      "--features", str(features), "--annotations", str(annotations),
                      "--fold", fold, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"radkg: {annotations}: the training fold's ids digest ")
        assert captured.err.count("\n") == 1
        assert not out.exists()
    # --fold all splits nothing, so it has no training fold to compare.
    assert run_cli(["eval", "--checkpoint", str(workspace / "model.rkg"),
                    "--features", str(features), "--annotations", str(annotations),
                    "--fold", "all"]) == 0
    capsys.readouterr()
    assert eval_rows(workspace, capsys, "--fold", "test")


def test_relations_flag_lands_in_the_checkpoint(workspace, tmp_path, capsys):
    out = tmp_path / "m.rkg"
    rc = run_cli(train_args(workspace, out, "--cooccurrence",
                            "--relations", "hasFinding,coOccurs"))
    assert rc == 0
    model, metadata = load_checkpoint(out)
    assert metadata["relations"] == "hasFinding,coOccurs"
    assert metadata["config.relations"] == "hasFinding,coOccurs"
    assert model.er.shape[0] == 2

    rc = run_cli(train_args(workspace, tmp_path / "bad.rkg", "--relations", "bogus"))
    assert rc == 1
    assert "--relations" in capsys.readouterr().err
    assert not (tmp_path / "bad.rkg").exists()


def test_train_cooccurrence_trains_cooccurs(workspace, tmp_path):
    out = tmp_path / "m.rkg"
    assert run_cli(train_args(workspace, out, "--cooccurrence")) == 0
    model, metadata = load_checkpoint(out)
    assert metadata["relations"] == "hasFinding,coOccurs"
    assert metadata["config.cooccurrence"] == "true"
    assert model.er.shape[0] == 2

    assert run_cli(train_args(workspace, out)) == 0
    assert load_checkpoint(out)[1]["relations"] == "hasFinding"


@pytest.mark.parametrize("option, value, message", [
    ("--lr", "nan", "learning rate must be finite and non-negative"),
    ("--lr", "inf", "learning rate must be finite and non-negative"),
    ("--lr", "-1", "learning rate must be finite and non-negative"),
    ("--ratios", "nan,0.5,0.5", "ratios must be positive"),
    ("--ratios", "0.5,0.5,nan", "ratios must be positive"),
    ("--ratios", "inf,0.5,0.5", "ratios must sum to 1"),
])
def test_train_refuses_a_value_out_of_range_before_writing(workspace, tmp_path, capsys,
                                                           option, value, message):
    rc = run_cli(train_args(workspace, tmp_path / "m.rkg", "--out-history",
                            str(tmp_path / "history.csv"), option, value))
    assert rc == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def failed_open(path) -> str:
    """The message of the OSError that opening ``path`` for writing raises."""
    with pytest.raises(OSError) as err:
        open(path, "w")
    return str(err.value)


def test_synth_into_a_missing_directory_writes_no_file(tmp_path, capsys):
    target = tmp_path / "nodir" / "a.csv"
    rc = run_cli(["synth", "--out-features", str(tmp_path / "f.csv"),
                  "--out-annotations", str(target), "--m", "5", "--n", "2", "--dim", "2"])
    assert rc == 2
    assert capsys.readouterr().err == f"radkg: {failed_open(target)}\n"
    assert list(tmp_path.iterdir()) == []


def test_an_empty_required_output_path_writes_no_file(tmp_path, capsys, monkeypatch):
    """An empty path names the working directory, which a file cannot replace."""
    monkeypatch.chdir(tmp_path)
    rc = run_cli(["synth", "--out-features", "f.csv", "--out-annotations", "",
                  "--m", "5", "--n", "2", "--dim", "2"])
    assert rc == 2
    assert capsys.readouterr().err == "radkg: [Errno 21] Is a directory: ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["missing directory", "file as directory", "directory"])
def test_train_with_an_unwritable_history_writes_no_checkpoint(workspace, tmp_path, capsys, where):
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    history = {"missing directory": tmp_path / "nodir" / "h.csv",
               "file as directory": tmp_path / "file" / "h.csv",
               "directory": tmp_path / "dir"}[where]
    rc = run_cli(train_args(workspace, tmp_path / "m.rkg", "--out-history", str(history)))
    assert rc == 2
    assert capsys.readouterr().err == f"radkg: {failed_open(history)}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]
    assert list((tmp_path / "dir").iterdir()) == []


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 10.2 TiB for an array with shape (100000000000, 14) "
                 "and data type float64"),
     "radkg: Unable to allocate 10.2 TiB for an array with shape (100000000000, 14) "
     "and data type float64\n"),
    (MemoryError(), "radkg: MemoryError\n"),
])
def test_out_of_memory_is_a_data_error_in_one_line(tmp_path, capsys, monkeypatch, exc, line):
    def too_large(spec):
        raise exc

    monkeypatch.setattr(cli, "synth_dataset", too_large)
    rc = run_cli(["synth", "--out-features", str(tmp_path / "f.csv"),
                  "--out-annotations", str(tmp_path / "a.csv")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == line and captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_synth_beyond_physical_memory_exits_2_in_one_line_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    memory = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1024}
    monkeypatch.setattr(encoders.os, "sysconf", memory.__getitem__)
    rc = run_cli(["synth", "--m", "100000", "--dim", "1024",
                  "--out-features", str(tmp_path / "f.csv"),
                  "--out-annotations", str(tmp_path / "a.csv")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("radkg: synth needs 2470314688 bytes for its grids, more than the "
                            "4194304 bytes of physical memory\n")
    assert list(tmp_path.iterdir()) == []


def test_train_refuses_relations_without_has_finding_before_the_first_batch(
        workspace, tmp_path, capsys, monkeypatch):
    def no_epoch(*args, **kwargs):
        raise AssertionError("trained an epoch")

    monkeypatch.setattr(training, "train_epoch", no_epoch)
    rc = run_cli(train_args(workspace, tmp_path / "m.rkg", "--cooccurrence",
                            "--relations", "coOccurs"))
    assert rc == 2
    assert "model has no relation hasFinding" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value,present", [("yes", True), ("no", False)])
def test_config_cooccurrence_value(workspace, tmp_path, capsys, value, present):
    cfg = tmp_path / "kg.cfg"
    cfg.write_text(f"cooccurrence = {value}\n")
    out = tmp_path / "g.tsv"
    rc = run_cli(["build-kg", "--config", str(cfg),
                  "--annotations", str(workspace / "annotations.csv"), "--out", str(out)])
    assert rc == 0
    assert ("coOccurs: 0" not in capsys.readouterr().out) is present
    assert f"# cooccurrence = {str(present).lower()}\n" in out.read_text()


def test_config_tau_none_reports_no_threshold_columns(workspace, tmp_path, capsys):
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("tau = none\n")
    rows = eval_rows(workspace, capsys, "--config", str(cfg))
    assert rows[0] == "finding,positives,negatives,auc"


@pytest.mark.parametrize("flag,value", [
    ("m", "many"), ("noise-scale", "loud"), ("seed", "1.5"),
])
def test_bad_typed_value_exits_1_and_names_the_flag(tmp_path, capsys, flag, value):
    outputs = ["--out-features", str(tmp_path / "f.csv"),
               "--out-annotations", str(tmp_path / "a.csv")]
    assert run_cli(["synth", *outputs, f"--{flag}", value]) == 1
    assert f"--{flag}: " in capsys.readouterr().err

    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{flag} = {value}\n")
    assert run_cli(["synth", "--config", str(cfg), *outputs]) == 1
    assert f"--{flag}: " in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize("text,flag", [
    ("cooccurrence = maybe\n", "cooccurrence"),
    ("policy = bogus\n", "policy"),
    ("cooccur-threshold = high\n", "cooccur-threshold"),
])
def test_bad_config_value_names_the_flag(workspace, tmp_path, capsys, text, flag):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    rc = run_cli(["build-kg", "--config", str(cfg),
                  "--annotations", str(workspace / "annotations.csv"),
                  "--out", str(tmp_path / "g.tsv")])
    assert rc == 1
    assert f"--{flag}: " in capsys.readouterr().err


@pytest.mark.parametrize("args,flag", [
    (["train", "--scorer", "mlp"], "scorer"),
    (["train", "--optimizer", "lbfgs"], "optimizer"),
    (["eval", "--fold", "holdout"], "fold"),
    (["eval", "--policy", "bogus"], "policy"),
])
def test_bad_choice_exits_1_and_names_the_flag(capsys, args, flag):
    assert run_cli(args) == 1
    assert f"--{flag}" in capsys.readouterr().err


POLICIES = "{positive,negative,separate}"


@pytest.mark.parametrize("command,choice_sets", [
    ("synth", []),
    ("build-kg", [POLICIES]),
    ("train", ["{distmult,conve}", POLICIES, "{adam,sgd}"]),
    ("eval", ["{train,val,test,all}", POLICIES]),
    ("predict", []),
    ("gradcheck", ["{distmult,conve}"]),
])
def test_help_lists_each_choice_set(capsys, command, choice_sets):
    assert run_cli([command, "--help"]) == 0
    text = capsys.readouterr().out
    # Each choice set shows once in the usage line and once in the options.
    assert text.count("{") == 2 * len(choice_sets)
    for choices in choice_sets:
        assert text.count(choices) == 2 * choice_sets.count(choices)


def test_config_file_with_byte_order_mark(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfm = 5\nn = 3\ndim = 4\n")
    rc = run_cli([
        "synth", "--config", str(cfg),
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
    ])
    assert rc == 0
    assert load_features(tmp_path / "f.csv").m == 5


def test_config_file_bytes_that_are_not_utf8_are_usage_error(tmp_path, capsys):
    cfg = tmp_path / "synth.cfg"
    cfg.write_bytes(b"m = 5\n# \xff\n")
    rc = run_cli([
        "synth", "--config", str(cfg),
        "--out-features", str(tmp_path / "f.csv"),
        "--out-annotations", str(tmp_path / "a.csv"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == f"radkg: {cfg}:2: byte 0xff is not UTF-8\n"
