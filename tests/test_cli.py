"""End-to-end tests of the command-line interface, run in process."""

import warnings

import numpy as np
import pytest

from helpers import edge_counts, mutate

from radkg import cli, load_checkpoint, scoring, training
from radkg.cli import main as cli_main
from radkg.encoders import load_features
from radkg.kg import UncertainPolicy, load_annotations, relation_grid


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


# ---------------------------------------------------------------- option values


def eval_rows(workspace, capsys, *extra):
    rc = run_cli([
        "eval",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        *extra,
    ])
    assert rc == 0
    return [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]


def test_ratios_flag_sets_the_fold_sizes(workspace, capsys):
    for fold, size in (("train", 30), ("val", 18), ("test", 12)):
        first = eval_rows(workspace, capsys, "--ratios", "0.5,0.3,0.2", "--fold", fold)[1]
        assert int(first.split(",")[1]) + int(first.split(",")[2]) == size


def test_ratios_need_three_values(workspace, capsys):
    rc = run_cli([
        "eval",
        "--checkpoint", str(workspace / "model.rkg"),
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        "--ratios", "0.5,0.5",
    ])
    assert rc == 1
    assert "--ratios" in capsys.readouterr().err


def train_args(workspace, out, *extra):
    return [
        "train",
        "--features", str(workspace / "features.csv"),
        "--annotations", str(workspace / "annotations.csv"),
        "--out-checkpoint", str(out),
        "--embed-dim", "16", "--epochs", "1", *extra,
    ]


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
