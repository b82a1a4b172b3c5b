"""The shared text dialect: comments and cells that could not be read back are
refused before any file is touched, module boundaries stay public, and the
benchmark's call paths resolve."""

import ast
import importlib.util
import io
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    edge_counts, make_table, random_table, reference_write_kg, reference_write_predictions,
)

from radkg import UncertainPolicy, add_cooccurrence, build_radkg, cli, cooccurrence_matrix
from radkg.encoders import FeatureTable, write_features
from radkg.evaluate import EvalReport, Predictions, format_report, write_predictions
from radkg.kg import write_annotations, write_kg

ROOT = Path(__file__).resolve().parents[1]
BREAKS = ["a\nb", "a\rb", "a\r\nb", "\n"]


def _listing(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


def _features(ids):
    return FeatureTable(ids, np.ones((len(ids), 2)))


def _predictions(ids):
    return Predictions(ids, np.zeros((len(ids), 2)))


WRITERS = {
    "features": lambda path, comments: write_features(_features(["a", "b"]), path, comments),
    "annotations": lambda path, comments: write_annotations(
        make_table([[1, 0], [0, 1]]), path, comments),
    "graph": lambda path, comments: write_kg(
        build_radkg(make_table([[1, 0], [0, 1]]), UncertainPolicy.AS_POSITIVE), path, comments),
    "predictions": lambda path, comments: write_predictions(
        _predictions(["a", "b"]), ["f0", "f1"], path, comments=comments),
}


@pytest.mark.parametrize("comment", BREAKS)
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_comment_with_a_line_break_is_refused_before_the_file_is_opened(
        writer, comment, tmp_path):
    with pytest.raises(ValueError, match="comment") as info:
        WRITERS[writer](tmp_path / "out", ["ok", f"x = {comment}"])
    assert repr(f"x = {comment}") in str(info.value)
    assert _listing(tmp_path) == []


def test_format_report_refuses_a_comment_with_a_line_break():
    report = EvalReport(["f0"], auc=[0.5], macro=0.5, positives=[1], negatives=[1])
    assert format_report(report, echo=["a = 1"]).startswith("# a = 1\nfinding,")
    with pytest.raises(ValueError, match="comment 'a\\\\nb'"):
        format_report(report, echo=["a\nb"])


def test_build_kg_with_a_line_break_in_an_echoed_value_writes_nothing(tmp_path, capsys):
    """The echoed ``out = ...`` comment used to end at the break, and its tail
    was read back as one more edge."""
    assert cli.main(["synth", "--out-features", str(tmp_path / "f.csv"),
                     "--out-annotations", str(tmp_path / "a.csv"),
                     "--m", "20", "--n", "3", "--dim", "4", "--seed", "1"]) == 0
    listing = _listing(tmp_path)
    out = str(tmp_path / "g.tsv") + "\nImage:9\thasFinding\tFinding:1"
    assert cli.main(["build-kg", "--annotations", str(tmp_path / "a.csv"), "--out", out]) == 2
    assert "holds a line break" in capsys.readouterr().err
    assert _listing(tmp_path) == listing
    # The same command with a plain name writes the edges it printed.
    assert cli.main(["build-kg", "--annotations", str(tmp_path / "a.csv"),
                     "--out", str(tmp_path / "g.tsv")]) == 0
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert edge_counts(tmp_path / "g.tsv") == {r: int(c) for r, c in printed.items() if int(c)}


@pytest.mark.parametrize("command, option", [("train", "--out-history"), ("eval", "--out")])
def test_cli_writers_refuse_an_echo_line_with_a_line_break(command, option, tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    assert cli.main(["synth", "--out-features", str(data / "f.csv"),
                     "--out-annotations", str(data / "a.csv"),
                     "--m", "30", "--n", "3", "--dim", "4", "--seed", "1"]) == 0
    inputs = ["--features", str(data / "f.csv"), "--annotations", str(data / "a.csv")]
    train = ["train", *inputs, "--out-checkpoint", str(data / "m.rkg"), "--embed-dim", "4",
             "--epochs", "1"]
    assert cli.main(train) == 0
    args = train if command == "train" else ["eval", *inputs, "--checkpoint", str(data / "m.rkg")]
    echo_lines = cli.echo_lines
    monkeypatch.setattr(cli, "echo_lines", lambda *a: [*echo_lines(*a), "x = a\nb"])
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    assert cli.main([*args, option, str(tmp_path / "out.csv")]) == 2
    assert not (tmp_path / "out.csv").exists()
    assert sys.stdout.getvalue() == ""


CELL_CASES = {
    "feature id": lambda path, bad: write_features(_features([bad, "c"]), path),
    "annotation id": lambda path, bad: write_annotations(make_table([[1], [0]], ids=["c", bad]), path),
    "annotation name": lambda path, bad: write_annotations(make_table([[1, 0]], names=["c", bad]), path),
    "annotation group": lambda path, bad: write_annotations(
        make_table([[1], [0]], groups=["c", bad]), path),
    "prediction id": lambda path, bad: write_predictions(_predictions([bad, "c"]), ["f0", "f1"], path),
    "prediction name": lambda path, bad: write_predictions(_predictions(["a", "c"]), ["f0", bad], path),
}


@pytest.mark.parametrize("bad", BREAKS)
@pytest.mark.parametrize("case", sorted(CELL_CASES))
def test_a_cell_with_a_line_break_is_refused_before_the_file_is_opened(case, bad, tmp_path):
    """The line reader ends a line at any break, even inside quotes, so such
    a cell would be written but could not be read back."""
    path = tmp_path / "out.csv"
    path.write_text("earlier\n")
    with pytest.raises(ValueError, match="holds a line break") as info:
        CELL_CASES[case](path, bad)
    assert repr(bad) in str(info.value)
    assert path.read_text() == "earlier\n"
    assert _listing(tmp_path) == [Path("out.csv")]


def test_the_writers_match_the_per_row_references_at_the_ingest_benchmark_shape(tmp_path, rng):
    """A 10,000 x 14 prediction table, with and without a threshold, and a
    10,000-image graph holding all three relations are written byte for
    byte as the per-row reference writers write them."""
    table = random_table(rng, 10000, 14, uncertain=True)
    policy = UncertainPolicy.AS_SEPARATE_RELATION
    graph = add_cooccurrence(build_radkg(table, policy), cooccurrence_matrix(table, policy))
    assert all(graph.relation_counts().values())
    write_kg(graph, tmp_path / "grid.tsv", comments=["policy = separate"])
    reference_write_kg(graph, tmp_path / "rows.tsv", comments=["policy = separate"])
    assert (tmp_path / "grid.tsv").read_bytes() == (tmp_path / "rows.tsv").read_bytes()
    predictions = Predictions(table.image_ids, rng.normal(size=(10000, 14)) * 4)
    for tau in (None, 0.5):
        write_predictions(predictions, table.finding_names, tmp_path / "grid.csv", tau=tau)
        reference_write_predictions(zip(table.image_ids, predictions.p), table.finding_names,
                                    tmp_path / "rows.csv", tau=tau)
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes(), tau


def test_no_module_imports_another_modules_private_name():
    found = []
    for source in sorted((ROOT / "src" / "radkg").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{source.name}: from {'.' * node.level}{node.module or ''} import {a.name}"
                          for a in node.names if a.name.startswith("_")]
    assert found == []


def bench_module(name, monkeypatch):
    """``bench/<name>.py`` loaded as the benchmark loads it, with ``bench/`` on
    the path. ``run.py`` pins the BLAS thread variables when it loads; they
    are restored after the test."""
    bench = ROOT / "bench"
    monkeypatch.syspath_prepend(str(bench))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", bench / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_coarse_benchmark_span_names_an_existing_function(monkeypatch):
    """A format function that moves must fail here, not in a benchmark run."""
    measure = bench_module("measure", monkeypatch)
    assert measure.COARSE
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in measure.COARSE
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_benchmark_steps_run_and_pass_their_checks_on_a_tiny_workload(tmp_path, monkeypatch):
    """ingest-predict's fit and read path at m=80 and m=120, D=16, one
    epoch: every radkg name, field and file column the benchmark reads must
    still work. The AUC floor is left out; data this small need not reach it."""
    measure = bench_module("measure", monkeypatch)
    run = bench_module("run", monkeypatch)
    assert set(run.BLAS_VARS) <= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
    base = measure.WORKLOADS["ingest-predict"]
    workload = replace(
        base,
        fit=replace(base.fit, data=replace(base.fit.data, m=80, dim=16), epochs=1),
        ingest=replace(base.ingest, m=120, dim=16),
    )
    assert (workload.fit.scorer, workload.fit.policy, workload.fit.cooccurrence) == (
        "conve", "separate", True)
    assert workload.ingest.uncertain and workload.ingest.blank and workload.ingest.groups
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    _, tables = run.make_inputs(workload, 7, inputs)

    fitted = measure.fit_run(workload.fit, inputs, out)
    ingested = measure.ingest_run(workload, inputs, out)

    checks = run.Checks()
    fitted["checkpoint_sha256"] = measure.sha256(out / "model.rkg")
    run.check_fit(checks, workload.fit, [fitted])
    run.check_ingest(checks, tables["ingest"], out, 7)
    failed = [c for c in checks.results if not c["ok"] and not c["check"].endswith("_auc_floor")]
    assert failed == []
    assert len(checks.results) >= 9
    assert ingested["feature_rows"] == 120 and ingested["triples"] > 0
