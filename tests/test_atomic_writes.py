"""Every artifact writer replaces its file whole or not at all.

Each case writes a file once, then writes it again with a write that raises
partway through; the first file must be left byte for byte, and no temp
file may be left beside it. A lone surrogate cannot be encoded as UTF-8, so
a text line holding one makes the write of that line raise.
"""

import io
import os
import sys

import numpy as np
import pytest

from helpers import make_table

from radkg import UncertainPolicy, build_radkg, cli, init_model, save_checkpoint, training
from radkg.encoders import FeatureTable, write_features
from radkg.evaluate import Predictions, write_predictions
from radkg.kg import write_annotations, write_kg

BAD = "bad\udc80"


def _features(ids):
    return FeatureTable(ids, np.arange(len(ids) * 3, dtype=np.float64).reshape(-1, 3))


def _table(ids):
    return make_table([[1, 0], [0, -1], [1, 1]], ids=ids)


def features_case(tmp_path, monkeypatch):
    path = tmp_path / "features.csv"

    def failing():
        with pytest.raises(UnicodeEncodeError):
            write_features(_features(["a", "b", BAD]), path)

    return path, lambda: write_features(_features(["a", "b", "c"]), path), failing


def annotations_case(tmp_path, monkeypatch):
    path = tmp_path / "annotations.csv"

    def failing():
        with pytest.raises(UnicodeEncodeError):
            write_annotations(_table(["a", "b", BAD]), path)

    return path, lambda: write_annotations(_table(["a", "b", "c"]), path), failing


def kg_case(tmp_path, monkeypatch):
    path = tmp_path / "graph.tsv"
    graph = build_radkg(_table(["a", "b", "c"]), UncertainPolicy.AS_SEPARATE_RELATION)

    def failing():
        with pytest.raises(UnicodeEncodeError):
            write_kg(graph, path, comments=["first", BAD])

    return path, lambda: write_kg(graph, path, comments=["first"]), failing


def checkpoint_case(tmp_path, monkeypatch):
    path = tmp_path / "model.rkg"
    model = init_model("distmult", 4, 3, 2, seed=1)

    def crc_fails(data):
        raise RuntimeError("checksum failed")

    def failing():
        # The body is written before its CRC is taken.
        monkeypatch.setattr(training.zlib, "crc32", crc_fails)
        with pytest.raises(RuntimeError, match="checksum failed"):
            save_checkpoint(init_model("distmult", 4, 3, 2, seed=2), path)

    return path, lambda: save_checkpoint(model, path), failing


def predictions_case(tmp_path, monkeypatch):
    path = tmp_path / "predictions.csv"
    p = np.full((3, 2), 0.25)

    def failing():
        with pytest.raises(UnicodeEncodeError):
            write_predictions(Predictions(["a", "b", BAD], p, p), ["f0", "f1"], path)

    return path, lambda: write_predictions(Predictions(["a", "b", "c"], p, p), ["f0", "f1"], path), failing


def _cli_case(tmp_path, monkeypatch, command, out_option, out_name):
    """A CLI command writing ``out_name``; the failing run echoes a bad line
    into it, which ends in exit code 2."""
    data = tmp_path / "data"
    data.mkdir()
    assert cli.main([
        "synth", "--out-features", str(data / "f.csv"), "--out-annotations", str(data / "a.csv"),
        "--m", "30", "--n", "3", "--dim", "4", "--seed", "1",
    ]) == 0
    inputs = ["--features", str(data / "f.csv"), "--annotations", str(data / "a.csv")]
    train = ["train", *inputs, "--out-checkpoint", str(data / "m.rkg"), "--scorer", "distmult",
             "--embed-dim", "4", "--epochs", "2", "--patience", "2", "--seed", "0"]
    assert cli.main(train) == 0
    args = train if command == "train" else ["eval", *inputs, "--checkpoint", str(data / "m.rkg")]
    path = tmp_path / out_name
    args = [*args, out_option, str(path)]

    def failing():
        echo_lines = cli.echo_lines
        monkeypatch.setattr(cli, "echo_lines", lambda *a: [*echo_lines(*a), BAD])
        # eval prints its report before writing it; a StringIO takes the bad line.
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert cli.main(args) == 2

    def write():
        assert cli.main(args) == 0

    return path, write, failing


def history_case(tmp_path, monkeypatch):
    return _cli_case(tmp_path, monkeypatch, "train", "--out-history", "history.csv")


def eval_report_case(tmp_path, monkeypatch):
    return _cli_case(tmp_path, monkeypatch, "eval", "--out", "report.csv")


CASES = [features_case, annotations_case, kg_case, checkpoint_case, predictions_case,
         history_case, eval_report_case]


def _listing(root):
    return sorted(p.relative_to(root) for p in root.rglob("*"))


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_a_write_that_fails_midway_leaves_the_earlier_file(case, tmp_path, monkeypatch, capsys):
    path, write, failing = case(tmp_path, monkeypatch)
    write()
    before, listing = path.read_bytes(), _listing(tmp_path)
    assert before
    failing()
    assert path.read_bytes() == before
    assert _listing(tmp_path) == listing


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__)
def test_a_written_file_gets_the_mode_open_gives_under_the_umask(case, tmp_path, monkeypatch, capsys):
    path, write, _ = case(tmp_path, monkeypatch)
    old_mask = os.umask(0o027)
    try:
        write()
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old_mask)
    assert os.stat(path).st_mode == os.stat(tmp_path / "plain").st_mode
    assert os.stat(path).st_mode & 0o777 == 0o640


def test_a_missing_directory_is_reported_under_the_target_path(tmp_path):
    path = tmp_path / "missing" / "features.csv"
    with pytest.raises(FileNotFoundError) as info:
        write_features(_features(["a"]), path)
    assert info.value.filename == str(path)


def test_an_existing_file_keeps_its_mode_and_a_symlink_is_written_through(tmp_path):
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("old\n")
    os.chmod(real, 0o600)
    link.symlink_to(real.name)
    write_features(_features(["a"]), link)
    assert link.is_symlink()
    assert real.read_text().endswith("a,0.0,1.0,2.0\n")
    assert os.stat(real).st_mode & 0o777 == 0o600
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
