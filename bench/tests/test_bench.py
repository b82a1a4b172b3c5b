"""Tests for the benchmark's own logic: percentiles, self time and the generator.

    python3 -m pytest -q bench/tests
"""

import types

import numpy as np
import pytest

import inputs
import spans


def test_percentile_states_rank_and_sample_count():
    values = list(range(1000, 0, -1))
    p99 = spans.percentile(values, 99)
    assert p99 == {"q": 99, "value": 990, "samples": 1000, "beyond": 10}
    assert spans.percentile(values, 50)["value"] == 500
    assert spans.percentile([7.0], 99) == {"q": 99, "value": 7.0, "samples": 1, "beyond": 0}
    assert spans.percentile([], 50)["samples"] == 0


def _span(name, start, end, parent):
    return [name, start, end, parent, "r"]


def test_self_time_subtracts_nested_children_once():
    records = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
    ]
    assert spans.self_times(records) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_as_their_union():
    records = [_span("p", 0.0, 10.0, -1), _span("x", 1.0, 4.0, 0), _span("y", 3.0, 6.0, 0),
               _span("z", 8.0, 12.0, 0)]
    assert spans.self_times(records)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_links_parents_and_reports_absent_names():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    tracer = spans.Tracer()
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner")
    tracer.wrap(module, "gone", "gone")
    tracer.run_id = "run-1"
    with tracer.span("run"):
        assert module.outer(1) == 4
    names = [r[spans.NAME] for r in tracer.spans]
    parents = [r[spans.PARENT] for r in tracer.spans]
    assert names == ["run", "outer", "inner"]
    assert parents == [-1, 0, 1]
    assert {r[spans.RUN] for r in tracer.spans} == {"run-1"}
    assert all(r[spans.END] >= r[spans.START] for r in tracer.spans)
    assert tracer.absent == ["gone"]


SPEC = inputs.DataSpec(m=300, dim=8, uncertain=0.2, blank=0.3, groups=True)


def test_generator_is_deterministic_per_seed():
    a, b, c = inputs.generate(SPEC, 3), inputs.generate(SPEC, 3), inputs.generate(SPEC, 4)
    assert np.array_equal(a.codes, b.codes) and np.array_equal(a.labels, b.labels)
    assert a.groups == b.groups and a.image_ids == b.image_ids
    assert not np.array_equal(a.codes, c.codes)


def test_generator_files_are_byte_identical_per_seed(tmp_path):
    for name in ("one", "two"):
        data = inputs.generate(SPEC, 5)
        (tmp_path / name).mkdir()
        inputs.write_features(data, tmp_path / name / "f.csv")
        described = inputs.write_annotations(data, tmp_path / name / "a.csv")
    for file in ("f.csv", "a.csv"):
        assert (tmp_path / "one" / file).read_bytes() == (tmp_path / "two" / file).read_bytes()
    assert described["rows"] == 300 and described["dim"] == inputs.N_FINDINGS
    assert described["bytes"] == (tmp_path / "one" / "a.csv").stat().st_size


def test_generator_cell_mix_and_groups(tmp_path):
    data = inputs.generate(SPEC, 1)
    assert set(np.unique(data.labels).tolist()) == {-2, -1, 0, 1}
    assert data.labels[np.isin(data.labels, (1, -1))].size > 0
    assert ((data.labels == 1) | (data.labels == -1)).any(axis=1).all()
    assert 1 < len(set(data.groups)) < data.labels.shape[0]
    inputs.write_annotations(data, tmp_path / "a.csv")
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0].endswith(",group")
    assert any(",," in line for line in lines[1:])


def test_features_round_trip_exactly(tmp_path):
    data = inputs.generate(SPEC, 2)
    inputs.write_features(data, tmp_path / "f.csv")
    rows = [line.split(",")[1:] for line in (tmp_path / "f.csv").read_text().splitlines()[1:]]
    assert np.array_equal(np.array(rows, dtype=np.float64), data.codes)

