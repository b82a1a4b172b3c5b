"""Tests for finding/image encodings and the synthetic dataset generator."""

import numpy as np
import pytest

from radkg import ParseError, SyntheticSpec, synth_dataset
from radkg.encoders import FeatureTable, load_features, write_features
from radkg.evaluate import auc_roc


def test_feature_table_validation():
    with pytest.raises(ValueError):
        FeatureTable(["a", "a"], np.zeros((2, 3)))
    with pytest.raises(ValueError):
        FeatureTable(["a"], np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        FeatureTable(["a", "b"], np.zeros((1, 3)))


def test_feature_table_select():
    table = FeatureTable(["a", "b", "c"], np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    picked = table.select(["c", "a"])
    assert picked.image_ids == ["c", "a"]
    assert np.array_equal(picked.codes, np.array([[5.0, 6.0], [1.0, 2.0]]))
    empty = table.select([])
    assert empty.image_ids == [] and empty.codes.shape == (0, 2)
    with pytest.raises(ValueError) as caught:
        table.select(["b", "x", "y"])
    assert str(caught.value) == (
        "2 image ids lack feature rows:\n  missing features for 'x'\n  missing features for 'y'"
    )
    with pytest.raises(ValueError):
        table.select(["a", "a"])


def test_features_round_trip_bit_exact(tmp_path, rng):
    codes = rng.normal(size=(9, 5)) * np.pi  # values with long decimal tails
    table = FeatureTable([f"img{i}" for i in range(9)], codes)
    path = tmp_path / "feat.csv"
    write_features(table, path, comments=["seed = 1"])
    loaded = load_features(path)
    assert loaded.image_ids == table.image_ids
    assert np.array_equal(loaded.codes, table.codes)


def test_features_header_only_file(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("id,f0,f1,f2\n")
    loaded = load_features(path)
    assert loaded.m == 0 and loaded.dim == 3


def test_features_reject_bad_header(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("id,f0,f7\nimg0,1.0,2.0\n")
    with pytest.raises(ParseError):
        load_features(path)


def test_features_reject_non_numeric(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("id,f0,f1\nimg0,1.0,oops\n")
    with pytest.raises(ParseError) as err:
        load_features(path)
    assert ":2:" in str(err.value)


def test_features_reject_non_finite(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("id,f0\nimg0,inf\n")
    with pytest.raises(ParseError):
        load_features(path)


# ---------------------------------------------------------------- synthetic


def test_synth_dataset_shapes_and_alignment():
    spec = SyntheticSpec(m=40, n=6, dim=16, seed=3)
    features, annotations = synth_dataset(spec)
    assert features.m == 40 and features.dim == 16
    assert annotations.m == 40 and annotations.n == 6
    assert features.image_ids == annotations.image_ids


def test_synth_dataset_deterministic():
    spec = SyntheticSpec(m=30, n=5, dim=8, seed=11)
    f1, a1 = synth_dataset(spec)
    f2, a2 = synth_dataset(spec)
    assert np.array_equal(f1.codes, f2.codes)
    assert np.array_equal(a1.labels, a2.labels)


def test_synth_dataset_seed_matters():
    f1, _ = synth_dataset(SyntheticSpec(m=30, n=5, dim=8, seed=0))
    f2, _ = synth_dataset(SyntheticSpec(m=30, n=5, dim=8, seed=1))
    assert not np.array_equal(f1.codes, f2.codes)


def test_synth_dataset_every_image_has_a_finding():
    _, annotations = synth_dataset(SyntheticSpec(m=200, n=4, dim=8, seed=5,
                                                 label_sparsity=0.05))
    assert ((annotations.labels == 1).any(axis=1)).all()


def test_synth_dataset_uncertain_fraction():
    spec = SyntheticSpec(m=400, n=8, dim=8, seed=2, uncertain_fraction=0.5)
    _, annotations = synth_dataset(spec)
    uncertain = int((annotations.labels == -1).sum())
    positive = int((annotations.labels == 1).sum())
    assert uncertain > 0
    # roughly half of the original positives were downgraded
    frac = uncertain / (uncertain + positive)
    assert 0.35 < frac < 0.65


def test_synth_dataset_no_uncertain_by_default():
    _, annotations = synth_dataset(SyntheticSpec(m=50, n=5, dim=8, seed=4))
    assert set(np.unique(annotations.labels).tolist()) <= {0, 1}


def test_synth_noiseless_codes_linearly_separate_labels():
    """With zero noise a least-squares readout recovers every label exactly.

    Codes are sums of per-finding prototype rows, so the map from the positive
    indicator to the code is linear and injective; each label column is then a
    linear function of the code and the readout reaches AUC 1.0.
    """
    spec = SyntheticSpec(m=120, n=8, dim=32, noise_scale=0.0, seed=9)
    features, annotations = synth_dataset(spec)
    y = (annotations.labels == 1).astype(np.float64)
    w, *_ = np.linalg.lstsq(features.codes, y, rcond=None)
    scores = features.codes @ w
    for j in range(spec.n):
        labels = y[:, j].astype(int).tolist()
        if len(set(labels)) < 2:
            continue
        assert auc_roc(scores[:, j].tolist(), labels) == 1.0


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(m=0)
    with pytest.raises(ValueError):
        SyntheticSpec(label_sparsity=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(label_sparsity=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(uncertain_fraction=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_scale=-0.1)
