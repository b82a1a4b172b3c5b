"""Tests for finding/image encodings and the synthetic dataset generator."""

import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from radkg import ParseError, SyntheticSpec, synth_dataset
from radkg import artifacts, encoders
from radkg.encoders import FeatureTable, load_features, write_features
from radkg.evaluate import auc_roc

from helpers import QUOTED_IDS, mutate, reference_load_features, reference_write_features


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


@pytest.mark.parametrize("dim", [0, 3])
def test_feature_ids_that_need_quoting_round_trip(tmp_path, rng, dim):
    ids = [*QUOTED_IDS, "plain"]
    table = FeatureTable(ids, rng.normal(size=(len(ids), dim)))
    path = tmp_path / "feat.csv"
    write_features(table, path)
    loaded = load_features(path)
    assert loaded.image_ids == ids
    assert np.array_equal(loaded.codes, table.codes)


def test_features_header_only_file(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_text("id,f0,f1,f2\n")
    loaded = load_features(path)
    assert loaded.m == 0 and loaded.dim == 3


def test_a_header_only_wide_file_costs_only_what_its_header_does(tmp_path):
    """No grid is sized from the header: 100k columns and no rows load as a
    (0, 100000) table within a few times the header's own objects."""
    dim = 100_000
    path = tmp_path / "feat.csv"
    path.write_text(",".join(["id"] + [f"f{k}" for k in range(dim)]) + "\n")
    tracemalloc.start()
    try:
        loaded = load_features(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.image_ids == [] and loaded.codes.shape == (0, dim)
    assert peak < 32 << 20


@pytest.mark.parametrize("dim", [0, 4])
def test_writer_writes_the_bytes_of_the_per_cell_formatter(tmp_path, rng, dim):
    specials = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.5e-320,
                1.7976931348623157e308, -1.7976931348623157e308, 2.2250738585072014e-308,
                0.1, 1 / 3, 1e16, 1e22, 123456789.0, -2.5]
    m = 6 if dim == 0 else len(specials) // dim + 5
    codes = rng.normal(size=(m, dim)) * 10.0 ** rng.integers(-300, 300, size=(m, dim))
    if dim:
        codes.ravel()[:len(specials)] = specials
    table = FeatureTable([*QUOTED_IDS, *(f"img{i}" for i in range(m - len(QUOTED_IDS)))], codes)
    path, reference = tmp_path / "feat.csv", tmp_path / "reference.csv"
    write_features(table, path, comments=["seed = 1"])
    reference_write_features(table, reference, comments=["seed = 1"])
    assert path.read_bytes() == reference.read_bytes()
    assert load_features(path).codes.tobytes() == codes.tobytes()


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


# ------------------------------------------- grid reader vs per-cell reader


def read_outcome(loader, path):
    """What a feature reader makes of a file: the ids and the exact bytes of
    the codes, or the line and message of its ParseError."""
    try:
        table = loader(path)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("table", table.image_ids, table.codes.shape, table.codes.tobytes())


def assert_readers_agree(path):
    outcome = read_outcome(load_features, path)
    assert outcome == read_outcome(reference_load_features, path)
    return outcome


#: Rows of one block, and so of the first grid, at D=3 and D=64.
ROWS_3, ROWS_64 = artifacts.BLOCK_CELLS // 3, artifacts.BLOCK_CELLS // 64


@pytest.mark.parametrize("m", [0, 1, ROWS_3 - 1, ROWS_3, ROWS_3 + 1, 2 * ROWS_3 + 1])
def test_grid_reader_matches_per_cell_reader_across_growth(tmp_path, m):
    rng = np.random.default_rng(m)
    codes = rng.normal(size=(m, 3)) * 10.0 ** rng.integers(-300, 300, size=(m, 3))
    path = tmp_path / "feat.csv"
    write_features(FeatureTable([f"img{i}" for i in range(m)], codes), path)
    outcome = assert_readers_agree(path)
    assert outcome[0] == "table" and outcome[3] == codes.tobytes()


@pytest.mark.parametrize("m", [0, 200, 8 * ROWS_64 + 1])
def test_loaded_codes_own_exactly_their_rows(tmp_path, m):
    """No grown grid outlives the read: the codes own their data, m x D cells."""
    codes = np.random.default_rng(m).normal(size=(m, 64))
    path = tmp_path / "feat.csv"
    write_features(FeatureTable([f"img{i}" for i in range(m)], codes), path)
    loaded = load_features(path).codes
    assert loaded.base is None and loaded.flags.owndata
    assert loaded.shape == (m, 64) and loaded.nbytes == codes.nbytes
    assert loaded.tobytes() == codes.tobytes()


def test_grid_reader_matches_per_cell_reader_on_layouts(tmp_path):
    path = tmp_path / "feat.csv"
    layouts = [
        "id\nimg0\nimg1\n",                                    # dim = 0
        "id\n",
        "# a comment\n\nid,f0\n  # indented comment\nimg0,1.0\n\n\t\nimg1,2\n",
        'id,f0,f1\n"a,b",1,2\n"x""y",3,4\n"plain",5,6\n',      # quoted ids
        'id,f0\n"1,2",3\n1,"2"\n',                              # a quoted cell
        "id,f0\r\nimg0,1.5\r\nimg1,2.5\r\n",
        "id,f0\nimg0,1.0\nimg0,2.0\n",
        "id,f0\nimg0,1.0,2.0\n",
        "id,f0,f1\nimg0,1.0\n",
        "",
        "# only a comment\n",
        "name,f0\nimg0,1\n",
        "id,f1\nimg0,1\n",
    ]
    for text in layouts:
        path.write_text(text, encoding="utf-8")
        assert_readers_agree(path)


EDGE_TOKENS = [" 1.5", "1.5 ", "1_0", "\u0661\u0662", "1e999", "-1e999", "1e-400", "-0.0",
               "+.5", "5.", "0x10", "", " ", "nan", "-NaN", "inf", "Infinity", "-inf",
               "1__0", "_1", "1e", "e1", "\u00a01", "1\x00", "1.7976931348623157e308",
               "4.9e-324", "2.2250738585072011e-308", "0.1000000000000000055511151231257827",
               "9007199254740993", "-0", ".5", "5.e3", "+1", "1E+3", "1e05", "-1E-05", "-",
               "+", ".", "-.5", "1-2", "1e5-3", "1.2.3", "1e2e3", "5e3.2", "+-1", "1e+", "e",
               "99999999999999999999", "-99999999999999999999", "1e99999999999999999999",
               "1e-99999999999999999999", "1e-0000000000000000000005", "000000000000000000001.5",
               "/5", ")5", "1e/5", "1E)5", "5/", "1e5/"]


def test_grid_reader_matches_per_cell_reader_on_edge_tokens(tmp_path):
    path = tmp_path / "feat.csv"
    for token in EDGE_TOKENS:
        for row in ([token, "1.0"], ["1.0", token]):
            path.write_text("id,f0,f1\nimg0,2.0,3.0\nimg1," + ",".join(row) + "\n",
                            encoding="utf-8")
            assert_readers_agree(path)


def test_first_bad_cell_in_column_order_names_the_error(tmp_path):
    path = tmp_path / "feat.csv"
    rows = {
        "inf,oops": "non-finite cell 'inf' in column 2",
        "oops,inf": "non-numeric cell 'oops' in column 2",
        "1,nan,oops": "non-finite cell 'nan' in column 3",
        "1,oops,-inf": "non-numeric cell 'oops' in column 3",
    }
    for cells, message in rows.items():
        dim = cells.count(",") + 1
        header = ",".join(["id"] + [f"f{k}" for k in range(dim)])
        path.write_text(f"{header}\nimg0,{','.join(['0'] * dim)}\nimg1,{cells}\n")
        outcome = assert_readers_agree(path)
        assert outcome == ("error", 3, f"{path}:3: {message}")


def test_grid_reader_matches_per_cell_reader_on_mutated_files(tmp_path):
    """Seeded 1-3 byte mutations: both readers load the same table or raise
    the same ParseError, and no other exception escapes either of them."""
    rng = np.random.default_rng(6)
    codes = rng.normal(size=(8, 4)) * np.pi
    clean = tmp_path / "feat.csv"
    write_features(FeatureTable([f"img{i}" for i in range(8)], codes), clean, comments=["x"])
    data = clean.read_bytes()
    path = tmp_path / "mutated.csv"
    kinds = set()
    for _ in range(600):
        path.write_bytes(mutate(data, rng))
        kinds.add(assert_readers_agree(path)[0])
    assert kinds == {"table", "error"}


def bulk_cells(rng) -> list[str]:
    """Seeded decimal cells for the bulk converter: ``repr`` of doubles at
    scales 10**+-300; 1-25-digit mantissas with leading zeros, a dot anywhere
    and exponents; 19- and 20-digit mantissas above 2**63 of both signs;
    exact decimal midpoints between adjacent doubles; and fixed edge tokens."""
    cells = [repr(float(x)) for x in
             rng.normal(size=1500) * 10.0 ** rng.integers(-300, 301, size=1500)]
    for _ in range(3000):
        mantissa = "0" * int(rng.integers(0, 4)) + "".join(
            map(str, rng.integers(0, 10, size=int(rng.integers(1, 26)))))
        if rng.random() < 0.7:
            dot = int(rng.integers(0, len(mantissa) + 1))
            mantissa = mantissa[:dot] + "." + mantissa[dot:]
        exponent = ""
        if rng.random() < 0.5:
            exponent = (str(rng.choice(["e", "E", "e+", "e-", "E-"]))
                        + str(int(rng.integers(-30, 31))).lstrip("-").zfill(int(rng.integers(1, 4))))
        cells.append(str(rng.choice(["", "-", "+"])) + mantissa + exponent)
    for _ in range(500):
        big = 2**63 + int(rng.integers(0, 2**63 - 1)) * int(rng.integers(1, 10))
        cells.append(str(rng.choice(["", "-"])) + str(big))
    for _ in range(500):
        # Doubles in [2**(53+j), 2**(54+j)) lie 2**(j+1) apart, so these
        # integers are midpoints, written with zeros or an exponent.
        j = int(rng.integers(0, 6))
        text = str(2 ** (53 + j) + 2 ** (j + 1) * int(rng.integers(0, 2**52)) + 2**j)
        cells.append(str(rng.choice([text, text + ".0", text + ".00",
                                     text[:1] + "." + text[1:] + f"e{len(text) - 1}"])))
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-20, 20))
        midpoint = (Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2
        cells.append(format(midpoint, "f"))
    cells += ["9007199254740993", "-0", "-0.0", ".5", "5.", "5.e3", "+1", "1E+3", "1e05",
              "-1E-05", "1e-400", "0e999", "123456789012345678", "1234567890123456789",
              "0.0000000000000000000000000001", "1e-27", "1e-28", "1e22", "1e23"]
    return cells


def bulk_codes(cells, dim=16):
    """The cells, padded to whole lines of ``dim``, and what
    ``encoders._bulk_block`` makes of them: their doubles, or None."""
    cells = cells + ["0"] * (-len(cells) % dim)
    block = [(i + 2, f"img{i}," + ",".join(cells[i * dim:(i + 1) * dim]))
             for i in range(len(cells) // dim)]
    rows = np.empty((len(block), dim))
    return cells, rows.ravel() if encoders._bulk_block(block, dim, {}, rows) else None


@pytest.mark.skipif(not encoders._EXTENDED, reason="long doubles are not x87 extended precision")
def test_bulk_cells_match_float_bit_for_bit():
    cells, codes = bulk_codes(bulk_cells(np.random.default_rng(17)))
    assert codes.tobytes() == np.array([float(c) for c in cells]).tobytes()
    for token in ["1e400", "-1e400", "1.5e309"]:
        assert bulk_codes([token, "1.5"])[1] is None      # left to the row loop


def test_block_boundaries_match_per_cell_reader(tmp_path, monkeypatch):
    """Across blocks of 16 lines: a clean file takes the bulk path in every
    block, and a fault in a later block, or CRLF lines from there on, give
    the per-cell reader's outcome. Without x87 long doubles, where the row
    loop reads every block, the tables are the same bytes."""
    monkeypatch.setattr(artifacts, "BLOCK_CELLS", 64)
    bulk_blocks = []
    bulk_block = encoders._bulk_block
    monkeypatch.setattr(encoders, "_bulk_block",
                        lambda *args: bulk_blocks.append(bulk_block(*args)) or bulk_blocks[-1])
    rng = np.random.default_rng(12)
    codes = rng.normal(size=(70, 4)) * 10.0 ** rng.integers(-30, 30, size=(70, 4))
    path = tmp_path / "feat.csv"
    write_features(FeatureTable([f"img{i}" for i in range(70)], codes), path)
    clean = path.read_text().splitlines(keepends=True)
    outcome = assert_readers_agree(path)
    assert outcome[0] == "table" and outcome[3] == codes.tobytes()
    assert bulk_blocks == [True] * 5
    with monkeypatch.context() as patch:
        patch.setattr(encoders, "_EXTENDED", False)
        assert read_outcome(load_features, path) == outcome

    late = 41                                    # img40, in the third block
    cells = clean[late].split(",", 1)[1]
    variants = {
        "bad cell": "img40,1.0,oops," + cells.split(",", 2)[2],
        "duplicate id": "img3," + cells,
        "quoted id": '"img,40",' + cells,
        "comment": "# a comment\n" + clean[late],
    }
    for name, line in variants.items():
        path.write_text("".join(clean[:late] + [line] + clean[late + 1:]))
        outcome = assert_readers_agree(path)
        assert outcome[0] == ("table" if name in ("quoted id", "comment") else "error"), name
    path.write_bytes("".join(clean[:late]).encode() + "".join(clean[late:]).replace("\n", "\r\n").encode())
    assert assert_readers_agree(path)[3] == codes.tobytes()


def test_multi_block_files_match_per_cell_reader_when_mutated(tmp_path, monkeypatch):
    """Seeded 1-3 byte mutations of a file of five blocks."""
    monkeypatch.setattr(artifacts, "BLOCK_CELLS", 64)
    rng = np.random.default_rng(9)
    codes = rng.normal(size=(70, 4)) * 10.0 ** rng.integers(-30, 30, size=(70, 4))
    clean = tmp_path / "feat.csv"
    write_features(FeatureTable([f"img{i}" for i in range(70)], codes), clean)
    data = clean.read_bytes()
    path = tmp_path / "mutated.csv"
    kinds = set()
    for _ in range(300):
        path.write_bytes(mutate(data, rng))
        kinds.add(assert_readers_agree(path)[0])
    assert kinds == {"table", "error"}


def test_block_size_changes_no_table_and_no_error_line(tmp_path, monkeypatch):
    """Blocks under one row, of 64 cells, of the default size and of the
    whole file read the same bytes, and name the same line and cell for a
    bad cell in a later block."""
    sizes = (1, 64, artifacts.BLOCK_CELLS, 1 << 20)
    rng = np.random.default_rng(20)
    m, dim = 300, 64
    assert m * dim > 2 * artifacts.BLOCK_CELLS       # three blocks at the default
    codes = rng.normal(size=(m, dim)) * 10.0 ** rng.integers(-30, 30, size=(m, dim))
    path, bad = tmp_path / "feat.csv", tmp_path / "bad.csv"
    write_features(FeatureTable([f"img{i}" for i in range(m)], codes), path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[251].split(",")
    cells[40] = "oops"
    bad.write_text("".join(lines[:251] + [",".join(cells)] + lines[252:]))
    outcomes = []
    for size in sizes:
        monkeypatch.setattr(artifacts, "BLOCK_CELLS", size)
        outcomes.append((read_outcome(load_features, path), read_outcome(load_features, bad)))
    table, error = outcomes[0]
    assert table[0] == "table" and table[3] == codes.tobytes()
    assert error == ("error", 252, f"{bad}:252: non-numeric cell 'oops' in column 41")
    assert outcomes == [outcomes[0]] * len(sizes)


def test_features_reject_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "feat.csv"
    path.write_bytes(b"id,f0\r\nimg0,1\rimg1,2\nimg\xff2,3\n")
    with pytest.raises(ParseError) as err:
        load_features(path)
    assert err.value.line == 4
    assert str(err.value).endswith("byte 0xff is not UTF-8")


def test_a_bad_cell_before_bytes_that_are_not_utf8_is_reported_first(tmp_path):
    """The line reader decodes a chunk of the file at a time, so a block
    that reaches a bad byte is checked up to it: the bad cell before it is
    the error, as it is for the per-cell reader."""
    rng = np.random.default_rng(3)
    path = tmp_path / "feat.csv"
    write_features(FeatureTable([f"img{i}" for i in range(400)], rng.normal(size=(400, 4))), path)
    lines = path.read_bytes().split(b"\n")
    lines[2] = b"img1,1.0,oops,2.0,3.0"
    path.write_bytes(b"\n".join(lines) + b"img\xff,1,2,3,4\n")
    assert len(path.read_bytes()) > 4 * 8192
    assert assert_readers_agree(path)[:2] == ("error", 3)


def test_features_with_a_byte_order_mark_load_as_without(tmp_path):
    features, _ = synth_dataset(SyntheticSpec(m=5, n=2, dim=3, seed=4))
    plain, marked = tmp_path / "feat.csv", tmp_path / "bom-feat.csv"
    write_features(features, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    loaded, expected = load_features(marked), load_features(plain)
    assert loaded.image_ids == expected.image_ids
    assert np.array_equal(loaded.codes, expected.codes)


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


@pytest.mark.parametrize("field", ["prototype_scale", "noise_scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_synth_spec_refuses_scales_that_are_not_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
        SyntheticSpec(**{field: value})
