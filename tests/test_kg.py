"""Tests for relations, graph construction, policies, splits, and file formats."""

import csv
import io
import math

import numpy as np
import pytest

from helpers import (
    QUOTED_IDS,
    edges,
    make_table,
    mutate,
    random_table,
    reference_load_annotations,
    reference_split_csv_line,
    reference_write_kg,
)

from radkg import (
    AnnotationTable,
    ParseError,
    RelationKind,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    cooccurrence_matrix,
    split,
)
from radkg import artifacts, kg
from radkg.artifacts import csv_cell as _csv_cell, split_csv_line as _split_csv_line
from radkg.kg import (
    EntityKind,
    KnowledgeGraph,
    LabelValue,
    load_annotations,
    write_annotations,
    write_kg,
)


# ---------------------------------------------------------------- relations


def test_relation_wire_names():
    assert RelationKind.HAS_FINDING.value == "hasFinding"
    assert RelationKind.PROBABLY_HAS_FINDING.value == "probablyHasFinding"
    assert RelationKind.CO_OCCURS.value == "coOccurs"


# ---------------------------------------------------------------- annotations


def test_annotation_table_validates_shapes():
    with pytest.raises(ValueError):
        make_table([[1, 0]], ids=["a", "a"], names=["f0", "f1"])  # need 1 id
    with pytest.raises(ValueError):
        AnnotationTable(["a"], ["f0", "f0"], np.zeros((1, 2), dtype=np.int8))
    with pytest.raises(ValueError):
        AnnotationTable(["a"], ["f0"], np.array([[7]], dtype=np.int8))


def test_label_values():
    assert LabelValue.POSITIVE == 1
    assert LabelValue.NEGATIVE == 0
    assert LabelValue.UNCERTAIN == -1
    assert LabelValue.UNMENTIONED == -2


# ---------------------------------------------------------------- policies


def test_build_radkg_as_positive():
    table = make_table([[1, -1, 0], [0, 0, -2]])
    kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
    assert edges(kg) == {(RelationKind.HAS_FINDING, 0, 0), (RelationKind.HAS_FINDING, 0, 1)}


def test_build_radkg_as_negative():
    table = make_table([[1, -1, 0], [0, 0, -2]])
    kg = build_radkg(table, UncertainPolicy.AS_NEGATIVE)
    assert edges(kg) == {(RelationKind.HAS_FINDING, 0, 0)}


def test_build_radkg_as_separate_relation():
    table = make_table([[1, -1, 0], [0, 0, -2]])
    kg = build_radkg(table, UncertainPolicy.AS_SEPARATE_RELATION)
    assert edges(kg) == {(RelationKind.HAS_FINDING, 0, 0),
                         (RelationKind.PROBABLY_HAS_FINDING, 0, 1)}


def test_unmentioned_never_produces_triples():
    table = make_table([[-2, -2], [-2, -2]])
    for policy in UncertainPolicy:
        assert len(build_radkg(table, policy)) == 0


@pytest.mark.parametrize("policy", list(UncertainPolicy))
def test_closed_world_negatives_complement(rng, policy):
    """Positives plus negatives reconstruct the full image-finding grid."""
    table = random_table(rng, m=17, n=5, uncertain=True, unmentioned=True)
    kg = build_radkg(table, policy)
    for relation in (RelationKind.HAS_FINDING, RelationKind.PROBABLY_HAS_FINDING):
        grid = kg.grid(relation)
        for i in range(table.m):
            pos = set(np.flatnonzero(grid[i]).tolist())
            neg = set(np.flatnonzero(~grid[i]).tolist())
            assert pos.isdisjoint(neg)
            assert pos | neg == set(range(table.n))
            assert set(np.flatnonzero(table.labels[i] == LabelValue.UNMENTIONED).tolist()) <= neg


def test_graph_lookup_and_counts():
    table = make_table([[1, 0, 1]])
    kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
    assert np.flatnonzero(kg.grid(RelationKind.HAS_FINDING)[0]).tolist() == [0, 2]
    assert kg.relation_counts()[RelationKind.HAS_FINDING] == 2
    assert len(kg) == 2
    assert kg.grid(RelationKind.HAS_FINDING)[0, 0]


# ---------------------------------------------------------------- co-occurrence


def test_cooccurrence_known_values():
    # finding 0 positive on rows {1,2,3}; finding 1 positive on rows {2,3}
    table = make_table([[0, 0], [1, 0], [1, 1], [1, 1]])
    cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    assert cond[0, 1] == 1.0  # P(F0 | F1)
    assert abs(cond[1, 0] - 2.0 / 3.0) < 1e-15
    assert cond[0, 0] == 1.0


def test_cooccurrence_zero_support_is_nan():
    table = make_table([[1, 0], [1, 0]])
    cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    assert np.isnan(cond[0, 1]) and np.isnan(cond[1, 1])
    assert cond[0, 0] == 1.0 and cond[1, 0] == 0.0


def test_cooccurrence_respects_policy():
    table = make_table([[1, -1]])
    pos = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    neg = cooccurrence_matrix(table, UncertainPolicy.AS_NEGATIVE)
    assert pos[1, 0] == 1.0
    assert neg[1, 0] == 0.0


def test_add_cooccurrence_strict_threshold():
    # P(F1|F0) is exactly 0.2 (1 of 5): a strict threshold must exclude it
    labels = [[1, 1]] + [[1, 0]] * 4
    table = make_table(labels)
    cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    assert cond[1, 0] == 0.2
    kg = add_cooccurrence(KnowledgeGraph(frozenset(), table.m, table.n), cond)
    assert not kg.grid(RelationKind.CO_OCCURS)[1, 0]
    assert kg.grid(RelationKind.CO_OCCURS)[0, 1]  # P(F0|F1) == 1.0 passes


def test_add_cooccurrence_never_adds_diagonal(rng):
    table = random_table(rng, m=40, n=6)
    cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    kg = add_cooccurrence(KnowledgeGraph(frozenset(), table.m, table.n), cond)
    assert edges(kg)
    assert all(s != o for _, s, o in edges(kg))


def test_add_cooccurrence_monotone_in_threshold(rng):
    table = random_table(rng, m=60, n=8)
    cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    base = KnowledgeGraph(frozenset(), table.m, table.n)
    loose = add_cooccurrence(base, cond, threshold=0.1)
    tight = add_cooccurrence(base, cond, threshold=0.6)
    assert edges(tight) <= edges(loose)


def test_cooccurrence_against_counting_oracle(rng):
    """Direct per-pair counting over many random tables, compared exactly."""
    for trial in range(50):
        table = random_table(
            np.random.default_rng([7, trial]), m=int(rng.integers(2, 30)), n=5,
            uncertain=True,
        )
        pos = table.labels == 1
        cond = cooccurrence_matrix(table, UncertainPolicy.AS_NEGATIVE)
        for i in range(5):
            for j in range(5):
                denom = int(pos[:, j].sum())
                if denom == 0:
                    assert np.isnan(cond[i, j])
                else:
                    both = int((pos[:, i] & pos[:, j]).sum())
                    assert cond[i, j] == both / denom


# ---------------------------------------------------------------- splits


def test_split_exact_sizes_and_disjoint():
    table = make_table(np.zeros((100, 3), dtype=np.int8).tolist())
    train, val, test = split(table, (0.7, 0.1, 0.2), seed=0)
    assert (train.m, val.m, test.m) == (70, 10, 20)
    ids = set(train.image_ids) | set(val.image_ids) | set(test.image_ids)
    assert len(ids) == 100


def test_split_deterministic():
    table = make_table(np.zeros((50, 2), dtype=np.int8).tolist())
    a = split(table, (0.6, 0.2, 0.2), seed=9)
    b = split(table, (0.6, 0.2, 0.2), seed=9)
    for fold_a, fold_b in zip(a, b):
        assert fold_a.image_ids == fold_b.image_ids


def test_split_seed_changes_assignment():
    table = make_table(np.zeros((50, 2), dtype=np.int8).tolist())
    a = split(table, (0.6, 0.2, 0.2), seed=0)
    b = split(table, (0.6, 0.2, 0.2), seed=1)
    assert any(x.image_ids != y.image_ids for x, y in zip(a, b))


def test_split_keeps_groups_together():
    groups = [f"g{i // 4}" for i in range(40)]
    table = make_table(np.zeros((40, 2), dtype=np.int8).tolist(), groups=groups)
    folds = split(table, (0.5, 0.25, 0.25), seed=3)
    for group in set(groups):
        hits = [f for f in folds if group in (f.groups or [])]
        assert len(hits) == 1


def test_split_rejects_bad_ratios():
    table = make_table([[0]])
    with pytest.raises(ValueError):
        split(table, (0.5, 0.2, 0.2), seed=0)
    with pytest.raises(ValueError):
        split(table, (1.2, -0.1, -0.1), seed=0)


@pytest.mark.parametrize("ratios", [(math.nan, 0.5, 0.5), (0.5, 0.5, math.nan),
                                    (math.inf, 0.5, 0.5), (0.6, 0.2, math.inf)])
def test_split_rejects_ratios_that_are_not_finite(ratios):
    table = make_table(np.zeros((100, 1), dtype=np.int8).tolist())
    with pytest.raises(ValueError, match="ratios must"):
        split(table, ratios, seed=0)


def test_split_warns_on_oversized_group():
    groups = ["big"] * 9 + ["solo"]
    table = make_table(np.zeros((10, 1), dtype=np.int8).tolist(), groups=groups)
    with pytest.warns(UserWarning):
        split(table, (0.4, 0.3, 0.3), seed=0)


# ---------------------------------------------------------------- file formats


def test_annotation_round_trip(tmp_path, rng):
    table = random_table(rng, m=12, n=4, uncertain=True, unmentioned=True)
    path = tmp_path / "ann.csv"
    write_annotations(table, path, comments=["policy = positive"])
    text = path.read_text()
    assert text.startswith("# policy = positive\n")
    loaded = load_annotations(path)
    assert loaded.image_ids == table.image_ids
    assert loaded.finding_names == table.finding_names
    assert np.array_equal(loaded.labels, table.labels)


def test_annotation_round_trip_with_groups(tmp_path):
    table = make_table([[1, 0], [0, 1]], groups=["a", "b"])
    path = tmp_path / "ann.csv"
    write_annotations(table, path)
    loaded = load_annotations(path)
    assert loaded.groups == ["a", "b"]


def test_annotation_ids_and_groups_that_need_quoting_round_trip(tmp_path):
    ids = [*QUOTED_IDS, "plain"]
    groups = ["g,h", "#g", 'a "b"', "plain", " #z"]
    table = make_table([[1, 0], [0, 1], [1, 1], [0, 0], [-1, -2]], groups=groups, ids=ids,
                       names=["f,0", "#f1"])
    path = tmp_path / "ann.csv"
    write_annotations(table, path)
    loaded = load_annotations(path)
    assert loaded.image_ids == ids and loaded.groups == groups
    assert loaded.finding_names == ["f,0", "#f1"]
    assert np.array_equal(loaded.labels, table.labels)
    assert path.read_text().endswith("\nplain,-1.0,, #z\n")


def test_csv_cell_writes_what_csv_writer_writes(rng):
    """Rows of two or more cells joined from ``_csv_cell`` are the bytes
    ``csv.writer`` writes; a first cell is also quoted after leading blanks
    and a ``#``."""
    alphabet = list('ab ,"#\r\n\t')
    for _ in range(3000):
        cells = ["".join(rng.choice(alphabet, size=rng.integers(0, 6)))
                 for _ in range(rng.integers(2, 5))]
        written = io.StringIO()
        csv.writer(written).writerow(cells)
        assert ",".join(map(_csv_cell, cells)) + "\r\n" == written.getvalue()
    assert [_csv_cell(c, first=True) for c in ["#x", " \t#y", "x#", ""]] == ['"#x"', '" \t#y"', "x#", ""]


def test_annotation_label_tokens(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("id,f0,f1,f2,f3\nimg0,1,0.0,-1,\n")
    table = load_annotations(path)
    assert table.labels.tolist() == [[1, 0, -1, -2]]


def test_annotation_parse_errors_carry_location(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,f0\nimg0,1\nimg1,7\n")
    with pytest.raises(ParseError) as err:
        load_annotations(path)
    assert str(path) in str(err.value)
    assert ":3:" in str(err.value)


def test_annotation_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,f0\na,1\na,0\n")
    with pytest.raises(ParseError):
        load_annotations(path)


def test_annotation_duplicate_finding_names_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("# c\nid,f0,f1,f0\na,1,0,1\n")
    with pytest.raises(ParseError) as err:
        load_annotations(path)
    assert str(err.value) == f"{path}:2: finding names must be unique"


def test_annotation_file_mutations_raise_only_parse_error(tmp_path, rng):
    table = random_table(rng, m=8, n=4, uncertain=True, unmentioned=True)
    table = AnnotationTable(table.image_ids, table.finding_names, table.labels,
                            groups=list("aabbccdd"))
    clean = tmp_path / "ann.csv"
    write_annotations(table, clean, comments=["policy = positive"])
    data = clean.read_bytes()
    path = tmp_path / "mutated.csv"
    outcomes = set()
    for _ in range(600):
        path.write_bytes(mutate(data, rng))
        try:
            loaded = load_annotations(path)
        except ParseError:
            outcomes.add("error")
        else:
            assert isinstance(loaded, AnnotationTable)
            outcomes.add("table")
    assert outcomes == {"table", "error"}


def annotation_outcome(loader, path):
    """The ids, findings, label bytes and groups an annotation reader reads,
    or the line and message of its ParseError."""
    try:
        table = loader(path)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    return ("table", table.image_ids, table.finding_names, table.labels.tobytes(),
            table.labels.shape, table.groups)


@pytest.mark.parametrize("grouped", [False, True])
def test_annotation_blocks_match_the_row_loop_when_mutated(tmp_path, monkeypatch, grouped):
    """Blocks of 8 lines: a clean file takes the bulk path in every block,
    and targeted edits in a later block and seeded 1-3 byte mutations give
    the row-by-row reader's table or error."""
    monkeypatch.setattr(artifacts, "BLOCK_CELLS", 8 * 5)  # 8 lines of 5 findings
    bulk = []
    bulk_labels = kg._bulk_labels
    monkeypatch.setattr(kg, "_bulk_labels",
                        lambda *args: bulk.append(bulk_labels(*args)) or bulk[-1])
    rng = np.random.default_rng(31 + grouped)
    table = random_table(rng, m=40, n=5, uncertain=True, unmentioned=True)
    groups = [f"p{i // 3}" for i in range(40)] if grouped else None
    table = AnnotationTable(table.image_ids, table.finding_names, table.labels, groups)
    clean = tmp_path / "ann.csv"
    write_annotations(table, clean, comments=["policy = positive"])
    outcome = annotation_outcome(load_annotations, clean)
    assert [labels is not None for labels in bulk] == [True] * 5
    assert outcome == annotation_outcome(reference_load_annotations, clean)
    assert outcome[3] == table.labels.tobytes() and outcome[5] == groups
    lines = clean.read_text().splitlines(keepends=True)
    first = 2 + 19                               # row 19, in the third block
    head, cells = lines[first].split(",", 1)
    variants = {
        "ragged pair": [lines[first].replace(",", ",,", 1), lines[first + 2].replace(",", "", 1)],
        # A cell moved to the line before, under an id that reads as a label.
        "moved cell": [lines[first].rstrip() + ",1\n",
                       ",".join(["1", *lines[first + 1].split(",")[1:-1]]) + "\n"],
        "id of the same block": [lines[first + 2].split(",")[0] + "," + cells],
        "id of an earlier block": [lines[3].split(",")[0] + "," + cells],
        "quoted id": [f'"{head}",{cells}'],
        "spaced token": [head + ", " + cells],
        "bad token": [head + ",2," + cells.split(",", 1)[1]],
    }
    path = tmp_path / "mutated.csv"
    for name, changed in variants.items():
        path.write_text("".join(lines[:first] + changed + lines[first + len(changed):]))
        outcome = annotation_outcome(load_annotations, path)
        assert outcome == annotation_outcome(reference_load_annotations, path), name
        assert outcome[0] == ("table" if name in ("quoted id", "spaced token") else "error"), name
    data = clean.read_bytes()
    kinds = set()
    for _ in range(400):
        path.write_bytes(mutate(data, rng))
        outcome = annotation_outcome(load_annotations, path)
        assert outcome == annotation_outcome(reference_load_annotations, path)
        kinds.add(outcome[0])
    assert kinds == {"table", "error"}


def test_split_csv_line_matches_csv_reader():
    rng = np.random.default_rng(7)
    alphabet = list(',"a \x00\x850123456789')
    for _ in range(5000):
        picks = rng.integers(0, len(alphabet), size=int(rng.integers(1, 24)))
        text = "".join(alphabet[k] for k in picks)
        assert _split_csv_line(text) == reference_split_csv_line(text), repr(text)


def test_kg_file_is_sorted_and_commented(tmp_path):
    table = make_table([[1, 1]])
    kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
    path = tmp_path / "graph.tsv"
    write_kg(kg, path)
    lines = path.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data == sorted(data)
    assert any(l.startswith("# m = ") for l in lines)


def with_byte_order_mark(path):
    marked = path.with_name(f"bom-{path.name}")
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return marked


def test_files_with_a_byte_order_mark_load_as_without(tmp_path, rng):
    table = random_table(rng, m=6, n=3, uncertain=True)
    write_annotations(table, tmp_path / "ann.csv")
    plain = load_annotations(tmp_path / "ann.csv")
    marked = load_annotations(with_byte_order_mark(tmp_path / "ann.csv"))
    assert (marked.image_ids, marked.finding_names) == (plain.image_ids, plain.finding_names)
    assert np.array_equal(marked.labels, plain.labels)


def random_graph(rng, m, n, empty=()):
    """Graph with random hasFinding, probablyHasFinding and coOccurs grids;
    the relations in ``empty`` have no edge."""
    grids = {}
    for relation in RelationKind:
        rows = m if relation.subject_kind is EntityKind.IMAGE else n
        grid = rng.random((rows, n)) < rng.uniform(0.1, 0.6)
        if relation is RelationKind.CO_OCCURS:
            np.fill_diagonal(grid, False)
        grids[relation] = grid & (relation not in empty)
    return KnowledgeGraph(grids, m, n)


def test_write_kg_matches_reference_writer(tmp_path, rng):
    cases = [(int(rng.integers(1, 30)), int(rng.integers(1, 15)), ()) for _ in range(12)]
    cases += [(0, 4, ()), (0, 1, ()), (5, 3, tuple(RelationKind))]
    cases += [(7, 5, (relation,)) for relation in RelationKind]
    for number, (m, n, empty) in enumerate(cases):
        graph = random_graph(rng, m, n, empty)
        fast, slow = tmp_path / f"fast{number}.tsv", tmp_path / f"slow{number}.tsv"
        write_kg(graph, fast, comments=["policy = separate"])
        reference_write_kg(graph, slow, comments=["policy = separate"])
        assert fast.read_bytes() == slow.read_bytes(), (m, n, empty)


def test_graph_grids_are_validated_copies():
    has = np.array([[True, False, True], [False, False, True]])
    kg = KnowledgeGraph({RelationKind.HAS_FINDING: has}, 2, 3)
    has[0, 0] = False
    assert np.flatnonzero(kg.grid(RelationKind.HAS_FINDING)[0]).tolist() == [0, 2]
    for relation in RelationKind:
        assert not kg.grid(relation).flags.writeable
        with pytest.raises(ValueError):
            kg.grid(relation)[0, 0] = True
    assert kg.grid(RelationKind.CO_OCCURS).shape == (3, 3)
    assert kg.relation_counts()[RelationKind.PROBABLY_HAS_FINDING] == 0
    with pytest.raises(ValueError):
        KnowledgeGraph({RelationKind.HAS_FINDING: np.zeros((3, 2), bool)}, 2, 3)
    with pytest.raises(ValueError):
        KnowledgeGraph({RelationKind.CO_OCCURS: np.zeros((2, 3), bool)}, 2, 3)
    with pytest.raises(ValueError):
        KnowledgeGraph({RelationKind.CO_OCCURS: np.eye(3, dtype=bool)}, 2, 3)
