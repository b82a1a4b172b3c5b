"""Tests for entities, triples, graph construction, policies, and file formats."""

import numpy as np
import pytest

from helpers import make_table, random_table, reference_write_kg

from radkg import (
    AnnotationTable,
    EntityId,
    EntityKind,
    KnowledgeGraph,
    LabelValue,
    ParseError,
    RelationKind,
    Triple,
    UncertainPolicy,
    add_cooccurrence,
    build_radkg,
    cooccurrence_matrix,
    load_annotations,
    load_kg,
    negatives_for,
    split,
    write_annotations,
    write_kg,
)


# ---------------------------------------------------------------- identifiers


def test_entity_id_round_trip():
    e = EntityId.image(3)
    assert str(e) == "Image:3"
    assert EntityId.parse("Image:3") == e
    f = EntityId.finding(0)
    assert str(f) == "Finding:0"
    assert EntityId.parse(str(f)) == f


def test_entity_id_parse_rejects_garbage():
    for text in ["Image", "Image:", "Image:x", "Thing:1", "Image:-1", ""]:
        with pytest.raises(ValueError):
            EntityId.parse(text)


def test_triple_endpoint_kinds_enforced():
    img = EntityId.image(0)
    fnd = EntityId.finding(1)
    Triple(img, RelationKind.HAS_FINDING, fnd)
    Triple(fnd, RelationKind.CO_OCCURS, EntityId.finding(2))
    with pytest.raises(ValueError):
        Triple(fnd, RelationKind.HAS_FINDING, img)
    with pytest.raises(ValueError):
        Triple(img, RelationKind.CO_OCCURS, fnd)
    with pytest.raises(ValueError):
        Triple(fnd, RelationKind.CO_OCCURS, fnd)  # self loop


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
    expected = {
        Triple(EntityId.image(0), RelationKind.HAS_FINDING, EntityId.finding(0)),
        Triple(EntityId.image(0), RelationKind.HAS_FINDING, EntityId.finding(1)),
    }
    assert set(kg.triples) == expected


def test_build_radkg_as_negative():
    table = make_table([[1, -1, 0], [0, 0, -2]])
    kg = build_radkg(table, UncertainPolicy.AS_NEGATIVE)
    expected = {
        Triple(EntityId.image(0), RelationKind.HAS_FINDING, EntityId.finding(0)),
    }
    assert set(kg.triples) == expected


def test_build_radkg_as_separate_relation():
    table = make_table([[1, -1, 0], [0, 0, -2]])
    kg = build_radkg(table, UncertainPolicy.AS_SEPARATE_RELATION)
    expected = {
        Triple(EntityId.image(0), RelationKind.HAS_FINDING, EntityId.finding(0)),
        Triple(
            EntityId.image(0),
            RelationKind.PROBABLY_HAS_FINDING,
            EntityId.finding(1),
        ),
    }
    assert set(kg.triples) == expected


def test_unmentioned_never_produces_triples():
    table = make_table([[-2, -2], [-2, -2]])
    for policy in UncertainPolicy:
        assert len(build_radkg(table, policy)) == 0


@pytest.mark.parametrize("policy", list(UncertainPolicy))
def test_closed_world_negatives_complement(rng, policy):
    """Positives plus negatives reconstruct the full image-finding grid."""
    table = random_table(rng, m=17, n=5, uncertain=True, unmentioned=True)
    kg = build_radkg(table, policy)
    for i in range(table.m):
        subject = EntityId.image(i)
        for relation in (RelationKind.HAS_FINDING, RelationKind.PROBABLY_HAS_FINDING):
            pos = set(kg.objects_of(subject, relation))
            neg = {e.index for e in negatives_for(kg, subject, relation)}
            assert pos.isdisjoint(neg)
            assert pos | neg == set(range(table.n))


def test_negatives_for_rejects_finding_subjects():
    table = make_table([[1, 1], [1, 0]])
    kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
    with pytest.raises(ValueError):
        negatives_for(kg, EntityId.finding(0), RelationKind.HAS_FINDING)
    with pytest.raises(ValueError):
        negatives_for(kg, EntityId.image(0), RelationKind.CO_OCCURS)
    with pytest.raises(ValueError):
        negatives_for(kg, EntityId.image(99), RelationKind.HAS_FINDING)


def test_graph_lookup_and_counts():
    table = make_table([[1, 0, 1]])
    kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
    subject = EntityId.image(0)
    assert kg.objects_of(subject, RelationKind.HAS_FINDING) == {0, 2}
    assert kg.relation_counts()[RelationKind.HAS_FINDING] == 2
    assert len(kg) == 2
    assert (
        Triple(subject, RelationKind.HAS_FINDING, EntityId.finding(0)) in kg
    )


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
    edge = Triple(EntityId.finding(0), RelationKind.CO_OCCURS, EntityId.finding(1))
    reverse = Triple(EntityId.finding(1), RelationKind.CO_OCCURS, EntityId.finding(0))
    assert reverse not in kg
    assert edge in kg  # P(F0|F1) == 1.0 passes


def test_add_cooccurrence_never_adds_diagonal(rng):
    table = random_table(rng, m=40, n=6)
    cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    kg = add_cooccurrence(KnowledgeGraph(frozenset(), table.m, table.n), cond)
    for triple in kg.triples:
        assert triple.subject != triple.obj


def test_add_cooccurrence_monotone_in_threshold(rng):
    table = random_table(rng, m=60, n=8)
    cond = cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE)
    base = KnowledgeGraph(frozenset(), table.m, table.n)
    loose = add_cooccurrence(base, cond, threshold=0.1)
    tight = add_cooccurrence(base, cond, threshold=0.6)
    assert set(tight.triples) <= set(loose.triples)


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


def test_kg_file_round_trip(tmp_path, rng):
    table = random_table(rng, m=10, n=4)
    kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
    kg = add_cooccurrence(kg, cooccurrence_matrix(table, UncertainPolicy.AS_POSITIVE))
    path = tmp_path / "graph.tsv"
    write_kg(kg, path)
    loaded = load_kg(path)
    assert loaded == kg
    assert (loaded.m, loaded.n) == (kg.m, kg.n)


def test_kg_file_is_sorted_and_commented(tmp_path):
    table = make_table([[1, 1]])
    kg = build_radkg(table, UncertainPolicy.AS_POSITIVE)
    path = tmp_path / "graph.tsv"
    write_kg(kg, path)
    lines = path.read_text().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data == sorted(data)
    assert any(l.startswith("# m = ") for l in lines)


def test_kg_parse_error_location(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_text("Image:0\thasFinding\n")
    with pytest.raises(ParseError) as err:
        load_kg(path)
    assert ":1:" in str(err.value)


@pytest.mark.parametrize("body,lineno", [
    ("# m = 1\nImage:5\thasFinding\tFinding:0\n", 2),
    ("# m = 2\n# n = 3\nImage:1\thasFinding\tFinding:2\nImage:0\thasFinding\tFinding:3\n", 4),
    ("# n = 2\nFinding:0\tcoOccurs\tFinding:1\nFinding:4\tcoOccurs\tFinding:1\n", 3),
])
def test_kg_out_of_bounds_index_is_parse_error(tmp_path, body, lineno):
    path = tmp_path / "graph.tsv"
    path.write_text(body)
    with pytest.raises(ParseError) as err:
        load_kg(path)
    assert str(path) in str(err.value)
    assert f":{lineno}: " in str(err.value)
    assert "out of bounds" in str(err.value)


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
        assert load_kg(fast) == graph


def test_graph_grids_are_validated_copies():
    has = np.array([[True, False, True], [False, False, True]])
    kg = KnowledgeGraph({RelationKind.HAS_FINDING: has}, 2, 3)
    has[0, 0] = False
    assert kg.objects_of(EntityId.image(0), RelationKind.HAS_FINDING) == {0, 2}
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


def test_objects_of_wrong_kind_or_out_of_range_is_empty():
    kg = build_radkg(make_table([[1, 1]]), UncertainPolicy.AS_POSITIVE)
    assert kg.objects_of(EntityId.finding(0), RelationKind.HAS_FINDING) == frozenset()
    assert kg.objects_of(EntityId.image(0), RelationKind.CO_OCCURS) == frozenset()
    assert kg.objects_of(EntityId.image(7), RelationKind.HAS_FINDING) == frozenset()
    assert Triple(EntityId.image(7), RelationKind.HAS_FINDING, EntityId.finding(0)) not in kg
