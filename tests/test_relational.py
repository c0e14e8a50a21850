"""Schema, database, FD, violation, and block behavior, and the package's
public names."""

from __future__ import annotations

import random
import types

import pytest

import opcqa
from opcqa import (
    Block,
    ConstraintClassError,
    Database,
    Fact,
    FunctionalDependency,
    Schema,
    SchemaError,
    SizeCapError,
    blocks,
    fact,
    gen_fd_lift,
    is_keys,
    is_primary_keys,
    realize_repair,
    satisfies,
    violations,
)

from bruteforce import (
    WIDE_FDS,
    bf_independent_sets,
    bf_violating_pairs,
    count_independent_sets,
    random_fd_instance,
)
from fixtures import F1, F2, F3, keyed_instance, ladder_instance, triple_instance


def test_schema_rejects_duplicates_and_unknowns():
    with pytest.raises(SchemaError):
        Schema.of(R=("A", "A"))
    schema = Schema.of(R=("A", "B"))
    with pytest.raises(SchemaError):
        schema.attributes("S")
    assert schema.arity("R") == 2
    assert schema.attribute_index("R", "B") == 1
    with pytest.raises(SchemaError):
        schema.attribute_index("R", "Z")


def test_database_validates_facts_against_schema():
    schema = Schema.of(R=("A", "B"))
    with pytest.raises(SchemaError):
        Database.of(schema, [fact("R", "a")])
    with pytest.raises(SchemaError):
        Database.of(schema, [fact("S", "a", "b")])
    db = Database.of(schema, [fact("R", "a", "b"), fact("R", "a", "c")])
    assert db.fact_count == 2
    assert db.adom == {"a", "b", "c"}
    assert fact("R", "a", "b") in db


def test_fact_ordering_and_rendering():
    f = fact("R", "a1", "b1")
    assert str(f) == "R(a1,b1)"
    assert f.key == ("R", ("a1", "b1"))
    assert sorted([fact("S", "x"), fact("R", "b"), fact("R", "a")]) == [
        fact("R", "a"),
        fact("R", "b"),
        fact("S", "x"),
    ]


def test_encoded_size_counts_serialized_characters():
    db, _ = triple_instance()
    # each fact renders as R(a1,b1,c1): 12 characters
    assert db.encoded_size == 3 * len("R(a1,b1,c1)")


def test_fd_validation_and_key_classification():
    schema = Schema.of(R=("A", "B", "C"))
    fd = FunctionalDependency.of("R", ("A",), ("B",))
    fd.validate(schema)
    with pytest.raises(SchemaError):
        FunctionalDependency.of("R", ("Z",), ("B",)).validate(schema)
    assert not fd.is_key(schema)
    key = FunctionalDependency.of("R", ("A", "C"), ("B",))
    assert key.is_key(schema)
    assert is_keys([key], schema)
    assert is_primary_keys([key], schema)
    # two keys on one relation: keys but not primary keys
    other = FunctionalDependency.of("R", ("B", "C"), ("A",))
    assert is_keys([key, other], schema)
    assert not is_primary_keys([key, other], schema)
    assert not is_keys([fd], schema)


def test_violations_on_worked_example():
    db, sigma = triple_instance()
    pairs = violations(db, sigma).pairs
    assert pairs == {frozenset({F1, F2}), frozenset({F2, F3})}
    assert not satisfies(db, sigma)
    assert satisfies(db.restrict([F1, F3]), sigma)


def test_violations_match_quadratic_definition():
    rng = random.Random(4821)
    for _ in range(60):
        db = random_fd_instance(rng)
        expected = bf_violating_pairs(db.facts, WIDE_FDS, db.schema)
        assert violations(db, WIDE_FDS).pairs == expected


def test_consistent_database_has_no_violations():
    schema = Schema.of(R=("A", "B"))
    db = Database.of(schema, [fact("R", "a", "b"), fact("R", "b", "b")])
    sigma = [FunctionalDependency.of("R", ("A",), ("B",))]
    assert violations(db, sigma).pairs == set()
    assert satisfies(db, sigma)


def test_satisfies_a_large_key_block_without_listing_pairs():
    """One key block of 3,000 facts has 4.5M conflicting pairs; whether
    it satisfies its key is read off the FD groups, in little memory. On
    random instances the answer is the quadratic definition's."""
    import tracemalloc

    db, sigma = ladder_instance(1, 3000)
    for part, want in ((db, False), (db.restrict(sorted(db.facts)[:1]), True)):
        tracemalloc.start()
        try:
            got = satisfies(part, sigma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got is want
        assert peak < 16 * 2**20, f"{part.fact_count} facts: {peak / 2**20:.1f} MB peak"
    rng = random.Random(4822)
    for _ in range(60):
        db = random_fd_instance(rng)
        assert satisfies(db, WIDE_FDS) == (not bf_violating_pairs(db.facts, WIDE_FDS, db.schema))


def test_blocks_partition_and_order():
    db, sigma = keyed_instance()
    parts = blocks(db, sigma)
    assert [b.size for b in parts] == [3, 1, 2]
    assert [b.key_values for b in parts] == [("a1",), ("a2",), ("a3",)]
    assert all(isinstance(b, Block) for b in parts)
    # union of blocks is the database
    assert frozenset(f for b in parts for f in b.facts) == db.facts


def test_blocks_require_primary_keys():
    db, sigma = triple_instance()
    with pytest.raises(ConstraintClassError):
        blocks(db, sigma)


def test_blocks_keyless_relation_gives_singletons():
    schema = Schema.of(R=("A", "B"), S=("C",))
    db = Database.of(
        schema, [fact("R", "a", "b"), fact("S", "x"), fact("S", "y")]
    )
    sigma = [FunctionalDependency.of("R", ("A",), ("B",))]
    assert [b.size for b in blocks(db, sigma)] == [1, 1, 1]


def test_independent_set_count_matches_enumeration():
    rng = random.Random(911)
    for _ in range(40):
        db = random_fd_instance(rng, max_facts=8)
        nodes = sorted(db.facts)
        edges = bf_violating_pairs(db.facts, WIDE_FDS, db.schema)
        expected = bf_independent_sets(nodes, edges)
        assert count_independent_sets(nodes, edges) == len(expected)
        nonempty = [s for s in expected if s]
        assert count_independent_sets(nodes, edges, nonempty_only=True) == len(nonempty)


def test_independent_set_cap():
    schema = Schema.of(R=("A", "B"))
    db = Database.of(schema, [fact("R", "a", str(i)) for i in range(30)])
    sigma = [FunctionalDependency.of("R", ("A",), ("B",))]
    edges = bf_violating_pairs(db.facts, sigma, schema)
    with pytest.raises(SizeCapError):
        count_independent_sets(sorted(db.facts), edges, cap=24)


def test_trivial_connectivity_cases():
    schema = Schema.of(R=("A", "B"))
    sigma = frozenset([FunctionalDependency.of("R", ("A",), ("B",))])
    lone = Database.of(schema, [fact("R", "a", "b")])
    outside = Database.of(
        schema, [fact("R", "a", "1"), fact("R", "a", "2"), fact("R", "b", "1")]
    )
    two_components = Database.of(
        schema,
        [fact("R", "a", "1"), fact("R", "a", "2"), fact("R", "b", "1"), fact("R", "b", "2")],
    )
    for db in (lone, outside, two_components):
        with pytest.raises(ValueError, match="non-trivially connected"):
            realize_repair(db, sigma, db.restrict([]))
        with pytest.raises(ValueError, match="non-trivially connected"):
            gen_fd_lift(db, sigma)
    block = Database.of(schema, [fact("R", "a", "1"), fact("R", "a", "2")])
    assert realize_repair(block, sigma, block.restrict([])).result(block).facts == frozenset()
    lifted, _, _ = gen_fd_lift(block, sigma)
    assert lifted.fact_count == 3


PUBLIC_NAMES = [
    "Atom", "Block", "ConjunctiveQuery", "Constant", "ConstraintClassError",
    "Database", "Estimate", "EstimatorConfig", "Fact", "FunctionalDependency",
    "GENERATORS", "GeneratorKind", "OpcqaError", "Operation", "ParseError",
    "Pos2DNF", "RandomSource", "RepairDistribution", "RepairingChain",
    "RepairingSequence", "SampleOutcome", "Schema", "SchemaError",
    "SequenceCountTable", "SizeCapError", "TARGET_GRAPH", "UO", "UO1", "UR",
    "UR1", "US", "US1", "UndirectedGraph", "UnsupportedCombinationError",
    "Variable", "ViolationSet", "adaptive_success_quota",
    "additive_sample_count", "answer_probabilities", "answers",
    "block_seq_count", "blocks", "brute_force_hom_count", "build_chain",
    "build_sequence_count_table", "candidate_repairs", "canonical_sequences",
    "count_candidate_repairs", "count_complete_sequences", "entails",
    "enumerate_sequences", "estimate_probability", "exact_answer_probability",
    "fact", "gen_fd_lift", "gen_fd_star", "gen_hcoloring_instance",
    "gen_pos2dnf_instance", "hom_count_via_cqa", "homomorphisms", "is_keys",
    "is_primary_keys", "justified_ops", "lower_bound",
    "multiplicative_sample_count", "realize_repair", "repair_distribution",
    "sample_outcome", "sample_repair_uniform", "sample_sequence_uniform",
    "sample_sequence_uo", "sat_count_brute", "satisfies", "sequence_count",
    "sequence_count_for_profile", "violations", "witnesses",
]


def test_public_names_are_pinned():
    """Every change to the names the package exports edits this list, so
    each removal is seen (and recorded in CHANGES.md)."""
    public = sorted(
        name
        for name in dir(opcqa)
        if not name.startswith("_") and not isinstance(getattr(opcqa, name), types.ModuleType)
    )
    assert public == PUBLIC_NAMES
