"""Repairing trees, chains, exact distributions, and witnesses."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from opcqa import (
    GENERATORS,
    UO,
    UO1,
    UR,
    UR1,
    US,
    US1,
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    GeneratorKind,
    Operation,
    RepairingSequence,
    SizeCapError,
    UndirectedGraph,
    Variable,
    build_chain,
    candidate_repairs,
    canonical_sequences,
    enumerate_sequences,
    exact_answer_probability,
    fact,
    gen_hcoloring_instance,
    justified_ops,
    realize_repair,
    repair_distribution,
    sequence_count,
)

from opcqa.repairs import DEFAULT_TREE_CAP, _candidate_count

from bruteforce import (
    WIDE_FDS,
    bf_candidate_repairs,
    bf_complete_sequences,
    bf_uo_probability,
    random_fd_instance,
)
from fixtures import (
    F1,
    F2,
    F3,
    KEYED_FDS,
    PAIR_SCHEMA,
    keyed_boolean_query,
    keyed_instance,
    keyed_query,
    ladder_instance,
    triple_instance,
    two_key_path_instance,
)


def _remaining(db: Database, repair: Database) -> frozenset:
    return repair.facts


def _as_opset_tuple(seq: RepairingSequence) -> tuple:
    return tuple(op.removed for op in seq)


# ---------------------------------------------------------------------------
# Operations and sequences
# ---------------------------------------------------------------------------


def test_operation_shape_and_order():
    with pytest.raises(ValueError):
        Operation.of()
    with pytest.raises(ValueError):
        Operation.of(F1, F2, F3)
    ops = [
        Operation.of(F1),
        Operation.of(F1, F2),
        Operation.of(F2),
        Operation.of(F2, F3),
        Operation.of(F3),
    ]
    assert sorted(ops, key=lambda op: op.sort_key) == ops
    assert str(Operation.of(F1)) == "-R(a1,b1,c1)"
    assert str(Operation.of(F2, F1)) == "-{R(a1,b1,c1),R(a1,b2,c2)}"


def test_justified_ops_canonical_order():
    db, sigma = triple_instance()
    ops = justified_ops(db, sigma)
    assert [op.removed for op in ops] == [
        frozenset({F1}),
        frozenset({F1, F2}),
        frozenset({F2}),
        frozenset({F2, F3}),
        frozenset({F3}),
    ]
    singles = justified_ops(db, sigma, singleton_only=True)
    assert [op.removed for op in singles] == [
        frozenset({F1}),
        frozenset({F2}),
        frozenset({F3}),
    ]


def test_sequence_validate():
    db, sigma = triple_instance()
    good = RepairingSequence((Operation.of(F1), Operation.of(F2, F3)))
    good.validate(db, sigma)
    # f1 and f3 never conflict, so removing them as a pair is unjustified
    bad = RepairingSequence((Operation.of(F1, F3),))
    with pytest.raises(ValueError):
        bad.validate(db, sigma)
    # justified but incomplete
    partial = RepairingSequence((Operation.of(F1),))
    with pytest.raises(ValueError):
        partial.validate(db, sigma)
    partial.validate(db, sigma, require_complete=False)
    assert good.removed_facts == {F1, F2, F3}
    assert good.result(db).facts == frozenset()


def test_generator_kind_labels():
    assert GeneratorKind.parse("ur") == UR
    assert GeneratorKind.parse("uo1") == UO1
    assert UO1.label == "uo1" and UO1.singleton_only
    assert set(GENERATORS) == {"ur", "us", "uo", "ur1", "us1", "uo1"}
    with pytest.raises(ValueError):
        GeneratorKind("up")


# ---------------------------------------------------------------------------
# Enumeration on the triple-fact example (conflict path f1 - f2 - f3)
# ---------------------------------------------------------------------------


def test_triple_sequence_and_repair_counts():
    db, sigma = triple_instance()
    assert sequence_count(db, sigma) == 9
    assert sequence_count(db, sigma, singleton_only=True) == 5
    assert len(enumerate_sequences(db, sigma)) == 9
    repairs = candidate_repairs(db, sigma)
    assert {r.facts for r in repairs} == {
        frozenset(),
        frozenset({F1}),
        frozenset({F2}),
        frozenset({F3}),
        frozenset({F1, F3}),
    }
    repairs1 = candidate_repairs(db, sigma, singleton_only=True)
    assert {r.facts for r in repairs1} == {
        frozenset({F1}),
        frozenset({F2}),
        frozenset({F3}),
        frozenset({F1, F3}),
    }


def test_triple_canonical_sequences():
    db, sigma = triple_instance()
    canon = canonical_sequences(db, sigma)
    assert {_as_opset_tuple(s) for s in canon} == {
        (frozenset({F1}), frozenset({F2})),
        (frozenset({F1}), frozenset({F2, F3})),
        (frozenset({F1}), frozenset({F3})),
        (frozenset({F2}),),
        (frozenset({F2, F3}),),
    }
    # one canonical sequence per candidate repair, under both orderings
    for ordering in ("dfs", "reversed-dfs"):
        chosen = canonical_sequences(db, sigma, ordering=ordering)
        results = [s.result(db).facts for s in chosen]
        assert len(results) == len(set(results)) == 5
    with pytest.raises(ValueError):
        canonical_sequences(db, sigma, ordering="random")


def test_triple_singleton_sequences_in_dfs_order():
    db, sigma = triple_instance()
    seqs = enumerate_sequences(db, sigma, singleton_only=True)
    assert [_as_opset_tuple(s) for s in seqs] == [
        (frozenset({F1}), frozenset({F2})),
        (frozenset({F1}), frozenset({F3})),
        (frozenset({F2}),),
        (frozenset({F3}), frozenset({F1})),
        (frozenset({F3}), frozenset({F2})),
    ]


def test_cap_outcome_does_not_depend_on_earlier_calls():
    """Each call's outcome is a function of (instance, mode, cap), in
    every order of the calls, on equal databases sharing one cache."""
    from itertools import permutations

    from opcqa.repairs import _space

    db, sigma = keyed_instance()
    calls = {
        "pairs": (dict(), 99),
        "singletons": (dict(singleton_only=True), 36),
        # the singleton space has 21 residual states: cap 20 passes
        "singletons cap 20": (dict(singleton_only=True, cap=20), 36),
        "singletons cap 19": (dict(singleton_only=True, cap=19), SizeCapError),
        "pairs cap 20": (dict(cap=20), SizeCapError),
    }
    for order in permutations(calls):
        _space.cache_clear()
        for name in order:
            kwargs, want = calls[name]
            equal_db = Database.of(db.schema, db.facts)
            if want is SizeCapError:
                with pytest.raises(SizeCapError):
                    sequence_count(equal_db, sigma, **kwargs)
            else:
                assert sequence_count(equal_db, sigma, **kwargs) == want, (order, name)


def test_enumeration_cap():
    db, sigma = keyed_instance()
    with pytest.raises(SizeCapError):
        enumerate_sequences(db, sigma, cap=50)
    with pytest.raises(SizeCapError):
        sequence_count(db, sigma, cap=10)


def test_ladder_over_the_cap_fails_before_walking():
    """100 blocks of three facts: sequences of 100 to 200 operations and
    far more than DEFAULT_TREE_CAP residuals, found from 100 disjoint
    conflicting pairs before any walk starts."""
    rows = [(f"k{j}", f"v{i}") for j in range(100) for i in range(3)]
    db = Database.of(PAIR_SCHEMA, [fact("R", *row) for row in rows])
    for count in (sequence_count, candidate_repairs, enumerate_sequences):
        for singleton_only in (False, True):
            with pytest.raises(SizeCapError):
                count(db, KEYED_FDS, singleton_only=singleton_only)


def test_cap_refuses_a_large_key_block_without_listing_pairs():
    """One key block of 3,000 facts has 4.5M conflicting pairs and over
    3^1500 residuals; the cap refuses it from the neighbour masks of its
    FD group, cold and in little memory."""
    import tracemalloc

    from opcqa.repairs import _space

    db, sigma = ladder_instance(1, 3000)
    calls = {
        "sequence_count": lambda: sequence_count(db, sigma),
        "candidate_repairs": lambda: candidate_repairs(db, sigma),
        "exact_answer_probability": lambda: exact_answer_probability(
            db, sigma, UO, keyed_boolean_query()
        ),
    }
    for name, call in calls.items():
        _space.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(SizeCapError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"{name}: {peak / 2**20:.1f} MB peak"


def test_exact_cap_counts_the_whole_instance():
    """Exact probabilities walk one DAG per conflict component, yet fail
    exactly when the whole instance has more residuals than the cap: the
    keyed instance's blocks of 3 and 2 facts each have fewer than its 8 x
    4 residuals (pairs) or 7 x 3 (singletons)."""
    from opcqa.repairs import _Component, _space

    db, sigma = keyed_instance()
    q = keyed_query()
    space = _space(db, sigma)
    whole = _Component(tuple(range(space.n)), space.groups, (0,))
    for kind in GENERATORS.values():
        states = len(whole.dag(kind.singleton_only, DEFAULT_TREE_CAP).masks)
        assert states == (21 if kind.singleton_only else 32)
        for call in (
            lambda cap: exact_answer_probability(db, sigma, kind, q, ("b1",), cap=cap),
            lambda cap: repair_distribution(db, sigma, kind, cap=cap),
        ):
            call(states)
            with pytest.raises(SizeCapError):
                call(states - 1)


def _size3_ladder(blocks: int) -> Database:
    return Database.of(
        PAIR_SCHEMA, [fact("R", f"k{j}", f"v{i}") for j in range(blocks) for i in range(3)]
    )


def _shuffle_total(tables: list[list[int]]) -> int:
    """Complete sequences of independent parts, from each part's counts by
    length: sum_L L! [x^L] prod_i sum_l t_i[l] x^l / l!."""
    poly = [Fraction(1)]
    for t in tables:
        out = [Fraction(0)] * (len(poly) + len(t) - 1)
        for i, a in enumerate(poly):
            for l, b in enumerate(t):
                out[i + l] += a * Fraction(b, factorial(l))
        poly = out
    total = sum(c * factorial(L) for L, c in enumerate(poly))
    assert total.denominator == 1
    return int(total)


# A block of three facts: 3 one-operation sequences (a pair removal) and
# 9 of two; 1 and 2 of them keep a given fact.
BLOCK3 = [0, 3, 9]
BLOCK3_KEEPS_ONE = [0, 1, 2]


@pytest.mark.parametrize(
    "blocks, cap",
    [(5, DEFAULT_TREE_CAP), (7, DEFAULT_TREE_CAP), (100, 10**100)],
    ids=["5-blocks", "7-blocks", "100-blocks-cap-raised"],
)
def test_ladder_query_on_one_block(blocks, cap):
    """Q(x) :- R(k0, x) on ladders of size-3 blocks touches block k0 only:
    v0 has the same probability at every ladder length under ur, uo and
    the singleton generators, and under us the shuffle of block k0's
    sequences keeping v0 with every other block's. With the cap raised
    the 100-block ladder is answered although the instance has 4^100
    residuals."""
    db = _size3_ladder(blocks)
    q = ConjunctiveQuery((Atom("R", (Constant("k0"), Variable("x"))),), (Variable("x"),))
    got = {
        label: exact_answer_probability(db, KEYED_FDS, kind, q, ("v0",), cap=cap)
        for label, kind in GENERATORS.items()
    }
    us = Fraction(
        _shuffle_total([BLOCK3_KEEPS_ONE] + [BLOCK3] * (blocks - 1)),
        _shuffle_total([BLOCK3] * blocks),
    )
    assert got == {
        "ur": Fraction(1, 4),
        "uo": Fraction(5, 18),
        "us": us,
        "ur1": Fraction(1, 3),
        "us1": Fraction(1, 3),
        "uo1": Fraction(1, 3),
    }
    if blocks == 5:
        assert us == Fraction(219157, 955533)  # the single whole-instance DAG's value


def test_answering_many_instances_holds_little_memory():
    """Exact answers for all six generators on 100 distinct 8-node
    coloring instances leave little memory held once they return: what
    stays cached per instance is its component DAGs, not a residual DAG
    of the whole instance (about 12 MB each at 8 nodes)."""
    import gc
    import tracemalloc
    from itertools import combinations

    rng = random.Random(1909)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(100):
            nodes = [f"i{n}n{i}" for i in range(8)]
            edges = rng.sample(list(combinations(nodes, 2)), 6)
            db, sigma, q = gen_hcoloring_instance(UndirectedGraph.of(nodes, edges))
            for kind in GENERATORS.values():
                exact_answer_probability(db, sigma, kind, q)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 32 * 2**20, f"{held / 2**20:.1f} MB held"


@pytest.mark.parametrize(
    "k, cap", [(9, DEFAULT_TREE_CAP), (30, 4**30)], ids=["9-cycle", "30-cycle-cap-raised"]
)
def test_counts_on_coloring_cycles_factorise(k, cap):
    """A k-cycle's coloring instance has k two-fact components: each has 3
    one-operation sequences (2 without pair deletions) and as many
    repairs, and the sequences interleave in k! ways. The cap compares
    the 4^k residuals (pairs mode) as usual: sequence_count fails on more
    than cap + 1."""
    nodes = [f"c{i}" for i in range(k)]
    cycle = UndirectedGraph.of(nodes, [(nodes[i], nodes[(i + 1) % k]) for i in range(k)])
    db, sigma, _ = gen_hcoloring_instance(cycle)
    for singleton_only, per_part in ((False, 3), (True, 2)):
        assert sequence_count(db, sigma, singleton_only, cap) == per_part**k * factorial(k)
        assert _candidate_count(db, sigma, singleton_only, cap) == per_part**k
    assert sequence_count(db, sigma, cap=4**k - 1) == 3**k * factorial(k)
    with pytest.raises(SizeCapError):
        sequence_count(db, sigma, cap=4**k - 2)


def test_counting_many_instances_holds_little_memory():
    """Counts and candidate repairs in both modes on 100 distinct 8-node
    coloring instances leave little memory held once they return: what
    stays cached per instance is its component DAGs, not a residual DAG
    of the whole instance."""
    import gc
    import tracemalloc
    from itertools import combinations

    rng = random.Random(1911)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(100):
            nodes = [f"i{n}n{i}" for i in range(8)]
            edges = rng.sample(list(combinations(nodes, 2)), 6)
            db, sigma, _ = gen_hcoloring_instance(UndirectedGraph.of(nodes, edges))
            for singleton_only in (False, True):
                sequence_count(db, sigma, singleton_only)
                _candidate_count(db, sigma, singleton_only)
                candidate_repairs(db, sigma, singleton_only)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 32 * 2**20, f"{held / 2**20:.1f} MB held"


# ---------------------------------------------------------------------------
# Chains: edge labels on the triple-fact example
# ---------------------------------------------------------------------------


def test_uniform_repairs_root_labels():
    db, sigma = triple_instance()
    chain = build_chain(db, sigma, UR)
    labels = [e.probability for e in chain.root.edges]
    assert labels == [
        Fraction(3, 5),
        Fraction(0),
        Fraction(1, 5),
        Fraction(1, 5),
        Fraction(0),
    ]


def test_uniform_sequences_root_labels_and_leaves():
    db, sigma = triple_instance()
    chain = build_chain(db, sigma, US)
    labels = [e.probability for e in chain.root.edges]
    assert labels == [
        Fraction(1, 3),
        Fraction(1, 9),
        Fraction(1, 9),
        Fraction(1, 9),
        Fraction(1, 3),
    ]
    leaves = chain.leaves()
    assert len(leaves) == 9
    assert all(p == Fraction(1, 9) for _, p, _ in leaves)


def test_uniform_operations_labels():
    db, sigma = triple_instance()
    chain = build_chain(db, sigma, UO)
    assert [e.probability for e in chain.root.edges] == [Fraction(1, 5)] * 5
    # below -f1 the residual is the conflicting pair {f2, f3}: three ops
    below_f1 = chain.root.edges[0].child
    assert [e.probability for e in below_f1.edges] == [Fraction(1, 3)] * 3


def test_chain_labels_sum_to_one_everywhere():
    db, sigma = triple_instance()
    for kind in (UR, US, UO, UR1, US1, UO1):
        chain = build_chain(db, sigma, kind)
        stack = [chain.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            assert sum(e.probability for e in node.edges) == 1
            stack.extend(e.child for e in node.edges)


def test_chain_json_rendering():
    db, sigma = triple_instance()
    doc = build_chain(db, sigma, US).to_json()
    assert doc["generator"] == "us"
    assert doc["node_count"] > 9
    root = doc["root"]
    assert root["residual"] == ["R(a1,b1,c1)", "R(a1,b2,c2)", "R(a2,b1,c2)"]
    assert len(root["children"]) == 5
    assert root["children"][0]["op"] == "-R(a1,b1,c1)"
    assert root["children"][0]["label"] == "1/3"


# ---------------------------------------------------------------------------
# Exact distributions
# ---------------------------------------------------------------------------


def test_triple_repair_distributions():
    db, sigma = triple_instance()
    by_facts = lambda dist: {r.facts: p for r, p in dist.items()}

    ur = by_facts(repair_distribution(db, sigma, UR))
    assert set(ur.values()) == {Fraction(1, 5)}

    us = by_facts(repair_distribution(db, sigma, US))
    assert us[frozenset({F1, F3})] == Fraction(1, 9)
    for key in (frozenset(), frozenset({F1}), frozenset({F2}), frozenset({F3})):
        assert us[key] == Fraction(2, 9)

    uo = by_facts(repair_distribution(db, sigma, UO))
    assert uo == {
        frozenset(): Fraction(2, 15),
        frozenset({F1}): Fraction(4, 15),
        frozenset({F1, F3}): Fraction(1, 5),
        frozenset({F2}): Fraction(2, 15),
        frozenset({F3}): Fraction(4, 15),
    }

    ur1 = by_facts(repair_distribution(db, sigma, UR1))
    assert set(ur1.values()) == {Fraction(1, 4)}

    us1 = by_facts(repair_distribution(db, sigma, US1))
    assert us1[frozenset({F2})] == Fraction(2, 5)
    assert us1[frozenset({F1})] == us1[frozenset({F3})] == Fraction(1, 5)
    assert us1[frozenset({F1, F3})] == Fraction(1, 5)

    uo1 = by_facts(repair_distribution(db, sigma, UO1))
    assert uo1 == {
        frozenset({F1}): Fraction(1, 6),
        frozenset({F2}): Fraction(1, 3),
        frozenset({F3}): Fraction(1, 6),
        frozenset({F1, F3}): Fraction(1, 3),
    }


def test_distributions_agree_with_materialized_chain():
    for db, sigma in (triple_instance(), keyed_instance(), two_key_path_instance()):
        for kind in (UR, US, UO, UR1, US1, UO1):
            fast = repair_distribution(db, sigma, kind)
            slow = build_chain(db, sigma, kind).repair_distribution()
            assert {r.facts: p for r, p in fast.items()} == {
                r.facts: p for r, p in slow.items()
            }


def test_worked_example_frequencies():
    db, sigma = keyed_instance()
    q = keyed_query()
    assert exact_answer_probability(db, sigma, UR, q, ("b1",)) == Fraction(1, 4)
    assert exact_answer_probability(db, sigma, US, q, ("b1",)) == Fraction(8, 33)
    assert exact_answer_probability(db, sigma, UR, keyed_boolean_query()) == Fraction(1, 4)


def test_random_sweep_against_bruteforce():
    rng = random.Random(60901)
    checked = 0
    while checked < 30:
        db = random_fd_instance(rng, max_facts=6)
        n = sequence_count(db, WIDE_FDS)
        if n > 2000:
            continue
        seqs = enumerate_sequences(db, WIDE_FDS)
        assert len(seqs) == n
        assert [_as_opset_tuple(s) for s in seqs] == bf_complete_sequences(db, WIDE_FDS)
        assert {r.facts for r in candidate_repairs(db, WIDE_FDS)} == bf_candidate_repairs(
            db, WIDE_FDS
        )
        checked += 1


def test_uo_distribution_against_bruteforce():
    from opcqa import Atom, ConjunctiveQuery, Variable

    rng = random.Random(60902)
    x, y = Variable("x"), Variable("y")
    q = ConjunctiveQuery(atoms=(Atom("R", (x, y, y)),))
    checked = 0
    while checked < 15:
        db = random_fd_instance(rng, max_facts=5)
        if sequence_count(db, WIDE_FDS) > 500:
            continue
        for kind, singleton in ((UO, False), (UO1, True)):
            got = exact_answer_probability(db, WIDE_FDS, kind, q)
            want = bf_uo_probability(db, WIDE_FDS, q, singleton_only=singleton)
            assert got == want
        checked += 1


# ---------------------------------------------------------------------------
# Witness sequences for independent sets
# ---------------------------------------------------------------------------


def test_realize_repair_on_two_key_path():
    db, sigma = two_key_path_instance()
    ra, rb, rc = sorted(db.facts)  # R(a1,b1), R(a1,b2), R(a2,b2)
    seq = realize_repair(db, sigma, db.restrict([]))
    assert _as_opset_tuple(seq) == (
        frozenset({rc}),
        frozenset({ra, rb}),
    )
    seq.validate(db, sigma)
    for keep in ([ra], [rb], [rc], [ra, rc]):
        target = db.restrict(keep)
        witness = realize_repair(db, sigma, target)
        witness.validate(db, sigma)
        assert witness.result(db).facts == target.facts


def test_realize_repair_rejects_bad_targets():
    db, sigma = two_key_path_instance()
    ra, rb, rc = sorted(db.facts)
    with pytest.raises(ValueError):
        realize_repair(db, sigma, db.restrict([ra, rb]))  # conflicting pair
    with pytest.raises(ValueError):
        realize_repair(db, sigma, db.restrict([fact("R", "zz", "zz")]))
    lone = Database.of(db.schema, [fact("R", "a1", "b1")])
    with pytest.raises(ValueError):
        realize_repair(lone, sigma, lone.restrict([]))


def test_realize_repair_random_targets():
    rng = random.Random(77)
    from opcqa import conflict_graph, is_nontrivially_connected

    from bruteforce import bf_independent_sets, random_connected_key_instance

    tried = 0
    while tried < 25:
        db, sigma = random_connected_key_instance(rng)
        g = conflict_graph(db, sigma)
        if not is_nontrivially_connected(g):
            continue
        sets = bf_independent_sets(sorted(db.facts), g.edges)
        for kept in sets:
            witness = realize_repair(db, sigma, db.restrict(kept))
            witness.validate(db, sigma)
            assert witness.result(db).facts == frozenset(kept)
        tried += 1
