"""Witness-mask entailment: minimal witnesses, their masks, and exact
answer probabilities held to the brute-force oracles."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from opcqa import (
    GENERATORS,
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    FunctionalDependency,
    Variable,
    answer_probabilities,
    build_chain,
    exact_answer_probability,
    fact,
    repair_distribution,
    sequence_count,
    witnesses,
)
from opcqa.queries import witness_masks

from bruteforce import (
    SWEEP_KEY,
    SWEEP_SCHEMA,
    WIDE_FDS,
    WIDE_SCHEMA,
    bf_entails,
    bf_rrfreq,
    bf_srfreq,
    bf_uo_probability,
    random_fd_instance,
    random_primary_key_instance,
)
from fixtures import F1, F2, F3, keyed_instance, triple_instance


def _query(head: str, *atoms: str) -> ConjunctiveQuery:
    """_query("y", "x y 'c0'") is Q(y) :- R(x, y, 'c0'); quoted terms are
    constants."""

    def term(t: str):
        return Constant(t.strip("'")) if t.startswith("'") else Variable(t)

    return ConjunctiveQuery(
        tuple(Atom("R", tuple(term(t) for t in a.split())) for a in atoms),
        tuple(Variable(v) for v in head.split()),
    )


# Each family adds one fact that conflicts with nothing, with all values
# "o": it is the only witness of R(x, ..., x), and a witness of every
# answer ("o", ...) it matches, so those answers hold in every repair.
WIDE_OUTSIDE = fact("R", "o", "o", "o")
WIDE_QUERIES = (
    _query("", "x 'b1' z"),  # Boolean, with a constant
    _query("y", "x y 'c0'"),
    _query("x", "x y 'c0'", "x y 'c1'"),  # self-join
    _query("", "'a0' y z", "'a1' y z"),  # constants and a join
    _query("x", "x y x"),  # repeated variable inside an atom
    _query("y y", "x y 'c1'"),  # repeated head variable
    _query("x z", "x 'b0' z"),
)
KEY_OUTSIDE = fact("R", "o", "o")
KEY_QUERIES = (
    _query("", "'k0' y"),
    _query("y", "x y"),
    _query("x", "x 'v0'", "x 'v1'"),  # self-join inside one block
    _query("y", "'k0' y", "'k1' y"),
    _query("x", "x x"),
    _query("x y", "x y"),
)

BRUTE_FORCE = {
    "ur": bf_rrfreq,
    "us": bf_srfreq,
    "uo": bf_uo_probability,
}


def _oracle(db, sigma, kind, q, c):
    return BRUTE_FORCE[kind.family](db, sigma, q, c, kind.singleton_only)


# ---------------------------------------------------------------------------
# The witness primitive
# ---------------------------------------------------------------------------


def test_witnesses_are_minimal_images_grouped_by_answer():
    db, _ = triple_instance()
    # Q(y) :- R(x, y, z), R(x2, y, z2): the join adds nothing, so every
    # witness is a single fact
    q = _query("y", "x y z", "x2 y z2")
    assert witnesses(q, db) == {
        ("b1",): (frozenset({F1}), frozenset({F3})),
        ("b2",): (frozenset({F2}),),
    }
    assert witnesses(q, db, ("b2",)) == {("b2",): (frozenset({F2}),)}
    assert witnesses(q, db, ("b9",)) == {}
    # a genuine join: a1 and a2 facts agreeing on B
    join = _query("", "'a1' y z", "'a2' y z2")
    assert witnesses(join, db) == {(): (frozenset({F1, F3}),)}
    # the image {F2, F3} contains the image {F2}, so only {F2} is kept
    overlap = _query("", "'a1' y z", "x2 y2 z")
    assert witnesses(overlap, db) == {(): (frozenset({F1}), frozenset({F2}))}


def test_repeated_head_variable_needs_equal_values():
    db, _ = triple_instance()
    q = _query("x x", "x y z")
    assert witnesses(q, db, ("a1", "a2")) == {}
    assert set(witnesses(q, db)) == {("a1", "a1"), ("a2", "a2")}


def test_witness_masks_drop_facts_outside_conflicts():
    bit = {F1: 1, F2: 2}
    # F3 has no bit: it survives in every repair and drops out
    assert witness_masks([frozenset({F1, F3}), frozenset({F1, F2})], bit) == (1,)
    assert witness_masks([frozenset({F3})], bit) == (0,)
    assert witness_masks([], bit) == ()


def test_answer_probabilities_cover_witnessed_tuples_only():
    db, sigma = keyed_instance()
    q = _query("x", "'a1' x")
    for kind in GENERATORS.values():
        probs = answer_probabilities(db, sigma, kind, q)
        assert set(probs) == {("b1",), ("b2",), ("b3",)}
        for c, p in probs.items():
            assert p == exact_answer_probability(db, sigma, kind, q, c)
        assert exact_answer_probability(db, sigma, kind, q, ("a1",)) == 0


# ---------------------------------------------------------------------------
# Against the brute-force oracles
# ---------------------------------------------------------------------------

kinds = st.sampled_from(sorted(GENERATORS.values(), key=lambda k: k.label))


def _check_against_oracle(db, sigma, outside, kind, q, seed):
    if sequence_count(db, sigma) > 150:
        return
    arity = len(q.answer_variables)
    if arity:
        witnessed = sorted(answer_probabilities(db, sigma, kind, q))
        chosen = random.Random(seed).sample(witnessed, min(3, len(witnessed)))
        unwitnessed = ("zz",) * arity
        assert exact_answer_probability(db, sigma, kind, q, unwitnessed) == 0
        targets = chosen + [unwitnessed, ("o",) * arity]
    else:
        targets = [()]
    for c in targets:
        p = exact_answer_probability(db, sigma, kind, q, c)
        assert p == _oracle(db, sigma, kind, q, c), (str(q), c)
        if bf_entails(db.restrict({outside}), q, c):
            assert p == 1  # a witness made only of the conflict-free fact


@given(st.integers(0, 2**32), st.sampled_from(WIDE_QUERIES), kinds)
@settings(max_examples=100, deadline=None)
def test_wide_fd_probabilities_match_brute_force(seed, q, kind):
    db = random_fd_instance(random.Random(seed), max_facts=7)
    db = Database.of(db.schema, db.facts | {WIDE_OUTSIDE})
    _check_against_oracle(db, WIDE_FDS, WIDE_OUTSIDE, kind, q, seed)


@given(st.integers(0, 2**32), st.sampled_from(KEY_QUERIES), kinds)
@settings(max_examples=100, deadline=None)
def test_primary_key_probabilities_match_brute_force(seed, q, kind):
    db = random_primary_key_instance(random.Random(seed), max_facts=7)
    db = Database.of(db.schema, db.facts | {KEY_OUTSIDE})
    _check_against_oracle(db, SWEEP_KEY, KEY_OUTSIDE, kind, q, seed)


def test_outside_witness_and_missing_witness_are_certain():
    """Deterministic anchors for the two edge cases the sweep covers."""
    db, sigma = keyed_instance()
    db = Database.of(db.schema, db.facts | {KEY_OUTSIDE})
    for kind in GENERATORS.values():
        assert exact_answer_probability(db, sigma, kind, _query("x", "x x"), ("o",)) == 1
        assert exact_answer_probability(db, sigma, kind, _query("x", "x x"), ("a1",)) == 0
        assert exact_answer_probability(db, sigma, kind, _query("", "x x")) == 1


# ---------------------------------------------------------------------------
# Several conflict components: the factorised engine against the oracles
# ---------------------------------------------------------------------------


def _multi_component_wide(rng: random.Random) -> Database:
    """Two or three groups of R(A, B, C) facts, each with its own A and C
    values, sharing the B values. A group's first two facts conflict, so
    there are at least as many conflict components as groups, and a join
    on B reaches across them."""
    facts = {WIDE_OUTSIDE}
    groups = rng.randint(2, 3)
    for g in range(groups):
        b1, b2 = rng.sample(range(3), 2)
        facts.add(fact("R", f"a{g}0", f"b{b1}", f"c{g}0"))
        facts.add(fact("R", f"a{g}0", f"b{b2}", f"c{g}1"))
        if groups == 2:
            a, b, c = rng.randint(0, 1), rng.randint(0, 2), rng.randint(0, 1)
            facts.add(fact("R", f"a{g}{a}", f"b{b}", f"c{g}{c}"))
    return Database.of(WIDE_SCHEMA, facts)


MULTI_WIDE_QUERIES = (
    _query("y", "x y z"),  # one witness per fact
    _query("y", "'a00' y z"),  # the other groups' components stay untouched
    _query("y", "x y 'c00'", "x2 y 'c10'"),  # witnesses span two groups
    _query("", "'a00' 'b0' z", "x 'b1' 'c10'"),  # Boolean, across two groups
    _query("x", "x x x"),  # only the conflict-free fact: certain or absent
)

# The key is the second column, so blocks interleave in fact order.
SWAPPED_KEY = frozenset([FunctionalDependency.of("R", ("A2",), ("A1",))])
SWAPPED_OUTSIDE = fact("R", "o", "o")
SWAPPED_QUERIES = (
    _query("x", "x 'k0'"),  # one block; the others stay untouched
    _query("x", "x 'k0'", "x 'k1'"),  # witnesses span two blocks
    _query("y", "x y"),
    _query("", "'v0' y", "'v1' y"),
    _query("x", "x x"),  # only the conflict-free fact
)


def _swapped_key_instance(rng: random.Random) -> Database:
    """Blocks R(v, k) under the key A2 -> A1, their values drawn from one
    pool, and the conflict-free fact: facts sort by value first, so the
    blocks interleave."""
    rows = {SWAPPED_OUTSIDE}
    sizes = rng.choice(((2, 2), (2, 3), (3, 2), (2, 2, 2), (1, 2, 3)))
    for k, size in enumerate(sizes):
        for v in rng.sample(range(4), size):
            rows.add(fact("R", f"v{v}", f"k{k}"))
    return Database.of(SWEEP_SCHEMA, rows)


def _check_factorised(db, sigma, kind, q, seed):
    """Every witnessed answer (answers=None) and a few given tuples, one
    of them unwitnessed, against the oracle; the repair distribution
    against the materialized chain."""
    if sequence_count(db, sigma) > 200:
        return
    arity = len(q.answer_variables)
    every = answer_probabilities(db, sigma, kind, q)
    for c, p in every.items():
        assert p == _oracle(db, sigma, kind, q, c), (str(q), c)
    adom = sorted(db.adom)
    rng = random.Random(seed)
    given = [tuple(rng.choice(adom) for _ in range(arity)) for _ in range(2)]
    given.append(("zz",) * arity)
    probs = answer_probabilities(db, sigma, kind, q, given)
    assert set(probs) == set(given)
    for c in given:
        assert probs[c] == every.get(c, 0) == _oracle(db, sigma, kind, q, c), (str(q), c)
    fast = {r.facts: p for r, p in repair_distribution(db, sigma, kind).items()}
    slow = {r.facts: p for r, p in build_chain(db, sigma, kind).repair_distribution().items()}
    assert fast == slow


@given(st.integers(0, 2**32), st.sampled_from(MULTI_WIDE_QUERIES), kinds)
@settings(max_examples=60, deadline=None)
def test_multi_component_wide_fd_probabilities_match_brute_force(seed, q, kind):
    db = _multi_component_wide(random.Random(seed))
    _check_factorised(db, WIDE_FDS, kind, q, seed)


@given(st.integers(0, 2**32), st.sampled_from(SWAPPED_QUERIES), kinds)
@settings(max_examples=60, deadline=None)
def test_interleaved_key_probabilities_match_brute_force(seed, q, kind):
    db = _swapped_key_instance(random.Random(seed))
    _check_factorised(db, SWAPPED_KEY, kind, q, seed)


def test_factorised_edge_cases():
    """Deterministic anchors for the sweeps: a witness spanning two
    components, an untouched component, a certain answer and an answer
    without a witness, on two blocks of three facts, one of two facts
    and the conflict-free fact."""
    rows = ["a1 b1", "a1 b2", "a1 b3", "a2 b1", "a2 b2", "a3 b1", "a3 b2"]
    db = Database.of(SWEEP_SCHEMA, [fact("R", *r.split()) for r in rows] + [KEY_OUTSIDE])
    spanning = _query("y", "'a1' y", "'a2' y")  # block a3 is untouched
    for kind in GENERATORS.values():
        probs = answer_probabilities(db, SWEEP_KEY, kind, spanning, [("b1",), ("b3",), ("zz",)])
        for c in (("b1",), ("b3",)):
            assert probs[c] == _oracle(db, SWEEP_KEY, kind, spanning, c)
        assert probs[("b3",)] == probs[("zz",)] == 0
        assert answer_probabilities(db, SWEEP_KEY, kind, _query("x", "x x")) == {("o",): 1}
