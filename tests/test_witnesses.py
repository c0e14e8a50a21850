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
    Variable,
    answer_probabilities,
    exact_answer_probability,
    fact,
    sequence_count,
    witnesses,
)
from opcqa.queries import mask_entails, witness_masks

from bruteforce import (
    SWEEP_KEY,
    WIDE_FDS,
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
    assert mask_entails((0,), 0)
    assert mask_entails((1, 6), 6) and not mask_entails((1, 6), 2)
    assert not mask_entails((), 7)


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
