"""Closed-form counting against brute-force enumeration."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from opcqa import (
    ConstraintClassError,
    Database,
    FunctionalDependency,
    block_seq_count,
    build_sequence_count_table,
    count_candidate_repairs,
    count_complete_sequences,
    fact,
    sequence_count_for_profile,
)

from bruteforce import (
    SWEEP_KEY,
    SWEEP_SCHEMA,
    bf_candidate_repairs,
    bf_complete_sequences,
    random_primary_key_instance,
)
from fixtures import keyed_instance, ladder_instance, triple_instance


def test_worked_example_counts():
    db, sigma = keyed_instance()
    assert count_candidate_repairs(db, sigma) == 12
    assert count_complete_sequences(db, sigma) == 99
    assert count_candidate_repairs(db, sigma, singleton_only=True) == 6
    assert count_complete_sequences(db, sigma, singleton_only=True) == 36


def test_single_block_sequence_counts():
    assert block_seq_count(3, 0, False) == 6
    assert block_seq_count(3, 1, False) == 3
    assert block_seq_count(3, 1, True) == 3
    assert block_seq_count(2, 0, False) == 2
    assert block_seq_count(2, 1, True) == 1
    # boundary zeros: no emptying without a pair removal, no survivor
    # when pair removals consume an even block entirely
    assert block_seq_count(2, 0, True) == 0
    assert block_seq_count(2, 1, False) == 0
    assert block_seq_count(4, 2, False) == 0
    with pytest.raises(ValueError):
        block_seq_count(1, 0, False)
    with pytest.raises(ValueError):
        block_seq_count(3, 2, False)


def test_single_block_counts_match_enumeration():
    for m in range(2, 6):
        db = Database.of(
            SWEEP_SCHEMA, [fact("R", "k", f"v{i}") for i in range(m)]
        )
        seqs = bf_complete_sequences(db, SWEEP_KEY)
        by_shape: dict[tuple[int, bool], int] = {}
        for seq in seqs:
            pairs = sum(1 for op in seq if len(op) == 2)
            emptied = sum(len(op) for op in seq) == m
            key = (pairs, emptied)
            by_shape[key] = by_shape.get(key, 0) + 1
        for i in range(m // 2 + 1):
            for emptied in (False, True):
                assert block_seq_count(m, i, emptied) == by_shape.get((i, emptied), 0)


def test_two_block_table_cells():
    table = build_sequence_count_table([3, 2])
    assert table.cell(2, 2, 0) == 36
    assert table.cell(2, 1, 1) == 36
    assert table.cell(2, 2, 1) == 12
    assert table.cell(2, 0, 2) == 9
    assert table.cell(2, 1, 2) == 6
    assert table.total() == 99
    assert build_sequence_count_table([]).total() == 1
    with pytest.raises(ValueError):
        build_sequence_count_table([2, 1])


def test_profile_count_is_order_invariant():
    assert sequence_count_for_profile([3, 2]) == sequence_count_for_profile([2, 3])
    assert sequence_count_for_profile([4, 2, 3]) == sequence_count_for_profile([3, 4, 2])
    # trivial blocks drop out
    assert sequence_count_for_profile([3, 1, 2, 1]) == 99
    assert sequence_count_for_profile([1, 1]) == 1
    assert sequence_count_for_profile([3, 2], singleton_only=True) == 36


def test_counts_require_primary_keys():
    db, sigma = triple_instance()
    with pytest.raises(ConstraintClassError):
        count_candidate_repairs(db, sigma)
    with pytest.raises(ConstraintClassError):
        count_complete_sequences(db, sigma)


def test_random_instances_match_enumeration():
    rng = random.Random(3571)
    checked = 0
    while checked < 50:
        db = random_primary_key_instance(rng, max_facts=7, max_block=4)
        if count_complete_sequences(db, SWEEP_KEY) > 3000:
            continue
        seqs = bf_complete_sequences(db, SWEEP_KEY)
        assert count_complete_sequences(db, SWEEP_KEY) == len(seqs)
        assert count_candidate_repairs(db, SWEEP_KEY) == len(
            bf_candidate_repairs(db, SWEEP_KEY)
        )
        singles = bf_complete_sequences(db, SWEEP_KEY, singleton_only=True)
        assert count_complete_sequences(db, SWEEP_KEY, singleton_only=True) == len(singles)
        assert count_candidate_repairs(db, SWEEP_KEY, singleton_only=True) == len(
            bf_candidate_repairs(db, SWEEP_KEY, singleton_only=True)
        )
        checked += 1


@given(st.lists(st.integers(2, 6), max_size=8))
@settings(max_examples=60)
def test_egf_totals_match_the_block_dp(sizes):
    assert sequence_count_for_profile(sizes) == build_sequence_count_table(sizes).total()


SECOND_COLUMN_KEY = frozenset([FunctionalDependency.of("R", ("A2",), ("A1",))])


@given(st.lists(st.integers(1, 4), min_size=1, max_size=4))
@settings(max_examples=40)
def test_egf_totals_match_enumeration(sizes):
    # blocks keyed on the first column, and the same blocks keyed on the
    # second, whose facts interleave in fact order
    facts = [(f"k{b}", f"v{v}") for b, m in enumerate(sizes) for v in range(m)]
    first = Database.of(SWEEP_SCHEMA, [fact("R", k, v) for k, v in facts])
    second = Database.of(SWEEP_SCHEMA, [fact("R", v, k) for k, v in facts])
    for db, sigma in ((first, SWEEP_KEY), (second, SECOND_COLUMN_KEY)):
        total = count_complete_sequences(db, sigma)
        assert total == sequence_count_for_profile(sizes)
        if total <= 3000:
            assert total == len(bf_complete_sequences(db, sigma))


def test_sixty_block_ladder_count_matches_the_block_dp():
    db, sigma = ladder_instance(60, 3)
    assert count_complete_sequences(db, sigma) == build_sequence_count_table([3] * 60).total()
