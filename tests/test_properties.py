"""Property-based invariants over randomly generated instances."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from opcqa import (
    GENERATORS,
    UO,
    UO1,
    UR,
    US,
    Database,
    RandomSource,
    SizeCapError,
    build_chain,
    candidate_repairs,
    canonical_sequences,
    count_candidate_repairs,
    count_complete_sequences,
    enumerate_sequences,
    fact,
    justified_ops,
    repair_distribution,
    sample_outcome,
    satisfies,
    sequence_count,
    sequence_count_for_profile,
    violations,
)
from opcqa.instances import gen_fd_star
from opcqa.repairs import DEFAULT_TREE_CAP, _Component, _op_indices, _space

from bruteforce import (
    SWEEP_KEY,
    SWEEP_SCHEMA,
    SWEEP_TWO_KEYS,
    WIDE_FDS,
    WIDE_SCHEMA,
    greedy_matching,
    justified_ops_sequences,
    uo_forward_reference,
)


# ---------------------------------------------------------------------------
# Instance strategies
# ---------------------------------------------------------------------------

block_profiles = st.lists(st.integers(1, 4), min_size=1, max_size=4)


def keyed_db_of(sizes: list[int]) -> Database:
    facts = [
        fact("R", f"k{b}", f"v{v}") for b, m in enumerate(sizes) for v in range(m)
    ]
    return Database.of(SWEEP_SCHEMA, facts)


wide_rows = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(0, 2)),
    min_size=2,
    max_size=6,
    unique=True,
)


def wide_db_of(rows) -> Database:
    return Database.of(
        WIDE_SCHEMA, {fact("R", f"a{a}", f"b{b}", f"c{c}") for a, b, c in rows}
    )


chain_steps = st.lists(st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=7)


def chain_db_of(steps) -> Database:
    """Rows under the two keys A1 -> A2 and A2 -> A1, each sharing one
    side with an earlier row and a fresh value on the other: one
    component of key cliques, not necessarily a clique itself."""
    rows = [("x0", "y0")]
    for i, (pick, same_x) in enumerate(steps, 1):
        x, y = rows[pick % len(rows)]
        rows.append((x, f"y{i}") if same_x else (f"x{i}", y))
    return Database.of(SWEEP_SCHEMA, [fact("R", *row) for row in rows])


fd_instances = st.one_of(
    wide_rows.map(lambda rows: (wide_db_of(rows), WIDE_FDS)),
    chain_steps.map(lambda steps: (chain_db_of(steps), SWEEP_TWO_KEYS)),
)

kinds = st.sampled_from(sorted(GENERATORS.values(), key=lambda k: k.label))


# ---------------------------------------------------------------------------
# Tree and distribution invariants
# ---------------------------------------------------------------------------


@given(block_profiles)
@settings(max_examples=60)
def test_formula_counts_match_enumeration(sizes):
    db = keyed_db_of(sizes)
    if count_complete_sequences(db, SWEEP_KEY) > 3000:
        return
    seqs = enumerate_sequences(db, SWEEP_KEY)
    assert count_complete_sequences(db, SWEEP_KEY) == len(seqs)
    assert sequence_count(db, SWEEP_KEY) == len(seqs)
    repairs = candidate_repairs(db, SWEEP_KEY)
    assert count_candidate_repairs(db, SWEEP_KEY) == len(repairs)


@given(wide_rows)
@settings(max_examples=60)
def test_sequences_are_valid_and_lead_to_repairs(rows):
    db = wide_db_of(rows)
    if sequence_count(db, WIDE_FDS) > 1500:
        return
    results = set()
    for seq in enumerate_sequences(db, WIDE_FDS):
        seq.validate(db, WIDE_FDS)
        results.add(seq.result(db).facts)
    assert results == {r.facts for r in candidate_repairs(db, WIDE_FDS)}
    for r in candidate_repairs(db, WIDE_FDS):
        assert satisfies(r, WIDE_FDS)


@given(wide_rows)
@settings(max_examples=40)
def test_justified_ops_are_canonically_sorted(rows):
    db = wide_db_of(rows)
    ops = justified_ops(db, WIDE_FDS)
    assert [op.sort_key for op in ops] == sorted(op.sort_key for op in ops)
    singles = justified_ops(db, WIDE_FDS, singleton_only=True)
    assert all(not op.is_pair for op in singles)
    assert {op.removed for op in singles} == {
        op.removed for op in ops if not op.is_pair
    }


@given(wide_rows, kinds)
@settings(max_examples=60)
def test_distributions_are_probability_measures(rows, kind):
    db = wide_db_of(rows)
    from opcqa import is_primary_keys

    if kind.family in ("ur", "us") and not is_primary_keys(WIDE_FDS, db.schema):
        return  # dispatcher territory, covered elsewhere
    if sequence_count(db, WIDE_FDS, kind.singleton_only) > 1500:
        return
    dist = repair_distribution(db, WIDE_FDS, kind)
    total = sum(p for _, p in dist.items())
    assert total == 1
    for repair, p in dist.items():
        assert 0 < p <= 1
        assert satisfies(repair, WIDE_FDS)


@given(block_profiles, kinds)
@settings(max_examples=40)
def test_chain_agrees_with_closed_form(sizes, kind):
    db = keyed_db_of(sizes)
    if count_complete_sequences(db, SWEEP_KEY) > 400:
        return
    chain = build_chain(db, SWEEP_KEY, kind)
    from_chain = {r.facts: p for r, p in chain.repair_distribution().items()}
    direct = {r.facts: p for r, p in repair_distribution(db, SWEEP_KEY, kind).items()}
    assert from_chain == direct
    # leaf probabilities form a measure as well
    assert sum(p for _, p, _ in chain.leaves()) == 1


# two components whose facts interleave in canonical order, two runs each
INTERLEAVED = (wide_db_of([(0, 0, 0), (0, 0, 1), (1, 1, 0), (2, 1, 1)]), WIDE_FDS)


@given(fd_instances, st.booleans())
@example(INTERLEAVED, False)
@example(INTERLEAVED, True)
@settings(max_examples=60, deadline=None)
def test_dag_children_are_the_justified_operations(instance, singleton_only):
    db, sigma = instance
    space = _space(db, sigma)
    reference = _Component(tuple(range(space.n)), space.groups, (0,))
    dag = reference.dag(singleton_only, DEFAULT_TREE_CAP)
    for i, mask in enumerate(dag.masks):
        ops = [space.operation_of(_op_indices(mask ^ dag.masks[c])) for c in dag.children(i)]
        assert ops == justified_ops(space.database_of(mask), sigma, singleton_only)
    # per component, with the others whole: the operations tables merged
    # by _Space.select list the joint residual's operations in order
    comps, _ = space.components()
    whole = [comp.ops(comp.full_mask, singleton_only) for comp in comps]
    for c, comp in enumerate(comps):
        for local in comp.dag(singleton_only, DEFAULT_TREE_CAP).masks:
            tables = list(whole)
            tables[c] = comp.ops(local, singleton_only)
            offsets = [off for _, off in tables]
            picked = [
                tables[d][0][k][0]
                for d, k in (space.select(offsets, r) for r in range(sum(o[-1] for o in offsets)))
            ]
            gone = sum(1 << g for k, g in enumerate(comp.facts) if not local >> k & 1)
            joint = space.database_of(space.full_mask & ~gone)
            assert list(map(space.operation_of, picked)) == justified_ops(
                joint, sigma, singleton_only
            )


def _masks_of(n: int, pairs) -> list[int]:
    masks = [0] * n
    for i, j in pairs:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return masks


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
        min_size=2,
        max_size=24,
        unique=True,
    )
)
@example(((0, 0, 0), (0, 0, 1), (1, 1, 0), (2, 1, 1)))
@settings(max_examples=100, deadline=None)
def test_neighbour_masks_and_matchings_follow_the_violating_pairs(rows):
    """The masks built from the FD groups are the conflict relation of the
    violating pairs, for the whole instance and each component, and the
    matching is the greedy one over those pairs in sorted order."""
    db = wide_db_of(rows)
    space = _space(db, WIDE_FDS)
    pairs = [sorted(space.index[f] for f in pair) for pair in violations(db, WIDE_FDS).pairs]
    assert space.nbr == _masks_of(space.n, pairs)
    assert space.matching == greedy_matching(map(tuple, pairs))
    comps, _ = space.components()
    for comp in comps:
        local = {g: i for i, g in enumerate(comp.facts)}
        mine = [(local[i], local[j]) for i, j in pairs if i in local]
        assert comp.nbr == _masks_of(comp.n, mine)
        assert comp.matching == greedy_matching(mine)
    assert space.matching == sum(comp.matching for comp in comps)


keyed_instances = block_profiles.map(lambda sizes: (keyed_db_of(sizes), SWEEP_KEY))


@given(st.one_of(fd_instances, keyed_instances), st.booleans())
@example(INTERLEAVED, False)
@example(INTERLEAVED, True)
@settings(max_examples=60, deadline=None)
def test_enumeration_follows_the_order_of_justified_ops(instance, singleton_only):
    """The mask walks list the tree's leaves in the order of a walk over
    residual databases through justified_ops, the canonical sequences are
    the first (dfs) or last (reversed-dfs) per result, and the tree-size
    check counts the tree's nodes, the prefixes of complete sequences."""
    db, sigma = instance
    if sequence_count(db, sigma, singleton_only) > 2000:
        return
    expected = justified_ops_sequences(db, sigma, singleton_only)
    assert enumerate_sequences(db, sigma, singleton_only) == expected
    first: dict = {}
    last: dict = {}
    for seq in expected:
        first.setdefault(seq.result(db), seq)
        last[seq.result(db)] = seq
    for ordering, chosen in (("dfs", first), ("reversed-dfs", last)):
        got = canonical_sequences(db, sigma, singleton_only, ordering)
        assert got == set(chosen.values()), ordering
    nodes = len({seq.ops[:i] for seq in expected for i in range(len(seq) + 1)})
    assert len(enumerate_sequences(db, sigma, singleton_only, cap=nodes)) == len(expected)
    with pytest.raises(SizeCapError):
        enumerate_sequences(db, sigma, singleton_only, cap=nodes - 1)


def assert_uo_matches_reference(db, sigma, singleton_only: bool) -> None:
    """repair_distribution for uo/uo1 against a Fraction forward pass over
    the whole instance's residual DAG."""
    space = _space(db, frozenset(sigma))
    reference = _Component(tuple(range(space.n)), space.groups, (0,))
    dag = reference.dag(singleton_only, DEFAULT_TREE_CAP)
    weight = uo_forward_reference(dag.masks, dag.starts, dag.kids)
    expected = {space.database_of(dag.masks[i]).facts: weight[i] for i in dag.leaf_positions()}
    dist = repair_distribution(db, sigma, UO1 if singleton_only else UO)
    assert {r.facts: p for r, p in dist.items()} == expected


@given(fd_instances, st.booleans())
@settings(max_examples=60, deadline=None)
def test_uo_distribution_matches_reference_forward_pass(instance, singleton_only):
    assert_uo_matches_reference(*instance, singleton_only)


def test_uo_distribution_with_a_large_degree_lcm():
    # out-degrees 1, 3, ..., 15 (uo) and 1, ..., 8 (uo1) on the star; 3, 6,
    # ..., 28 (uo) and 2, ..., 7 (uo1) on the 7-fact block
    star, star_fds, _ = gen_fd_star(8)
    for singleton_only in (False, True):
        assert_uo_matches_reference(star, star_fds, singleton_only)
        assert_uo_matches_reference(keyed_db_of([7]), SWEEP_KEY, singleton_only)


@given(block_profiles)
@settings(max_examples=40)
def test_uniform_generators_have_their_defining_shapes(sizes):
    db = keyed_db_of(sizes)
    if count_complete_sequences(db, SWEEP_KEY) > 600:
        return
    ur = repair_distribution(db, SWEEP_KEY, UR)
    assert len({p for _, p in ur.items()}) == 1  # uniform over repairs
    us = repair_distribution(db, SWEEP_KEY, US)
    total = count_complete_sequences(db, SWEEP_KEY)
    for repair, p in us.items():
        below = sum(
            1
            for seq in enumerate_sequences(db, SWEEP_KEY)
            if seq.result(db).facts == repair.facts
        )
        assert p == Fraction(below, total)


@given(st.permutations([2, 2, 3, 4]))
@settings(max_examples=24)
def test_profile_count_permutation_invariance(perm):
    assert sequence_count_for_profile(perm) == sequence_count_for_profile([2, 2, 3, 4])
    assert sequence_count_for_profile(perm, singleton_only=True) == (
        sequence_count_for_profile([2, 2, 3, 4], singleton_only=True)
    )


# ---------------------------------------------------------------------------
# Sampler invariants
# ---------------------------------------------------------------------------


@given(st.integers(0, 2**32), st.integers(1, 2**70))
@settings(max_examples=80)
def test_randbelow_stays_in_range(seed, n):
    rng = RandomSource(seed, 3)
    for _ in range(4):
        assert 0 <= rng.randbelow(n) < n


@given(st.integers(0, 2**32), block_profiles, kinds)
@settings(max_examples=50)
def test_samples_are_valid_outcomes(seed, sizes, kind):
    db = keyed_db_of(sizes)
    rng = RandomSource(seed)
    out = sample_outcome(db, SWEEP_KEY, kind, rng)
    assert satisfies(out.repair, SWEEP_KEY)
    if out.sequence is not None:
        out.sequence.validate(db, SWEEP_KEY)
        assert out.sequence.result(db).facts == out.repair.facts
    if kind.singleton_only:
        # every block keeps a survivor: no fact-free relations appear
        assert out.repair.fact_count == len(sizes)


@given(st.integers(0, 2**32), kinds)
@settings(max_examples=30)
def test_sampling_determinism(seed, kind):
    db = keyed_db_of([3, 2])
    a = [
        sample_outcome(db, SWEEP_KEY, kind, RandomSource(seed, i)).repair.facts
        for i in range(6)
    ]
    b = [
        sample_outcome(db, SWEEP_KEY, kind, RandomSource(seed, i)).repair.facts
        for i in range(6)
    ]
    assert a == b
