"""Release acceptance suite: one test per criterion, run in order.

Every check here is deterministic. The randomized sweeps fix their
seeds, so a red criterion reproduces by rerunning this file alone, and
the wall-clock ceilings asserted at the end of the timed tests are part
of the contract rather than advisory.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

import pytest
from scipy import stats

from opcqa import (
    UO,
    UO1,
    UR,
    UR1,
    US,
    US1,
    Atom,
    ConjunctiveQuery,
    Constant,
    EstimatorConfig,
    Pos2DNF,
    UndirectedGraph,
    Variable,
    block_seq_count,
    brute_force_hom_count,
    build_chain,
    build_sequence_count_table,
    candidate_repairs,
    count_candidate_repairs,
    count_complete_sequences,
    entails,
    enumerate_sequences,
    estimate_probability,
    exact_answer_probability,
    gen_fd_lift,
    gen_fd_star,
    gen_hcoloring_instance,
    gen_pos2dnf_instance,
    hom_count_via_cqa,
    lower_bound,
    realize_repair,
    repair_distribution,
    sat_count_brute,
    sequence_count,
)
from opcqa.sampling import RandomSource, sample_outcome

from bruteforce import (
    SWEEP_KEY,
    WIDE_FDS,
    bf_candidate_repairs,
    bf_complete_sequences,
    bf_independent_sets,
    bf_nontrivially_connected,
    bf_uo_probability,
    bf_violating_pairs,
    random_connected_key_instance,
    random_fd_instance,
    random_primary_key_instance,
)
from fixtures import keyed_instance, keyed_query, triple_instance

ALL_KINDS = (UR, US, UO, UR1, US1, UO1)


# ---------------------------------------------------------------------------
# Criterion 1: three-fact worked example, exact rational regression
# ---------------------------------------------------------------------------


def test_c01_triple_example_regression():
    started = time.monotonic()
    db, sigma = triple_instance()

    assert sequence_count(db, sigma) == 9
    assert len(candidate_repairs(db, sigma)) == 5

    ur = repair_distribution(db, sigma, UR)
    assert len(ur) == 5
    assert all(p == Fraction(1, 5) for _, p in ur.items())

    us_leaves = build_chain(db, sigma, US).leaves()
    assert len(us_leaves) == 9
    assert all(p == Fraction(1, 9) for _, p, _ in us_leaves)

    uo_root = build_chain(db, sigma, UO).root
    assert [e.probability for e in uo_root.edges] == [Fraction(1, 5)] * 5
    inner = [e.child for e in uo_root.edges if not e.child.is_leaf]
    assert len(inner) == 2
    for node in inner:
        assert [e.probability for e in node.edges] == [Fraction(1, 3)] * 3

    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# Criterion 2: six-fact keyed example, counts both ways plus frequencies
# ---------------------------------------------------------------------------


def test_c02_keyed_example_regression():
    started = time.monotonic()
    db, sigma = keyed_instance()

    assert count_candidate_repairs(db, sigma) == 12
    assert count_complete_sequences(db, sigma) == 99
    assert len(candidate_repairs(db, sigma)) == 12
    assert len(enumerate_sequences(db, sigma)) == 99

    assert block_seq_count(3, 0, False) == 6
    assert block_seq_count(3, 1, False) == 3
    assert block_seq_count(3, 1, True) == 3
    assert block_seq_count(2, 0, False) == 2
    assert block_seq_count(2, 1, True) == 1

    table = build_sequence_count_table((3, 2))
    assert table.cell(2, 2, 0) == 36
    assert table.cell(2, 1, 1) == 36
    assert table.cell(2, 2, 1) == 12
    assert table.cell(2, 0, 2) == 9
    assert table.cell(2, 1, 2) == 6
    assert table.total() == 99

    q = keyed_query()
    assert exact_answer_probability(db, sigma, UR, q, ("b1",)) == Fraction(1, 4)
    assert exact_answer_probability(db, sigma, US, q, ("b1",)) == Fraction(24, 99)

    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# Criteria 3 and 5 share one seeded pool of keyed instances
# ---------------------------------------------------------------------------

SWEEP_SIZE = 200
SWEEP_SEQ_LIMIT = 3000
CHAIN_CHECK_LIMIT = 300


def _sweep_targets(db):
    """Query/answer pairs probing constants, joins, and a Boolean shape."""
    x, y = Variable("x"), Variable("y")
    q_key = ConjunctiveQuery((Atom("R", (Constant("k0"), x)),), (x,))
    q_any = ConjunctiveQuery((Atom("R", (y, x)),), (x,))
    q_bool = ConjunctiveQuery((Atom("R", (x, Constant("v0"))),))
    values = sorted({f.values[1] for f in db})
    targets = [(q_key, (v,)) for v in values + ["zz"]]
    targets += [(q_any, (v,)) for v in values]
    targets.append((q_bool, ()))
    return targets


def _direct_frequencies(db, targets, singleton_only):
    """Brute-force rrfreq and srfreq for every target, via enumeration."""
    repairs = bf_candidate_repairs(db, SWEEP_KEY, singleton_only)
    seq_results = [
        db.facts - frozenset(f for op in seq for f in op)
        for seq in bf_complete_sequences(db, SWEEP_KEY, singleton_only)
    ]
    rr, sr = [], []
    for q, c in targets:
        holds = {facts: entails(db.restrict(facts), q, c) for facts in repairs}
        rr.append(Fraction(sum(holds[f] for f in repairs), len(repairs)))
        sr.append(Fraction(sum(holds[f] for f in seq_results), len(seq_results)))
    return rr, sr


@pytest.fixture(scope="module")
def keyed_sweep():
    rng = random.Random(20260822)
    started = time.monotonic()
    cases = []
    while len(cases) < SWEEP_SIZE:
        db = random_primary_key_instance(rng, max_facts=8)
        if count_complete_sequences(db, SWEEP_KEY) > SWEEP_SEQ_LIMIT:
            continue
        targets = _sweep_targets(db)
        engine = {
            kind: [
                exact_answer_probability(db, SWEEP_KEY, kind, q, c)
                for q, c in targets
            ]
            for kind in ALL_KINDS
        }
        cases.append((db, targets, engine))
    return cases, time.monotonic() - started


def test_c03_engine_matches_enumeration(keyed_sweep):
    cases, build_time = keyed_sweep
    started = time.monotonic()
    chain_checked = 0
    for db, targets, engine in cases:
        assert count_candidate_repairs(db, SWEEP_KEY) == len(
            bf_candidate_repairs(db, SWEEP_KEY, False)
        )
        assert count_candidate_repairs(db, SWEEP_KEY, singleton_only=True) == len(
            bf_candidate_repairs(db, SWEEP_KEY, True)
        )
        assert count_complete_sequences(db, SWEEP_KEY) == len(
            bf_complete_sequences(db, SWEEP_KEY, False)
        )
        assert count_complete_sequences(db, SWEEP_KEY, singleton_only=True) == len(
            bf_complete_sequences(db, SWEEP_KEY, True)
        )

        for singleton in (False, True):
            rr, sr = _direct_frequencies(db, targets, singleton)
            ur_kind = UR1 if singleton else UR
            us_kind = US1 if singleton else US
            uo_kind = UO1 if singleton else UO
            assert engine[ur_kind] == rr
            assert engine[us_kind] == sr
            for (q, c), p in zip(targets, engine[uo_kind]):
                assert p == bf_uo_probability(db, SWEEP_KEY, q, c, singleton)

        # On the smaller instances, recompute from the materialized tree.
        if count_complete_sequences(db, SWEEP_KEY) <= CHAIN_CHECK_LIMIT:
            chain_checked += 1
            for kind in ALL_KINDS:
                leaves = build_chain(db, SWEEP_KEY, kind).leaves()
                for (q, c), p in zip(targets, engine[kind]):
                    from_chain = sum(
                        (pi for _, pi, rep in leaves if entails(rep, q, c)),
                        Fraction(0),
                    )
                    assert from_chain == p

    assert len(cases) >= 200
    assert chain_checked >= 50
    assert build_time + time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# Criterion 4: repairs of connected instances are the independent sets
# ---------------------------------------------------------------------------


def test_c04_independent_set_correspondence():
    started = time.monotonic()
    rng = random.Random(41)
    cases = [triple_instance()]
    while len(cases) < 100:
        if len(cases) % 2:
            db, sigma = random_connected_key_instance(rng)
        else:
            db, sigma = random_fd_instance(rng, max_facts=10), WIDE_FDS
        if not bf_nontrivially_connected(db, sigma):
            continue
        cases.append((db, sigma))

    for db, sigma in cases:
        edges = bf_violating_pairs(db.facts, sigma, db.schema)
        independent = bf_independent_sets(sorted(db.facts), edges)
        repairs = {r.facts for r in candidate_repairs(db, sigma)}
        singles = {r.facts for r in candidate_repairs(db, sigma, singleton_only=True)}
        assert repairs == set(independent)
        assert singles == {s for s in independent if s}
        for target in independent:
            witness = realize_repair(db, sigma, db.restrict(target))
            witness.validate(db, sigma)
            assert witness.result(db).facts == target

    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# Criterion 5: proven lower bounds hold on every positive target
# ---------------------------------------------------------------------------


E_UNDER = Fraction(2_718_281_828_459_045, 10**15)


def test_c05_lower_bounds_never_violated(keyed_sweep):
    cases, _ = keyed_sweep
    positive = 0
    for db, targets, engine in cases:
        for kind in (UR, US, UR1, UO1):
            for (q, _), p in zip(targets, engine[kind]):
                if p == 0:
                    continue
                bound = lower_bound(kind, db, SWEEP_KEY, q)
                assert bound is not None
                assert p >= bound
                if kind is UO1:
                    # Strictly above the irrational-constant form of the
                    # walk bound, not just the library's rounded version.
                    assert p >= 1 / (E_UNDER * db.fact_count) ** q.atom_count()
                positive += 1
    assert positive > 2000


# ---------------------------------------------------------------------------
# Criterion 6: samplers track their exact distributions
# ---------------------------------------------------------------------------

SAMPLER_DRAWS = 200_000


def test_c06_sampler_distributions():
    started = time.monotonic()
    triple = triple_instance()
    keyed = keyed_instance()
    plans = [(triple, UO), (triple, UO1)] + [(keyed, kind) for kind in ALL_KINDS]

    for case_index, ((db, sigma), kind) in enumerate(plans):
        exact = repair_distribution(db, sigma, kind)
        support = exact.support
        slot = {rep.facts: i for i, rep in enumerate(support)}
        counts = [0] * len(support)
        rng = RandomSource(7000 + case_index)
        for _ in range(SAMPLER_DRAWS):
            outcome = sample_outcome(db, sigma, kind, rng)
            counts[slot[outcome.repair.facts]] += 1

        tv = (
            sum(
                abs(Fraction(n, SAMPLER_DRAWS) - exact.probability(rep))
                for n, rep in zip(counts, support)
            )
            / 2
        )
        assert tv <= Fraction(1, 50), (kind.label, float(tv))

        expected = [float(exact.probability(rep)) * SAMPLER_DRAWS for rep in support]
        assert stats.chisquare(counts, expected).pvalue > 0.001, kind.label

    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# Criterion 7: estimator modes hit their advertised error rates
# ---------------------------------------------------------------------------


def test_c07_estimator_calibration():
    started = time.monotonic()
    db, sigma = keyed_instance()
    q = keyed_query()
    eps = Fraction(1, 20)

    additive_cfg = EstimatorConfig(eps, Fraction(1, 20), mode="additive")
    misses = 0
    for seed in range(200):
        est = estimate_probability(
            db, sigma, UR, q, ("b1",), additive_cfg, RandomSource(seed)
        )
        assert est.samples_used == 738
        if abs(est.value - Fraction(1, 4)) > eps:
            misses += 1
    assert misses <= 14

    multiplicative_cfg = EstimatorConfig(eps, Fraction(1, 20), mode="multiplicative")
    close = 0
    for seed in range(100):
        est = estimate_probability(
            db, sigma, UR, q, ("b1",), multiplicative_cfg, RandomSource(seed)
        )
        assert est.lower_bound_used == Fraction(1, 12)
        if abs(est.value - Fraction(1, 4)) <= Fraction(1, 4) * eps:
            close += 1
    assert close >= 93

    adaptive_cfg = EstimatorConfig(eps, Fraction(1, 20), mode="adaptive")
    star = gen_fd_star(8)
    walk_targets = [
        (db, sigma, q, ("b1",), exact_answer_probability(db, sigma, UO, q, ("b1",))),
        (star[0], star[1], star[2], (), Fraction(16, 6435)),
    ]
    assert walk_targets[0][4] == bf_uo_probability(db, sigma, q, ("b1",))
    assert exact_answer_probability(star[0], star[1], UO, star[2]) == Fraction(16, 6435)
    for inst, fds, query, answer, truth in walk_targets:
        close = 0
        for seed in range(100):
            est = estimate_probability(
                inst, fds, UO, query, answer, adaptive_cfg, RandomSource(seed)
            )
            assert not est.flagged_zero
            if abs(est.value - truth) <= truth * eps:
                close += 1
        assert close >= 93

    assert time.monotonic() - started < 300.0


# ---------------------------------------------------------------------------
# Criterion 8: the star family stays positive but unboundable
# ---------------------------------------------------------------------------


def test_c08_star_family_decay():
    for n in range(1, 11):
        db, sigma, q = gen_fd_star(n)
        p = exact_answer_probability(db, sigma, UO, q)
        assert 0 < p <= Fraction(1, 2 ** (n - 1))
        if n == 1:
            assert p == 1
        if n == 3:
            assert p == Fraction(2, 15)


# ---------------------------------------------------------------------------
# Criterion 9: counting reductions agree with exhaustive search
# ---------------------------------------------------------------------------


def test_c09_reduction_identities():
    started = time.monotonic()

    checked = 0
    for size in range(1, 6):
        nodes = tuple("abcde"[:size])
        pairs = list(itertools.combinations(nodes, 2))
        for mask in range(2 ** len(pairs)):
            edges = [frozenset(p) for i, p in enumerate(pairs) if mask >> i & 1]
            graph = UndirectedGraph.of(nodes, edges)
            db, sigma, q = gen_hcoloring_instance(graph)

            ur = repair_distribution(db, sigma, UR)
            assert repair_distribution(db, sigma, US).probs == ur.probs
            assert repair_distribution(db, sigma, UO).probs == ur.probs

            freq = sum(
                (p for rep, p in ur.items() if entails(rep, q)), Fraction(0)
            )
            assert hom_count_via_cqa(graph, freq) == brute_force_hom_count(graph)
            checked += 1
    assert checked == 1099

    k2 = UndirectedGraph.of(("a", "b"), [frozenset(("a", "b"))])
    db, sigma, q = gen_hcoloring_instance(k2)
    assert hom_count_via_cqa(k2, exact_answer_probability(db, sigma, UR, q)) == 8

    formulas = 0
    clause_pool = list(itertools.combinations(("w", "x", "y", "z"), 2))
    for width in range(1, len(clause_pool) + 1):
        for chosen in itertools.combinations(clause_pool, width):
            phi = Pos2DNF.of(*chosen)
            db, sigma, q = gen_pos2dnf_instance(phi)
            freq = exact_answer_probability(db, sigma, UR1, q)
            assert freq == Fraction(sat_count_brute(phi), 2 ** len(phi.variables))
            formulas += 1
    assert formulas == 63

    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# Criterion 10: lifting adds exactly one repair and the query finds it
# ---------------------------------------------------------------------------


def test_c10_lift_identity():
    rng = random.Random(77)
    done = 0
    while done < 20:
        db, sigma = random_connected_key_instance(rng)
        if not bf_nontrivially_connected(db, sigma):
            continue
        base = len(candidate_repairs(db, sigma))
        lifted_db, lifted_sigma, lifted_q = gen_fd_lift(db, sigma)
        assert len(candidate_repairs(lifted_db, lifted_sigma)) == base + 1
        assert exact_answer_probability(
            lifted_db, lifted_sigma, UR, lifted_q
        ) == Fraction(1, base + 1)
        done += 1
