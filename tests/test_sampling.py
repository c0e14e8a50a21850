"""Random sources and the direct samplers."""

from __future__ import annotations

import pytest

from opcqa import (
    UO,
    UO1,
    UR,
    UR1,
    US,
    RandomSource,
    UnsupportedCombinationError,
    repair_distribution,
    sample_outcome,
    sample_repair_uniform,
    sample_sequence_uniform,
    sample_sequence_uo,
)

from opcqa.sampling import mix64

from fixtures import keyed_instance, triple_instance


# ---------------------------------------------------------------------------
# Random source
# ---------------------------------------------------------------------------


def test_splitmix_reference_vectors():
    # the widely published test sequence for a zero-seeded SplitMix64
    r = RandomSource(0)
    assert [r.next64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    assert mix64(0) == 0


def test_streams_are_deterministic_and_distinct():
    a = RandomSource(2024, 7)
    b = RandomSource(2024, 7)
    c = RandomSource(2024, 8)
    seq_a = [a.next64() for _ in range(20)]
    assert seq_a == [b.next64() for _ in range(20)]
    assert seq_a != [c.next64() for _ in range(20)]
    assert RandomSource(2024, 7).spawn(1).next64() == RandomSource(2024, 8).next64()


def test_randbelow_regression_anchor():
    r = RandomSource(2024, 7)
    assert [r.randbelow(100) for _ in range(8)] == [48, 7, 84, 35, 26, 65, 24, 63]


def test_randbelow_bounds_and_trivial_draw():
    r = RandomSource(5)
    for n in (1, 2, 3, 10, 97, 2**40):
        for _ in range(50):
            assert 0 <= r.randbelow(n) < n
    # a unit-range draw consumes no state
    before = RandomSource(5, 3)
    _ = before.randbelow(1)
    untouched = RandomSource(5, 3)
    assert before.next64() == untouched.next64()
    with pytest.raises(ValueError):
        r.randbelow(0)


def test_randbelow_beyond_word_size():
    r = RandomSource(11)
    n = 10**25  # needs two 64-bit words
    draws = [r.randbelow(n) for _ in range(40)]
    assert all(0 <= d < n for d in draws)
    assert max(draws) > 2**64  # astronomically unlikely to fail


# ---------------------------------------------------------------------------
# Samplers: validity of every draw
# ---------------------------------------------------------------------------


def _tv_distance(counts: dict, exact: dict, n: int) -> float:
    keys = set(counts) | set(exact)
    return 0.5 * sum(abs(counts.get(k, 0) / n - float(exact.get(k, 0))) for k in keys)


def test_uniform_repair_sampler_matches_distribution():
    db, sigma = keyed_instance()
    exact = {r.facts: p for r, p in repair_distribution(db, sigma, UR).items()}
    n = 20000
    counts: dict = {}
    rng = RandomSource(314)
    for _ in range(n):
        repair = sample_repair_uniform(db, sigma, rng)
        assert repair.facts in exact
        counts[repair.facts] = counts.get(repair.facts, 0) + 1
    assert _tv_distance(counts, exact, n) < 0.02


def test_uniform_repair_sampler_singleton_mode():
    db, sigma = keyed_instance()
    exact = {r.facts: p for r, p in repair_distribution(db, sigma, UR1).items()}
    assert len(exact) == 6
    n = 12000
    counts: dict = {}
    rng = RandomSource(3141)
    for _ in range(n):
        repair = sample_repair_uniform(db, sigma, rng, singleton_only=True)
        assert repair.facts in exact
        counts[repair.facts] = counts.get(repair.facts, 0) + 1
    assert _tv_distance(counts, exact, n) < 0.02


def test_uniform_sequence_sampler_draws_valid_sequences():
    db, sigma = keyed_instance()
    rng = RandomSource(99)
    seen = set()
    for _ in range(300):
        seq = sample_sequence_uniform(db, sigma, rng)
        seq.validate(db, sigma)
        seen.add(tuple(op.removed for op in seq))
    # 99 distinct sequences exist; 300 draws cover a solid majority
    assert len(seen) > 60


def test_uniform_sequence_sampler_matches_repair_distribution():
    db, sigma = keyed_instance()
    exact = {r.facts: p for r, p in repair_distribution(db, sigma, US).items()}
    n = 20000
    counts: dict = {}
    rng = RandomSource(2718)
    for _ in range(n):
        seq = sample_sequence_uniform(db, sigma, rng)
        result = seq.result(db)
        counts[result.facts] = counts.get(result.facts, 0) + 1
    assert _tv_distance(counts, exact, n) < 0.02


def test_uo_walk_matches_distribution_on_general_fds():
    db, sigma = triple_instance()
    for kind, singleton in ((UO, False), (UO1, True)):
        exact = {r.facts: p for r, p in repair_distribution(db, sigma, kind).items()}
        n = 20000
        counts: dict = {}
        rng = RandomSource(1618, 5)
        for _ in range(n):
            seq = sample_sequence_uo(db, sigma, rng, singleton_only=singleton)
            seq.validate(db, sigma)
            counts[seq.result(db).facts] = counts.get(seq.result(db).facts, 0) + 1
        assert _tv_distance(counts, exact, n) < 0.02


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------


def test_sample_outcome_routing():
    db, sigma = keyed_instance()
    rng = RandomSource(1)
    out = sample_outcome(db, sigma, UR, rng)
    assert out.sequence is None
    out = sample_outcome(db, sigma, US, rng)
    assert out.sequence is not None
    assert out.sequence.result(db).facts == out.repair.facts
    out = sample_outcome(db, sigma, UO, rng)
    assert out.sequence is not None
    out.sequence.validate(db, sigma)


def test_sample_outcome_rejects_ur_us_beyond_primary_keys():
    db, sigma = triple_instance()
    rng = RandomSource(1)
    for kind in (UR, US, UR1):
        with pytest.raises(UnsupportedCombinationError):
            sample_outcome(db, sigma, kind, rng)
    # the uniform-operations walk works for any FDs
    out = sample_outcome(db, sigma, UO, rng)
    out.sequence.validate(db, sigma)


def test_sampling_is_reproducible():
    db, sigma = keyed_instance()
    runs = []
    for _ in range(2):
        rng = RandomSource(424242)
        runs.append(
            [sample_outcome(db, sigma, US, rng).repair.facts for _ in range(50)]
        )
    assert runs[0] == runs[1]
    other = RandomSource(424243)
    assert runs[0] != [
        sample_outcome(db, sigma, US, other).repair.facts for _ in range(50)
    ]
