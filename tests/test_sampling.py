"""Random sources and the direct samplers."""

from __future__ import annotations

import sys
import threading
import tracemalloc

import pytest

from opcqa import (
    UO,
    UO1,
    UR,
    UR1,
    US,
    Database,
    FunctionalDependency,
    RandomSource,
    Schema,
    UnsupportedCombinationError,
    repair_distribution,
    sample_outcome,
    sample_repair_uniform,
    sample_sequence_uniform,
    sample_sequence_uo,
    fact,
)

from opcqa.repairs import _space, _Space
from opcqa.sampling import mix64

from fixtures import (
    LADDER_KEY,
    LADDER_SCHEMA,
    interleaved_instance,
    keyed_instance,
    ladder_instance,
    one_component_instance,
    second_column_instance,
    swapped_key_instance,
    triple_instance,
)


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


def test_lanes_draw_as_their_random_sources():
    import numpy as np

    from opcqa.sampling import _Lanes

    big = (1 << 64) // 3 + 1  # 2^64 mod big is big - 2: a third of outputs redrawn
    lanes = _Lanes(11, 5, 40)
    refs = [RandomSource(11, 5 + i) for i in range(40)]
    for n in (3, 1, big, 4, 7):
        for keep in (True, False):
            got = lanes.randbelow(n, keep)
            want = [rng.randbelow(n) for rng in refs]
            assert got.tolist() == want if keep else got is None
    some = np.arange(0, 40, 3)
    for bounds in ([2, 1, big, 5, 64] * 3, [big] * 15, [2, 3] * 8):
        bounds = np.asarray(bounds[: some.size], dtype=np.int64)
        want = [refs[i].randbelow(int(b)) for i, b in zip(some, bounds)]
        assert lanes.randbelow_each(some, bounds).tolist() == want
    # every lane has consumed exactly what its reference has
    assert lanes.randbelow(big).tolist() == [rng.randbelow(big) for rng in refs]


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


# Draws of the whole-instance walk that kept one residual mask over all
# conflict facts, per (instance, generator) for RandomSource(0..4). Each
# sequence lists its operations, a removed fact by its position in the
# sorted facts and a pair as "i-j".
UO_WALK_PINS = {
    ("ladder", "uo"): [
        "3-4 0 9-10 6-7 13-14 15 17 2",
        "9 16 3-4 10 17 0 12 7 13-14 1 6",
        "3 15-16 7 0-2 9 4 10-11 13-14 6-8",
        "6-8 11 15-16 13 3 10 4 2 0 14",
        "3-5 13 15-17 1 9-10 6-8 12-14 0-2",
    ],
    ("ladder", "uo1"): [
        "7 13 17 4 11 3 2 0 10 12 8 15",
        "0 12 8 11 17 1 7 9 5 3 15 14",
        "6 0 5 8 4 2 13 9 15 12 11 16",
        "14 17 4 0 15 13 8 7 5 11 10 1",
        "8 13 5 11 16 17 10 4 7 14 2 1",
    ],
    ("inter", "uo"): [
        "10-12 11-13 7 3-16 17 4 9 8 18 6 0-5 2-19",
        "2-8 6-11 3-4 12-17 19 9-15 1-18 5 0-10 7",
        "7-8 5 9-15 3-4 17 12 0-10 18 14 1-11 6-13 19",
        "11-13 1-6 0-5 4-15 7-14 10-12 8 9 2 16",
        "3 7 6 2-19 1-18 4-9 8-14 5-10 13 12 17 15",
    ],
    ("inter", "uo1"): [
        "15 17 1 3 13 0 4 12 19 11 5 14 9 2 8",
        "10 2 8 17 14 0 1 11 6 15 16 3 4 18 12",
        "14 17 12 18 8 0 10 6 2 15 3 9 13 1",
        "18 10 4 7 17 14 13 5 1 6 3 9 2 19 15",
        "12 17 5 3 10 8 16 18 11 7 13 14 2 9 6 4",
    ],
    ("one", "uo"): [
        "4 0 1-5 2-3",
        "0 2 5 1 4",
        "3-4 0-1 5",
        "3 1-6 4-5 0",
        "0-2 1-5 4",
    ],
    ("one", "uo1"): [
        "2 0 6 1 4",
        "3 4 2 0 6 1",
        "0 2 1 5 3",
        "6 5 4 2 0",
        "1 4 5 0 2",
    ],
}
UO_WALK_INSTANCES = {
    "ladder": ladder_instance,
    "inter": interleaved_instance,
    "one": one_component_instance,
}


def test_uo_walk_draws_are_pinned():
    for (name, label), want in UO_WALK_PINS.items():
        db, sigma = UO_WALK_INSTANCES[name]()
        order = {f: i for i, f in enumerate(sorted(db.facts))}
        got = [
            " ".join(
                "-".join(str(order[f]) for f in sorted(op.removed))
                for op in sample_sequence_uo(db, sigma, RandomSource(seed), label == "uo1")
            )
            for seed in range(5)
        ]
        assert got == want, (name, label)
    # the shapes the pins stand for
    comps, runs = _space(*ladder_instance()).components()
    assert len(comps) == 6 and sum(c.n for c in comps) > 16
    comps, runs = _space(*interleaved_instance()).components()
    assert len(comps) == 4 and len(runs) > len(comps)  # components interleave
    comps, _ = _space(*one_component_instance()).components()
    assert [c.n for c in comps] == [7]


def test_uo_walk_memory_stays_bounded_on_a_25_block_ladder():
    db, sigma = ladder_instance(25, 3)
    tracemalloc.start()
    try:
        for seed in range(1000):
            sample_sequence_uo(db, sigma, RandomSource(seed))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


# Draws of the uniform-sequences sampler that weighed every candidate
# operation by recounting its profile, per (instance, generator) for
# RandomSource(0..4), in the notation of UO_WALK_PINS.
US_PINS = {
    ("ladder", "us"): [
        "17 23 10-11 7 5 2 21 19 16-18 15 4-6 0 14 22 9",
        "4 2 22 12 17 0-1 10-11 21 19 5-6 16 15 7-8 14 20-23",
        "2 22 15 12 9 7 19 13-14 20 23 4 1 16 17-18 5-6 10",
        "10 13 7 14 2 18 21 17 4 23 11 20 16-19 1 5 9",
        "7 19 14 10 12 9 6 1 13-15 3 17 5 21-23 16 22",
    ],
    ("ladder", "us1"): [
        "6 11 17 21 15 18 7 10 1 4 13 20 8 3 16 23",
        "13 0 23 18 10 22 7 5 12 8 21 14 4 3 16 17",
        "6 1 15 9 22 13 16 21 23 10 3 18 12 5 8 17",
        "16 14 9 13 3 0 10 17 21 20 5 23 19 11 7 6",
        "16 3 13 7 20 22 12 9 23 18 19 11 4 14 6 0",
    ],
    ("second", "us"): [
        "6 1-3 5 2 8 4",
        "6 4-9 0-8 2 3",
        "4-9 1 6 5 0 2",
        "5-8 1-3 0-2 4",
        "3 6 4 0 2-8",
    ],
    ("second", "us1"): [
        "6 4 2 3 0 5",
        "2 9 6 5 1 0",
        "0 6 8 4 1 2",
        "5 6 0 9 8 3",
        "6 8 0 5 1 9",
    ],
    ("two", "us"): [
        "4 2 9 8-10 5-6 0",
        "10 2 3 0-1 9 5",
        "9 0 1-2 6 4 8",
        "3-4 8-9 1 5-6 0",
        "1 0-2 10 8 5 4",
    ],
    ("two", "us1"): [
        "5 9 10 2 1 3",
        "9 6 0 2 4 8",
        "8 6 9 0 1 3",
        "8 0 3 10 6 2",
        "9 1 3 8 0 6",
    ],
}


def _us_ladder_instance():
    """Eight primary-key blocks of sizes 2, 2, 3, 3, 3, 3, 4, 4."""
    sizes = (2, 2, 3, 3, 3, 3, 4, 4)
    facts = [fact("R", f"k{b}", f"v{i}") for b, m in enumerate(sizes) for i in range(m)]
    return Database.of(LADDER_SCHEMA, facts), LADDER_KEY


def _us_two_relation_instance():
    """Primary keys on two relations: R blocks of sizes 3, 2; S of 2, 1, 3."""
    schema = Schema.of(R=("K", "V"), S=("K", "V"))
    sizes = {"R": (3, 2), "S": (2, 1, 3)}
    facts = [
        fact(rel, f"k{b}", f"v{i}")
        for rel, ms in sizes.items()
        for b, m in enumerate(ms)
        for i in range(m)
    ]
    return Database.of(schema, facts), frozenset(
        [FunctionalDependency.of(rel, ("K",), ("V",)) for rel in sizes]
    )


US_INSTANCES = {
    "ladder": _us_ladder_instance,
    "second": second_column_instance,
    "two": _us_two_relation_instance,
}


def test_us_draws_are_pinned():
    for (name, label), want in US_PINS.items():
        db, sigma = US_INSTANCES[name]()
        order = {f: i for i, f in enumerate(sorted(db.facts))}
        got = [
            " ".join(
                "-".join(str(order[f]) for f in sorted(op.removed))
                for op in sample_sequence_uniform(db, sigma, RandomSource(seed), label == "us1")
            )
            for seed in range(5)
        ]
        assert got == want, (name, label)
    # the blocks of the second-column key interleave in fact order
    db, _ = second_column_instance()
    keys = [f.values[1] for f in sorted(db.facts)]
    assert keys != sorted(keys)


# Draws of the uniform-repair sampler per (instance, generator) for
# RandomSource(0..4): the positions of the kept facts in the sorted facts.
UR_PINS = {
    ("ladder", "ur"): [
        "1 2 7 15 19 20",
        "0 2 7 15",
        "0 3 4 9 10 15 17 23",
        "4 9 12 17 21",
        "2 5 8 10 14 19 23",
    ],
    ("ladder", "ur1"): [
        "1 2 5 8 11 13 17 20",
        "0 3 5 7 12 13 16 22",
        "0 3 4 9 10 13 16 20",
        "0 3 5 7 10 15 18 22",
        "0 3 6 7 11 15 16 22",
    ],
    ("second", "ur"): ["0 1 7 9", "0 7 9", "3 4 7", "3 7 8 9", "3 5 7"],
    ("second", "ur1"): ["1 7 8 9", "1 5 7 9", "3 4 5 7", "4 5 6 7", "0 1 7 9"],
    ("two", "ur"): ["3 6 7 8", "2 3 6 7 8", "2 4 5 7 10", "2 6 7 10", "0 3 7 9"],
    ("two", "ur1"): ["1 3 6 7 9", "0 4 6 7 8", "0 4 5 7 10", "2 4 5 7 8", "2 4 6 7 8"],
    ("swapped", "ur"): ["0 3", "0 1", "1 2 4", "4", "0 5"],
    ("swapped", "ur1"): ["0 3 5", "1 2 5", "1 2 4", "1 2 5", "1 2 6"],
}
UR_INSTANCES = dict(US_INSTANCES, swapped=swapped_key_instance)


def test_ur_draws_are_pinned():
    for (name, label), want in UR_PINS.items():
        db, sigma = UR_INSTANCES[name]()
        order = {f: i for i, f in enumerate(sorted(db.facts))}
        got = [
            " ".join(
                str(order[f])
                for f in sorted(sample_repair_uniform(db, sigma, RandomSource(seed), label == "ur1"))
            )
            for seed in range(5)
        ]
        assert got == want, (name, label)
    # blocks are drawn by key, b0 first, though the first fact is in b1
    db, _ = swapped_key_instance()
    assert min(db.facts).values[1] == "b1"


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


def test_ur_us_samplers_reject_beyond_primary_keys():
    db, sigma = triple_instance()
    for singleton_only in (False, True):
        with pytest.raises(UnsupportedCombinationError):
            sample_repair_uniform(db, sigma, RandomSource(1), singleton_only)
        with pytest.raises(UnsupportedCombinationError):
            sample_sequence_uniform(db, sigma, RandomSource(1), singleton_only)


def test_ur_draws_on_a_large_block_list_no_pairs():
    # one block of 2,000 facts has about two million conflicting pairs;
    # the ur and us samplers read only the components, not even the
    # neighbour masks, m^2/8 bytes for a block of m facts
    m = 2000
    db = Database.of(Schema.of(R=("K", "V")), [fact("R", "k", f"v{i}") for i in range(m)])
    sigma = frozenset([FunctionalDependency.of("R", ("K",), ("V",))])
    for seed in range(3):
        for kind in (UR, UR1):
            assert len(sample_outcome(db, sigma, kind, RandomSource(seed)).repair.facts) <= 1
    space = _space(db, sigma)
    assert space.n == m and [c.n for c in space.components()[0]] == [m]
    assert "nbr" not in vars(space)
    assert all("nbr" not in vars(c) for c in space.components()[0])


def test_components_are_built_once_under_racing_threads():
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for make in (ladder_instance, interleaved_instance, second_column_instance):
            for _ in range(20):
                _check_racing_components(make)
    finally:
        sys.setswitchinterval(switch)


def _check_racing_components(make):
    want = _Space(*make()).components()
    space = _Space(*make())
    barrier = threading.Barrier(4, timeout=30)
    threads = [threading.Thread(target=lambda: (barrier.wait(), space.components())) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(space.component_of) == space.n
    comps, runs = space.components()
    assert runs == want[1]
    assert [c.facts for c in comps] == [c.facts for c in want[0]]
    assert [c.nbr for c in comps] == [c.nbr for c in want[0]]


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
