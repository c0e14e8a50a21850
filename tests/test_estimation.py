"""Estimator sample counts, lower bounds, fast paths, and guarantees."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from opcqa import (
    UO,
    UO1,
    UR,
    UR1,
    US,
    US1,
    Database,
    Estimate,
    EstimatorConfig,
    FunctionalDependency,
    RandomSource,
    Schema,
    SizeCapError,
    UnsupportedCombinationError,
    adaptive_success_quota,
    additive_sample_count,
    estimate_probability,
    exact_answer_probability,
    fact,
    lower_bound,
    multiplicative_sample_count,
)
from opcqa.estimation import E_OVER, _indicator_stream, _ScalarStream

from fixtures import (
    interleaved_instance,
    keyed_boolean_query,
    keyed_instance,
    keyed_query,
    ladder_instance,
    second_column_instance,
    swapped_key_instance,
    triple_instance,
)


# ---------------------------------------------------------------------------
# Configuration and closed-form sample counts
# ---------------------------------------------------------------------------


def test_config_normalization_and_validation():
    cfg = EstimatorConfig(epsilon=0.05, delta=0.05, mode="multiplicative")
    assert cfg.mode == "multiplicative_bound"
    assert cfg.epsilon == Fraction(1, 20)
    assert cfg.delta == Fraction(1, 20)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0, delta=0.05)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.1, delta=1)
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.1, delta=0.05, mode="exact")
    with pytest.raises(ValueError):
        EstimatorConfig(epsilon=0.1, delta=0.05, threads=0)


def test_estimate_type_validation():
    with pytest.raises(ValueError):
        Estimate(Fraction(3, 2), 10, "additive")
    e = Estimate(Fraction(1, 4), 100, "additive")
    assert e.float_value == 0.25
    assert not e.flagged_zero


def test_sample_count_formulas():
    assert additive_sample_count(Fraction(1, 10), Fraction(1, 20)) == 185
    assert additive_sample_count(Fraction(1, 20), Fraction(1, 20)) == 738
    assert (
        multiplicative_sample_count(Fraction(1, 20), Fraction(1, 20), Fraction(1, 12))
        == 53120
    )
    assert adaptive_success_quota(Fraction(1, 20), Fraction(1, 20)) == 4241
    # shrinking the error budget can only increase the sample bill
    assert additive_sample_count(Fraction(1, 20), Fraction(1, 100)) > 738
    assert multiplicative_sample_count(
        Fraction(1, 20), Fraction(1, 20), Fraction(1, 24)
    ) > 53120


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def test_lower_bounds_on_primary_key_instance():
    db, sigma = keyed_instance()
    q = keyed_boolean_query()
    assert lower_bound(UR, db, sigma, q) == Fraction(1, 12)
    assert lower_bound(US, db, sigma, q) == Fraction(1, 12)
    assert lower_bound(UR1, db, sigma, q) == Fraction(1, 6)
    assert lower_bound(US1, db, sigma, q) == Fraction(1, 6)
    assert lower_bound(UO1, db, sigma, q) == 1 / (E_OVER * 6)
    pol_bound = lower_bound(UO, db, sigma, q)
    assert pol_bound is not None and 0 < pol_bound < Fraction(1, 10**16)
    assert len(str(pol_bound.denominator)) == 157
    assert float(pol_bound) == 1.67596391301672e-17


def test_lower_bounds_beyond_primary_keys():
    db, sigma = triple_instance()  # FDs that are not keys
    q = keyed_boolean_query()
    assert lower_bound(UR, db, sigma, q) is None
    assert lower_bound(US, db, sigma, q) is None
    assert lower_bound(UO, db, sigma, q) is None
    assert lower_bound(UO1, db, sigma, q) == 1 / (E_OVER * 3)


def test_lower_bound_scales_with_query_size():
    from opcqa import Atom, ConjunctiveQuery, Variable

    db, sigma = keyed_instance()
    x, y = Variable("x"), Variable("y")
    two_atoms = ConjunctiveQuery(
        atoms=(
            Atom("R", (x, y)),
            Atom("R", (y, x)),
        )
    )
    assert lower_bound(UR, db, sigma, two_atoms) == Fraction(1, 144)
    assert lower_bound(UR1, db, sigma, two_atoms) == Fraction(1, 36)


def test_lower_bound_is_sound_where_checkable():
    db, sigma = keyed_instance()
    q = keyed_query()
    for kind in (UR, US, UR1, US1, UO1, UO):
        bound = lower_bound(kind, db, sigma, q)
        assert bound is not None
        p = exact_answer_probability(db, sigma, kind, q, ("b1",))
        assert p == 0 or p >= bound


# ---------------------------------------------------------------------------
# Estimators on the worked example (exact answer 1/4 for b1 under ur)
# ---------------------------------------------------------------------------


def test_additive_estimate_hits_its_error_budget():
    db, sigma = keyed_instance()
    cfg = EstimatorConfig(epsilon=0.1, delta=0.05, mode="additive")
    est = estimate_probability(
        db, sigma, UR, keyed_query(), ("b1",), cfg, RandomSource(7)
    )
    assert est.samples_used == 185
    assert est.mode == "additive"
    assert abs(est.value - Fraction(1, 4)) <= Fraction(1, 10)
    rerun = estimate_probability(
        db, sigma, UR, keyed_query(), ("b1",), cfg, RandomSource(7)
    )
    assert rerun.value == est.value


def test_estimators_start_at_the_stream_index():
    """Trial t of an estimate seeded with (s, k) draws stream (s, k + t)."""
    db, sigma = keyed_instance()
    q = keyed_query()
    cfg = EstimatorConfig(epsilon=0.1, delta=0.05, mode="additive")
    est = estimate_probability(db, sigma, UR, q, ("b1",), cfg, RandomSource(7, 3))
    want = _ScalarStream(db, frozenset(sigma), UR, q, ("b1",)).batch(7, 3, est.samples_used)
    assert est.value == Fraction(int(want.sum()), est.samples_used)
    assert est != estimate_probability(db, sigma, UR, q, ("b1",), cfg, RandomSource(7, 0))
    cfg = EstimatorConfig(epsilon=0.2, delta=0.1, mode="adaptive")
    est = estimate_probability(db, sigma, UR, q, ("b1",), cfg, RandomSource(7, 3))
    want = _ScalarStream(db, frozenset(sigma), UR, q, ("b1",)).batch(7, 3, est.samples_used)
    quota = adaptive_success_quota(cfg.epsilon, cfg.delta)
    assert int(want.sum()) == quota and want[-1] == 1


def test_certain_answers_hold_on_every_stream():
    """R(a2, b1) is the lone fact of a size-1 block: its only witness
    lies outside every conflict, so every repair keeps it."""
    from opcqa import Atom, ConjunctiveQuery, Constant

    db, sigma = keyed_instance()
    q = ConjunctiveQuery((Atom("R", (Constant("a2"), Constant("b1"))),))
    for kind in (UR, UR1, UO, UO1):
        fast = _indicator_stream(db, frozenset(sigma), kind, q, ())
        assert not isinstance(fast, _ScalarStream), kind.label
        got = fast.batch(11, 2, 300)
        assert got.tolist() == [1] * 300, kind.label
        want = _ScalarStream(db, frozenset(sigma), kind, q, ()).batch(11, 2, 300)
        assert np.array_equal(got, want), kind.label
        for mode in ("additive", "adaptive"):
            cfg = EstimatorConfig(epsilon=0.1, delta=0.05, mode=mode)
            assert estimate_probability(db, sigma, kind, q, (), cfg).value == 1, (kind, mode)


def test_multiplicative_estimate_frozen_seed_one():
    db, sigma = keyed_instance()
    cfg = EstimatorConfig(epsilon=0.05, delta=0.05, mode="multiplicative_bound")
    est = estimate_probability(
        db, sigma, UR, keyed_query(), ("b1",), cfg, RandomSource(1)
    )
    assert est.samples_used == 53120
    assert est.lower_bound_used == Fraction(1, 12)
    assert est.value == Fraction(13287, 53120)
    assert Fraction(19, 80) <= est.value <= Fraction(21, 80)
    assert not est.flagged_zero


def test_adaptive_estimate_on_worked_example():
    db, sigma = keyed_instance()
    cfg = EstimatorConfig(epsilon=0.05, delta=0.05, mode="adaptive")
    est = estimate_probability(
        db, sigma, UR, keyed_query(), ("b1",), cfg, RandomSource(3)
    )
    assert est.mode == "adaptive"
    assert not est.flagged_zero
    # the stopping rule fixes value = quota / samples_used
    assert est.value == Fraction(4241, est.samples_used)
    assert abs(est.value - Fraction(1, 4)) <= Fraction(1, 4) * Fraction(1, 20)


# samples_used of the adaptive estimator for seeds 0..4 at eps 1/5 and
# delta 1/10, as drawn with a fixed first batch of 4,096 trials: the
# stopping trial is a function of the seed, not of the batch sizes.
ADAPTIVE_PINNED = {
    "us": [894, 918, 878, 864, 896],  # scalar stream: no vector path for us
    "ur": [917, 919, 980, 836, 938],  # vector stream: block draws
}


@pytest.mark.parametrize("label", ["us", "ur"])
def test_adaptive_first_batch_keeps_estimates(label):
    db, sigma = keyed_instance()
    kind, q, c = {
        "us": (US, keyed_boolean_query(), ()),
        "ur": (UR, keyed_query(), ("b2",)),
    }[label]
    cfg = EstimatorConfig(epsilon=Fraction(1, 5), delta=Fraction(1, 10), mode="adaptive")
    quota = adaptive_success_quota(cfg.epsilon, cfg.delta)
    assert quota == 217
    stream = _indicator_stream(db, frozenset(sigma), kind, q, c)
    assert isinstance(stream, _ScalarStream) == (label == "us")
    for seed, used in enumerate(ADAPTIVE_PINNED[label]):
        est = estimate_probability(db, sigma, kind, q, c, cfg, RandomSource(seed))
        assert (est.value, est.samples_used) == (Fraction(quota, used), used)
        # the quota-th success of one unbatched run of the stream
        trials = stream.batch(seed, 0, used)
        assert trials.sum() == quota and trials[-1] == 1


def test_adaptive_cap_yields_flagged_mean():
    db, sigma = keyed_instance()
    cfg = EstimatorConfig(
        epsilon=0.05, delta=0.05, mode="adaptive", max_samples=1000
    )
    est = estimate_probability(
        db, sigma, UR, keyed_query(), ("b1",), cfg, RandomSource(3)
    )
    assert est.flagged_zero
    assert est.samples_used == 1000
    assert 0 < est.value < 1


def test_multiplicative_zero_target_is_flagged():
    from opcqa import Atom, ConjunctiveQuery, Constant

    db, sigma = keyed_instance()
    impossible = ConjunctiveQuery(
        atoms=(Atom("R", (Constant("zz"), Constant("zz"))),)
    )
    cfg = EstimatorConfig(
        epsilon=0.2, delta=0.2, mode="multiplicative_bound", max_samples=10**7
    )
    est = estimate_probability(
        db, sigma, UR, impossible, (), cfg, RandomSource(5)
    )
    assert est.value == 0
    assert est.flagged_zero


def test_mode_errors():
    db, sigma = keyed_instance()
    q = keyed_boolean_query()
    tiny = EstimatorConfig(epsilon=0.05, delta=0.05, mode="additive", max_samples=10)
    with pytest.raises(SizeCapError):
        estimate_probability(db, sigma, UR, q, (), tiny, RandomSource(0))
    # pair uniform-operations only has the astronomically small bound
    cfg = EstimatorConfig(epsilon=0.05, delta=0.05, mode="multiplicative_bound")
    with pytest.raises(SizeCapError) as exc_info:
        estimate_probability(db, sigma, UO, q, (), cfg, RandomSource(0))
    assert "adaptive" in str(exc_info.value)
    # beyond keys there is no bound at all
    wide_db, wide_sigma = triple_instance()
    with pytest.raises(UnsupportedCombinationError):
        estimate_probability(wide_db, wide_sigma, UO, q, (), cfg, RandomSource(0))
    # no uniform-repair sampler exists beyond primary keys
    loose = EstimatorConfig(epsilon=0.2, delta=0.2, mode="additive")
    with pytest.raises(UnsupportedCombinationError):
        estimate_probability(wide_db, wide_sigma, UR, q, (), loose, RandomSource(0))


def test_estimate_probability_routes_by_mode():
    db, sigma = keyed_instance()
    q = keyed_query()
    for mode, expected in (
        ("additive", "additive"),
        ("multiplicative", "multiplicative_bound"),
        ("adaptive", "adaptive"),
    ):
        cfg = EstimatorConfig(epsilon=0.1, delta=0.1, mode=mode)
        est = estimate_probability(db, sigma, UR, q, ("b1",), cfg, RandomSource(11))
        assert est.mode == expected


# ---------------------------------------------------------------------------
# Fast paths: bit-identical to the scalar sampler, thread invariant
# ---------------------------------------------------------------------------


def test_vectorized_streams_match_scalar_reference():
    from opcqa import Atom, ConjunctiveQuery, Constant, Variable

    keyed_db, keyed_sigma = keyed_instance()
    wide_db, wide_sigma = triple_instance()
    wide_q = ConjunctiveQuery(
        atoms=(Atom("R", (Constant("a1"), Constant("b1"), Constant("c1"))),)
    )
    # over 16 conflict facts in components of 3, and components whose
    # facts interleave: a witness per component and one across two
    ladder_db, ladder_sigma = ladder_instance()
    ladder_q = ConjunctiveQuery(
        (Atom("R", (Constant("k1"), Variable("x"))),), (Variable("x"),)
    )
    inter_db, inter_sigma = interleaved_instance()
    inter_q = ConjunctiveQuery(
        atoms=(
            Atom("R", (Constant("a1"), Variable("y"), Variable("z"))),
            Atom("R", (Constant("a2"), Variable("y"), Variable("w"))),
        )
    )
    # block-choice products of 4^40 and 3^40, both beyond 2^63
    big_db, big_sigma = ladder_instance(40, 3)
    big_q = ConjunctiveQuery(
        (
            Atom("R", (Constant("k3"), Variable("x"))),
            Atom("R", (Constant("k30"), Variable("x"))),
        ),
        (Variable("x"),),
    )
    # keys in the second column: blocks drawn in key order, not fact order
    second_db, second_sigma = second_column_instance()
    second_q = ConjunctiveQuery(
        (
            Atom("R", (Variable("x"), Constant("b0"), Variable("z"))),
            Atom("R", (Variable("x"), Constant("b1"), Variable("w"))),
        ),
        (Variable("x"),),
    )
    swapped_db, swapped_sigma = swapped_key_instance()
    swapped_q = ConjunctiveQuery(
        (Atom("R", (Variable("x"), Constant("b0"))), Atom("R", (Variable("x"), Constant("b2")))),
        (Variable("x"),),
    )
    vectorized = [
        (big_db, big_sigma, UR, big_q, ("v1",)),
        (big_db, big_sigma, UR1, ladder_q, ("v2",)),
        (second_db, second_sigma, UR, second_q, ("a1",)),
        (second_db, second_sigma, UR1, second_q, ("a2",)),
        (swapped_db, swapped_sigma, UR, swapped_q, ("a2",)),
        (swapped_db, swapped_sigma, UR1, swapped_q, ("a2",)),
        (ladder_db, ladder_sigma, UO, ladder_q, ("v0",)),
        (ladder_db, ladder_sigma, UO1, ladder_q, ("v2",)),
        (inter_db, inter_sigma, UO, inter_q, ()),
        (inter_db, inter_sigma, UO1, inter_q, ()),
    ]
    cases = [
        (keyed_db, keyed_sigma, UR, keyed_query(), ("b1",)),
        (keyed_db, keyed_sigma, UR1, keyed_query(), ("b1",)),
        (keyed_db, keyed_sigma, UO, keyed_boolean_query(), ()),
        (keyed_db, keyed_sigma, UO1, keyed_boolean_query(), ()),
        (wide_db, wide_sigma, UO, wide_q, ()),
        (wide_db, wide_sigma, UO1, wide_q, ()),
    ] + vectorized
    for db, sigma, kind, q, answer in cases:
        fast = _indicator_stream(db, frozenset(sigma), kind, q, answer)
        slow = _ScalarStream(db, frozenset(sigma), kind, q, answer)
        if (db, kind) in [(case[0], case[2]) for case in vectorized]:
            assert not isinstance(fast, _ScalarStream), kind.label
        if isinstance(fast, _ScalarStream):
            continue  # nothing vectorized for this shape
        got = fast.batch(97, 10, 400)
        want = slow.batch(97, 10, 400)
        assert np.array_equal(got, want), kind.label


def test_vector_streams_redraw_like_the_scalar_reference(monkeypatch):
    from opcqa import Atom, ConjunctiveQuery, Constant, Variable, sampling

    # every output among the top 64 values, so a bound n (kept below 64, or
    # the walk never ends) is redrawn with odds (2^64 mod n) / 64
    top = 0xFFFF_FFFF_FFFF_FFC0
    mix, mix_array = sampling.mix64, sampling._mix64_array
    monkeypatch.setattr(sampling, "mix64", lambda x: mix(x) | top)
    monkeypatch.setattr(sampling, "_mix64_array", lambda x: mix_array(x) | np.uint64(top))
    ladder_db, ladder_sigma = ladder_instance()
    ladder_q = ConjunctiveQuery(
        (Atom("R", (Constant("k1"), Variable("x"))),), (Variable("x"),)
    )
    keyed_db, keyed_sigma = keyed_instance()
    for db, sigma, q, answer in (
        (ladder_db, ladder_sigma, ladder_q, ("v0",)),
        (keyed_db, keyed_sigma, keyed_query(), ("b1",)),
    ):
        for kind in (UR, UR1, UO, UO1):
            fast = _indicator_stream(db, frozenset(sigma), kind, q, answer)
            assert not isinstance(fast, _ScalarStream), kind.label
            want = _ScalarStream(db, frozenset(sigma), kind, q, answer).batch(97, 10, 400)
            assert np.array_equal(fast.batch(97, 10, 400), want), kind.label


def test_uo_stream_routing_by_component_size():
    from opcqa import Atom, ConjunctiveQuery, Constant, Database, fact
    from opcqa.estimation import _UoWalkStream

    from fixtures import LADDER_KEY, LADDER_SCHEMA

    def ladder(*sizes):
        facts = [fact("R", f"k{b}", f"v{i}") for b, m in enumerate(sizes) for i in range(m)]
        return Database.of(LADDER_SCHEMA, facts)

    q = ConjunctiveQuery((Atom("R", (Constant("k0"), Constant("v0"))),))
    # up to 16 conflict facts the stream runs whatever the components
    stream = _indicator_stream(ladder(12, 2, 2), LADDER_KEY, UO, q, ())
    assert isinstance(stream, _UoWalkStream)
    # beyond 16, only when no component has over 10 facts
    stream = _indicator_stream(ladder(11, 2, 2, 2), LADDER_KEY, UO, q, ())
    assert isinstance(stream, _ScalarStream)
    db = ladder(10, 10)
    stream = _indicator_stream(db, LADDER_KEY, UO, q, ())
    assert isinstance(stream, _UoWalkStream)
    want = _ScalarStream(db, LADDER_KEY, UO, q, ()).batch(5, 0, 300)
    assert np.array_equal(stream.batch(5, 0, 300), want)


def test_vector_walk_slices_lanes_without_changing_draws(monkeypatch):
    from opcqa import Atom, ConjunctiveQuery, Constant, Variable, estimation

    db, sigma = ladder_instance()
    q = ConjunctiveQuery((Atom("R", (Constant("k2"), Variable("x"))),), (Variable("x"),))
    stream = _indicator_stream(db, frozenset(sigma), UO1, q, ("v1",))
    whole = stream.batch(3, 5, 200)
    monkeypatch.setattr(estimation, "_LANE_CELLS", 40)  # 6 runs: 6 lanes a slice
    assert np.array_equal(stream.batch(3, 5, 200), whole)
    want = _ScalarStream(db, frozenset(sigma), UO1, q, ("v1",)).batch(3, 5, 200)
    assert np.array_equal(whole, want)


def test_stream_indicators_match_entailment_per_draw():
    from opcqa import entails, sample_outcome

    db, sigma = keyed_instance()
    cases = [(UR, keyed_query(), ("b1",)), (UO, keyed_query(), ("b2",)),
             (US1, keyed_boolean_query(), ()), (UO1, keyed_query(), ("b9",))]
    for kind, q, answer in cases:
        got = _indicator_stream(db, frozenset(sigma), kind, q, answer).batch(5, 0, 300)
        want = [
            entails(sample_outcome(db, sigma, kind, RandomSource(5, t)).repair, q, answer)
            for t in range(300)
        ]
        assert got.tolist() == want, kind.label


def test_thread_count_does_not_change_results(monkeypatch):
    from opcqa import estimation

    db, sigma = keyed_instance()
    q = keyed_query()
    single = EstimatorConfig(epsilon=0.05, delta=0.05, mode="additive", threads=1)
    multi = EstimatorConfig(epsilon=0.05, delta=0.05, mode="additive", threads=4)
    a = estimate_probability(db, sigma, UR, q, ("b1",), single, RandomSource(21))
    b = estimate_probability(db, sigma, UR, q, ("b1",), multi, RandomSource(21))
    assert a.value == b.value and a.samples_used == b.samples_used
    # in chunks of 50 trials every run spans many chunks, adaptive batches too
    plans = [(kind, mode) for kind in (UR, UO, US) for mode in ("additive", "adaptive")]

    def estimate(kind, mode, threads):
        cfg = EstimatorConfig(epsilon=0.1, delta=0.05, mode=mode, threads=threads)
        return estimate_probability(db, sigma, kind, q, ("b1",), cfg, RandomSource(8))

    want = [estimate(kind, mode, 1) for kind, mode in plans]
    monkeypatch.setattr(estimation, "_CHUNK", 50)
    for threads in (1, 3):
        assert [estimate(kind, mode, threads) for kind, mode in plans] == want, threads


def test_thread_count_does_not_change_us_results_on_a_fresh_instance():
    # the threads build the instance's cached conflict view themselves
    rows = [("a1", "b1"), ("a1", "b2"), ("a1", "b3"), ("a2", "b1"), ("a2", "b4"), ("a5", "b5")]
    db = Database.of(Schema.of(R=("A1", "A2")), [fact("R", *row) for row in rows])
    sigma = frozenset([FunctionalDependency.of("R", ("A1",), ("A2",))])
    multi = EstimatorConfig(epsilon=0.05, delta=0.05, mode="additive", threads=4)
    single = EstimatorConfig(epsilon=0.05, delta=0.05, mode="additive", threads=1)
    b = estimate_probability(db, sigma, US, keyed_query(), ("b1",), multi, RandomSource(21))
    a = estimate_probability(db, sigma, US, keyed_query(), ("b1",), single, RandomSource(21))
    assert a.value == b.value and a.samples_used == b.samples_used


def test_us_estimates_work_without_fast_path():
    db, sigma = keyed_instance()
    cfg = EstimatorConfig(epsilon=0.15, delta=0.1, mode="additive")
    est = estimate_probability(
        db, sigma, US, keyed_query(), ("b1",), cfg, RandomSource(13)
    )
    assert abs(est.value - Fraction(8, 33)) <= Fraction(15, 100)
