"""Monte-Carlo estimators for operational answer probabilities.

Three modes:

* additive: fixed N from the Hoeffding bound, absolute error eps.
* multiplicative_bound: fixed N from a Chernoff-style bound seeded with a
  proven lower bound on the target; relative error eps.
* adaptive: sequential stopping rule (run until a fixed success quota),
  relative error eps with no prior bound needed.

Every estimate is a pure function of (instance, query, config, master
seed): trial t consumes RandomSource stream (seed, base + t) and nothing
else, so thread counts and batch sizes cannot change the result.

Hot loops run on a numpy fast path when the instance shape allows
(uniform-operations walks over at most 16 conflict-involved facts, or
uniform-repair draws under primary keys). The fast paths replicate the
scalar RNG bit for bit; tests assert equality against the pure-Python
sampler.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import SizeCapError, UnsupportedCombinationError
from .queries import ConjunctiveQuery, mask_entails, witness_masks, witnesses
from .relational import Database, FunctionalDependency, is_keys, is_primary_keys
from .repairs import DEFAULT_TREE_CAP, GeneratorKind, _space
from .sampling import (
    GOLDEN,
    STREAM,
    RandomSource,
    _key_blocks,
    _require_sampler,
    sample_outcome,
)

__all__ = [
    "E_OVER",
    "EstimatorConfig",
    "Estimate",
    "lower_bound",
    "additive_sample_count",
    "multiplicative_sample_count",
    "adaptive_success_quota",
    "estimate_additive",
    "estimate_multiplicative",
    "estimate_adaptive",
    "estimate_probability",
]

# Rational over-approximation of Euler's number, accurate to 1e-15. Using
# a slight over-estimate everywhere a bound divides by e keeps every
# returned bound valid (smaller than the true one).
E_OVER = Fraction(2_718_281_828_459_046, 10**15)

MODES = ("additive", "multiplicative_bound", "adaptive")

_M64 = (1 << 64) - 1


def _as_rational(x) -> Fraction:
    # floats go through repr so 0.05 means 1/20, not its binary neighbour
    if isinstance(x, float):
        return Fraction(repr(x))
    return Fraction(x)


@dataclass(frozen=True)
class EstimatorConfig:
    """Error targets and resource limits for one estimation run."""

    epsilon: Fraction
    delta: Fraction
    mode: str = "adaptive"
    max_samples: int = 10_000_000
    threads: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _as_rational(self.epsilon))
        object.__setattr__(self, "delta", _as_rational(self.delta))
        mode = "multiplicative_bound" if self.mode == "multiplicative" else self.mode
        object.__setattr__(self, "mode", mode)
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.max_samples < 1:
            raise ValueError("max_samples must be positive")
        if self.threads < 1:
            raise ValueError("threads must be positive")


@dataclass(frozen=True)
class Estimate:
    """Estimator result. flagged_zero marks the two outcomes that carry
    no relative guarantee: an all-zero multiplicative run, or an adaptive
    run cut off by max_samples before reaching its success quota."""

    value: Fraction
    samples_used: int
    mode: str
    lower_bound_used: Fraction | None = None
    flagged_zero: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 1:
            raise ValueError("estimate out of [0, 1]")

    @property
    def float_value(self) -> float:
        return float(self.value)


# ---------------------------------------------------------------------------
# Lower bounds on positive targets
# ---------------------------------------------------------------------------


def lower_bound(
    kind: GeneratorKind,
    db: Database,
    sigma: Sequence[FunctionalDependency] | frozenset[FunctionalDependency],
    q: ConjunctiveQuery,
) -> Fraction | None:
    """Proven lower bound on the answer probability whenever it is
    positive, or None when no bound covers the combination.

    Covered cases: uniform-repair and uniform-sequence families under
    primary keys (pair form 1/(2|D|)^|Q|, singleton form 1/|D|^|Q|);
    singleton uniform-operations under arbitrary FDs (1/(e|D|)^|Q|, with
    e rounded up); pair uniform-operations under key constraints (the
    reference polynomial bound, astronomically small but representable).
    """
    sigma = frozenset(sigma)
    d = db.fact_count
    k = q.atom_count()
    if d == 0:
        return None
    if kind.family in ("ur", "us"):
        if not is_primary_keys(sigma, db.schema):
            return None
        if kind.singleton_only:
            return Fraction(1, d**k)
        return Fraction(1, (2 * d) ** k)
    if kind.singleton_only:
        return 1 / (E_OVER * d) ** k
    if not is_keys(sigma, db.schema):
        return None
    return 1 / _uo_keys_polynomial(db, sigma, q)


def _uo_keys_polynomial(
    db: Database, sigma: frozenset[FunctionalDependency], q: ConjunctiveQuery
) -> Fraction:
    """Reference polynomial for the pair uniform-operations bound under
    keys. Numerically representable, practically unusable as a sample
    budget; adaptive mode is the intended route."""
    d = db.fact_count
    k = q.atom_count()
    qs = k * len(sigma)
    size = db.encoded_size
    root = math.isqrt(size)
    if root * root < size:
        root += 1
    outer = (
        Fraction(math.factorial((qs + k + 1) ** 2))
        * E_OVER ** (5 * qs)
        * Fraction(root + 5 * qs) ** (5 * qs)
    )
    inner = (
        (E_OVER * k) ** (k + 2)
        * (E_OVER * (d + k - 1)) ** k
        * (E_OVER * (d - 1)) ** k
    )
    return 1 + outer * inner


# ---------------------------------------------------------------------------
# Sample-count formulas
# ---------------------------------------------------------------------------


def additive_sample_count(epsilon: Fraction, delta: Fraction) -> int:
    """Hoeffding: N = ceil(ln(2/delta) / (2 eps^2))."""
    log_term = Fraction(math.log(2 / float(delta)))
    return math.ceil(log_term / (2 * epsilon * epsilon))


def multiplicative_sample_count(epsilon: Fraction, delta: Fraction, bound: Fraction) -> int:
    """Chernoff-style: N = ceil(3 ln(2/delta) / (eps^2 L)). Exact rational
    arithmetic after the log, so astronomically small L still yields the
    correct (astronomically large) integer."""
    if bound <= 0:
        raise ValueError("lower bound must be positive")
    log_term = Fraction(3 * math.log(2 / float(delta)))
    return math.ceil(log_term / (epsilon * epsilon * bound))


def adaptive_success_quota(epsilon: Fraction, delta: Fraction) -> int:
    """Stopping-rule quota: ceil(1 + 4(e-2) ln(2/delta) / eps^2)."""
    log_term = Fraction(4 * (math.e - 2) * math.log(2 / float(delta)))
    return math.ceil(1 + log_term / (epsilon * epsilon))


# ---------------------------------------------------------------------------
# Indicator streams
# ---------------------------------------------------------------------------
#
# An indicator stream turns trial indices into 0/1 outcomes: trial t
# draws from RandomSource(seed, base + t) and reports whether the sampled
# repair entails the answer. The scalar stream is the reference; the
# vector streams reproduce its draws exactly (same SplitMix64 outputs,
# same rejection rule, same consumption order). Every stream evaluates
# the query once, on the full database, and tests a repair by whether it
# keeps one of the answer's witnesses.

_CHUNK = 1 << 16
_VECTOR_MASK_LIMIT = 16


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def _stream_bases(seed: int, base: int, count: int) -> np.ndarray:
    streams = np.uint64(base & _M64) + np.arange(count, dtype=np.uint64)
    return _mix64_array(np.uint64(seed & _M64) + np.uint64(STREAM) * streams)


class _ScalarStream:
    """Reference implementation: one pure-Python sampler call per trial."""

    def __init__(self, db, sigma, kind, q, answer):
        self._args = (db, sigma, kind)
        self._witnesses = witnesses(q, db, answer).get(answer, ())

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        db, sigma, kind = self._args
        out = np.empty(count, dtype=np.uint8)
        for t in range(count):
            rng = RandomSource(seed, base + t)
            kept = sample_outcome(db, sigma, kind, rng).repair.facts
            out[t] = any(w <= kept for w in self._witnesses)
        return out


class _UoWalkStream:
    """Vectorized uniform-operations walk over the subset DAG.

    States are positions in the mode's cached residual DAG; each lane
    walks root to leaf drawing ops with the exact 64-bit rejection rule
    of RandomSource.randbelow. Usable whenever at most 16 facts take
    part in conflicts."""

    def __init__(self, db, sigma, kind, q, answer):
        space = _space(db, frozenset(sigma))
        dag = space.dag(kind.singleton_only, DEFAULT_TREE_CAP)
        witness = space.answer_masks(q, answer).get(answer, ())
        starts = np.asarray(dag.starts, dtype=np.int64)
        self._root = dag.root
        self._counts = np.diff(starts)
        self._offsets = starts[:-1]
        self._children = np.asarray(dag.kids, dtype=np.int64)
        self._indicator = np.zeros(len(dag.masks), dtype=np.uint8)
        for i in dag.leaf_positions():
            self._indicator[i] = mask_entails(witness, dag.masks[i])
        max_ops = int(self._counts.max(initial=0))
        rems = [(1 << 64) % c if c else 0 for c in range(max_ops + 1)]
        self._limit = np.asarray(
            [((1 << 64) - r) & _M64 for r in rems], dtype=np.uint64
        )
        self._accept_all = np.asarray([r == 0 for r in rems], dtype=bool)

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        bases = _stream_bases(seed, base, count)
        ids = np.full(count, self._root, dtype=np.int64)
        drawn = np.zeros(count, dtype=np.uint64)
        while True:
            counts = self._counts[ids]
            active = np.nonzero(counts > 0)[0]
            if active.size == 0:
                break
            bounds = counts[active]
            choice = np.empty(active.size, dtype=np.int64)
            pending = np.arange(active.size)
            while pending.size:
                lanes = active[pending]
                drawn[lanes] += np.uint64(1)
                u = _mix64_array(bases[lanes] + drawn[lanes] * np.uint64(GOLDEN))
                b = bounds[pending]
                ok = self._accept_all[b] | (u < self._limit[b])
                sel = (u % b.astype(np.uint64)).astype(np.int64)
                choice[pending[ok]] = sel[ok]
                pending = pending[~ok]
            ids[active] = self._children[self._offsets[ids[active]] + choice]
        return self._indicator[ids]


class _UrBlockStream:
    """Vectorized uniform-repair draws under primary keys: one categorical
    draw per conflicting block per lane, entailment memoized over the
    (small) space of block-choice combinations. Block facts get one bit
    each, in block order; facts outside the blocks are always kept."""

    def __init__(self, db, sigma, kind, q, answer):
        nontrivial, _ = _key_blocks(db, frozenset(sigma))
        self._draws = [
            len(facts) if kind.singleton_only else len(facts) + 1
            for facts in nontrivial
        ]
        product = 1
        for n in self._draws:
            product *= n
        if product > 1 << 63:
            raise OverflowError("block-choice key exceeds 64 bits")
        bit = {f: 1 << i for i, f in enumerate(f for facts in nontrivial for f in facts)}
        self._bits = [[bit[f] for f in facts] for facts in nontrivial]
        self._witness = witness_masks(witnesses(q, db, answer).get(answer, ()), bit)
        self._memo: dict[int, int] = {}

    def _indicator_of(self, key: int) -> int:
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        kept = 0
        rest = key
        for bits, n in zip(reversed(self._bits), reversed(self._draws)):
            rest, choice = divmod(rest, n)
            if choice < len(bits):
                kept |= bits[choice]
        value = int(mask_entails(self._witness, kept))
        self._memo[key] = value
        return value

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        bases = _stream_bases(seed, base, count)
        drawn = np.zeros(count, dtype=np.uint64)
        keys = np.zeros(count, dtype=np.uint64)
        for n in self._draws:
            drawn += np.uint64(1)
            u = _mix64_array(bases + drawn * np.uint64(GOLDEN))
            rem = (1 << 64) % n
            if rem:
                limit = np.uint64((1 << 64) - rem)
                pending = np.nonzero(u >= limit)[0]
                while pending.size:
                    drawn[pending] += np.uint64(1)
                    redraw = _mix64_array(
                        bases[pending] + drawn[pending] * np.uint64(GOLDEN)
                    )
                    u[pending] = redraw
                    pending = pending[redraw >= limit]
            keys = keys * np.uint64(n) + u % np.uint64(n)
        uniques, inverse = np.unique(keys, return_inverse=True)
        table = np.asarray(
            [self._indicator_of(int(key)) for key in uniques], dtype=np.uint8
        )
        return table[inverse]


def _indicator_stream(db, sigma, kind, q, answer):
    sigma = frozenset(sigma)
    answer = tuple(answer)
    _require_sampler(db, sigma, kind)
    if kind.family == "uo" and _space(db, sigma).n <= _VECTOR_MASK_LIMIT:
        return _UoWalkStream(db, sigma, kind, q, answer)
    if kind.family == "ur":
        try:
            return _UrBlockStream(db, sigma, kind, q, answer)
        except OverflowError:
            pass
    return _ScalarStream(db, sigma, kind, q, answer)


def _run_chunks(stream, seed: int, total: int, threads: int):
    """Yield (start, indicator array) per chunk, in order."""
    starts = range(0, total, _CHUNK)
    sizes = [min(_CHUNK, total - s) for s in starts]
    if threads <= 1:
        for start, size in zip(starts, sizes):
            yield start, stream.batch(seed, start, size)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = pool.map(lambda sc: stream.batch(seed, sc[0], sc[1]), zip(starts, sizes))
        yield from zip(starts, results)


def _count_successes(stream, seed: int, total: int, threads: int) -> int:
    return sum(int(arr.sum()) for _, arr in _run_chunks(stream, seed, total, threads))


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def estimate_additive(
    db: Database,
    sigma,
    kind: GeneratorKind,
    q: ConjunctiveQuery,
    c: tuple = (),
    config: EstimatorConfig = EstimatorConfig(Fraction(1, 10), Fraction(1, 20)),
    rng: RandomSource | None = None,
) -> Estimate:
    """Sample mean with absolute-error guarantee eps at confidence 1-delta."""
    rng = rng if rng is not None else RandomSource(0)
    n = additive_sample_count(config.epsilon, config.delta)
    if n > config.max_samples:
        raise SizeCapError(
            f"additive mode needs {n} samples, over the cap {config.max_samples}"
        )
    stream = _indicator_stream(db, sigma, kind, q, c)
    hits = _count_successes(stream, rng.seed, n, config.threads)
    return Estimate(Fraction(hits, n), n, "additive")


def estimate_multiplicative(
    db: Database,
    sigma,
    kind: GeneratorKind,
    q: ConjunctiveQuery,
    c: tuple = (),
    config: EstimatorConfig = EstimatorConfig(Fraction(1, 20), Fraction(1, 20)),
    rng: RandomSource | None = None,
) -> Estimate:
    """Relative-error estimate budgeted by a proven lower bound.

    All-zero runs return 0 with flagged_zero set: correct whenever the
    target is exactly 0, and the one documented gap in the relative
    guarantee (targets strictly between 0 and the bound).
    """
    rng = rng if rng is not None else RandomSource(0)
    bound = lower_bound(kind, db, sigma, q)
    if bound is None:
        raise UnsupportedCombinationError(
            f"no lower bound for {kind.label} on this constraint class; "
            "use additive or adaptive mode"
        )
    n = multiplicative_sample_count(config.epsilon, config.delta, bound)
    if n > config.max_samples:
        raise SizeCapError(
            f"multiplicative mode needs {n} samples, over the cap "
            f"{config.max_samples}; adaptive mode avoids the prior bound"
        )
    stream = _indicator_stream(db, sigma, kind, q, c)
    hits = _count_successes(stream, rng.seed, n, config.threads)
    return Estimate(
        Fraction(hits, n), n, "multiplicative_bound", bound, flagged_zero=hits == 0
    )


def estimate_adaptive(
    db: Database,
    sigma,
    kind: GeneratorKind,
    q: ConjunctiveQuery,
    c: tuple = (),
    config: EstimatorConfig = EstimatorConfig(Fraction(1, 20), Fraction(1, 20)),
    rng: RandomSource | None = None,
) -> Estimate:
    """Stopping-rule estimator: draw until the success quota T is met,
    return T / (draws through the T-th success). Batching is internal
    bookkeeping; the stopping trial is a pure function of the seed.

    Hitting max_samples first yields the flagged plain mean instead.
    """
    rng = rng if rng is not None else RandomSource(0)
    quota = adaptive_success_quota(config.epsilon, config.delta)
    stream = _indicator_stream(db, sigma, kind, q, c)
    hits = 0
    drawn = 0
    batch = quota  # fewer draws cannot meet the quota
    while drawn < config.max_samples:
        size = min(batch, config.max_samples - drawn)
        arr = (
            stream.batch(rng.seed, drawn, size)
            if config.threads <= 1 or size < _CHUNK
            else np.concatenate(
                [a for _, a in _run_chunks(_Shifted(stream, drawn), rng.seed, size, config.threads)]
            )
        )
        in_batch = int(arr.sum())
        if hits + in_batch >= quota:
            positions = np.cumsum(arr)
            stop = int(np.searchsorted(positions, quota - hits, side="left"))
            used = drawn + stop + 1
            return Estimate(Fraction(quota, used), used, "adaptive")
        hits += in_batch
        drawn += size
        batch = min(batch * 2, 1 << 18)
    return Estimate(
        Fraction(hits, drawn), drawn, "adaptive", flagged_zero=True
    )


class _Shifted:
    """View of an indicator stream with all trial indices offset."""

    def __init__(self, stream, offset: int):
        self._stream = stream
        self._offset = offset

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        return self._stream.batch(seed, self._offset + base, count)


_ESTIMATORS = {
    "additive": estimate_additive,
    "multiplicative_bound": estimate_multiplicative,
    "adaptive": estimate_adaptive,
}


def estimate_probability(
    db: Database,
    sigma,
    kind: GeneratorKind,
    q: ConjunctiveQuery,
    c: tuple = (),
    config: EstimatorConfig = EstimatorConfig(Fraction(1, 20), Fraction(1, 20)),
    rng: RandomSource | None = None,
) -> Estimate:
    """Route to the estimator selected by config.mode."""
    return _ESTIMATORS[config.mode](db, sigma, kind, q, c, config, rng)
