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

Hot loops run on a numpy fast path when the instance shape allows:
uniform-operations walks, one residual DAG per conflict component, on
instances of at most 16 conflict facts or whose components have at most
10 facts each (and whose 2^facts add up to at most 2^16), or
uniform-repair draws under primary keys. The fast paths replicate the
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
from .queries import ConjunctiveQuery, witness_masks, witnesses
from .relational import Database, FunctionalDependency, is_keys, is_primary_keys
from .repairs import GeneratorKind, _space
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
    """Estimator result. flagged_zero marks the outcomes that carry no
    relative guarantee: an all-zero multiplicative run, or an adaptive
    run cut off by max_samples before reaching its success quota; and
    the exact 0 an adaptive run returns, without drawing, for a tuple
    that has no witness in the database."""

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
_VECTOR_MASK_LIMIT = 16  # conflict facts; see _component_dags
_VECTOR_COMPONENT_LIMIT = 10  # facts per component beyond that
_LANE_CELLS = 1 << 21  # lanes times runs walked at once by the vector walk


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
        self.witnessed = bool(self._witnesses)

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        db, sigma, kind = self._args
        out = np.empty(count, dtype=np.uint8)
        for t in range(count):
            rng = RandomSource(seed, base + t)
            kept = sample_outcome(db, sigma, kind, rng).repair.facts
            out[t] = any(w <= kept for w in self._witnesses)
        return out


class _UoWalkStream:
    """Vectorized uniform-operations walk, one residual DAG per conflict
    component.

    The components' cached DAGs are numbered one after another, and each
    lane holds one position per component. A step draws r below the
    lane's operation count, summed over the components, with the exact
    64-bit rejection rule of RandomSource.randbelow, and takes the r-th
    operation by the rule of repairs._Space.select, on the run offsets
    of _Component.ops, here shifted to positions in the joint child
    array. A lane's repair answers when it keeps a witness: for some
    witness, every component the witness touches ends on a residual that
    keeps its part. Built from the DAGs of _component_dags; lanes walk in
    slices of at most _LANE_CELLS lane-runs, so memory does not grow with
    the batch."""

    def __init__(self, space, dags, q, answer):
        comps, runs = space.components()
        width = max((len(comp.run_starts) for comp in comps), default=0) + 1
        sizes = [len(dag.masks) for dag in dags]
        base = np.cumsum([0] + sizes)  # position of each DAG's first residual
        self._kids = np.empty(sum(len(dag.kids) for dag in dags), dtype=np.int64)
        # _offsets[i, j]: where in _kids residual i's operations of its
        # component's run j start; at j = the component's run count, where
        # its operations end
        self._offsets = np.zeros((base[-1], width), dtype=np.int64)
        masks = []
        edges = 0
        for c, (comp, dag) in enumerate(zip(comps, dags)):
            kids = self._kids[edges : edges + len(dag.kids)]
            kids[:] = dag.kids
            masks.append(np.asarray(dag.masks, dtype=np.int64))
            # children are in canonical order, so each residual's first
            # facts ascend: one sorted key per child, searched per run start
            parent = np.repeat(np.arange(sizes[c]), np.diff(dag.starts))
            om = masks[c][parent] & ~masks[c][kids]
            first = np.frexp((om & -om).astype(np.float64))[1] - 1
            bounds = np.asarray(comp.run_starts + (comp.n,), dtype=np.int64)
            wanted = np.arange(sizes[c])[:, None] * comp.n + bounds
            self._offsets[base[c] : base[c + 1], : bounds.size] = edges + np.searchsorted(
                parent * comp.n + first, wanted
            )
            kids += base[c]
            edges += len(dag.kids)
        self._first = base[:-1, None]
        self._roots = base[:-1] + np.asarray([dag.root for dag in dags], dtype=np.int64)
        self._run_comp = np.asarray([c for c, _ in runs], dtype=np.int64)
        self._run_local = np.asarray([j for _, j in runs], dtype=np.int64)

        # the root has every operation a lane can meet
        max_ops = sum(len(dag.children(dag.root)) for dag in dags)
        rems = [(1 << 64) % c if c else 0 for c in range(max_ops + 1)]
        self._limit = np.asarray(
            [((1 << 64) - r) & _M64 for r in rems], dtype=np.uint64
        )
        self._accept_all = np.asarray([r == 0 for r in rems], dtype=bool)

        # per component, which of its residuals keep one witness part; a
        # witness within one component folds into that component's table
        where = {g: (c, 1 << i) for c, comp in enumerate(comps) for i, g in enumerate(comp.facts)}
        keeps: dict[tuple[int, int], np.ndarray] = {}

        def keep(c: int, part: int) -> np.ndarray:
            if (c, part) not in keeps:
                keeps[c, part] = masks[c] & part == part
            return keeps[c, part]

        self._always = False
        self._single: dict[int, np.ndarray] = {}
        self._joint: list[list[tuple[int, np.ndarray]]] = []
        found = space.answer_masks(q, answer).get(answer, ())
        self.witnessed = bool(found)
        for w in found:
            parts: dict[int, int] = {}
            while w:
                low = w & -w
                c, b = where[low.bit_length() - 1]
                parts[c] = parts.get(c, 0) | b
                w ^= low
            if not parts:
                self._always = True
            elif len(parts) == 1:
                ((c, part),) = parts.items()
                self._single[c] = self._single.get(c, False) | keep(c, part)
            else:
                self._joint.append([(c, keep(c, part)) for c, part in parts.items()])

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        if self._always:
            return np.ones(count, dtype=np.uint8)
        lanes = max(1, _LANE_CELLS // max(1, self._run_comp.size))
        if count > lanes:
            return np.concatenate(
                [self.batch(seed, base + i, min(lanes, count - i)) for i in range(0, count, lanes)]
            )
        bases = _stream_bases(seed, base, count)
        ids = np.repeat(self._roots[:, None], count, axis=1)
        drawn = np.zeros(count, dtype=np.uint64)
        live = np.arange(count) if self._run_comp.size else np.arange(0)
        while live.size:
            nodes = ids[self._run_comp[:, None], live]
            begin = self._offsets[nodes, self._run_local[:, None]]
            cum = np.cumsum(self._offsets[nodes, self._run_local[:, None] + 1] - begin, axis=0)
            walking = cum[-1] > 0
            if not walking.all():
                live, begin, cum = live[walking], begin[:, walking], cum[:, walking]
                if not live.size:
                    break
            bounds = cum[-1]
            r = np.empty(live.size, dtype=np.int64)
            pending = np.arange(live.size)
            while pending.size:
                lanes = live[pending]
                drawn[lanes] += np.uint64(1)
                u = _mix64_array(bases[lanes] + drawn[lanes] * np.uint64(GOLDEN))
                b = bounds[pending]
                ok = self._accept_all[b] | (u < self._limit[b])
                sel = (u % b.astype(np.uint64)).astype(np.int64)
                r[pending[ok]] = sel[ok]
                pending = pending[~ok]
            run = (cum <= r).sum(axis=0)
            lane = np.arange(live.size)
            passed = np.where(run > 0, cum[np.maximum(run - 1, 0), lane], 0)
            ids[self._run_comp[run], live] = self._kids[begin[run, lane] + r - passed]
        local = ids - self._first  # positions within each component's DAG
        out = np.zeros(count, dtype=bool)
        for c, table in self._single.items():
            out |= table[local[c]]
        for parts in self._joint:
            hit = np.ones(count, dtype=bool)
            for c, table in parts:
                hit &= table[local[c]]
            out |= hit
        return out.astype(np.uint8)


class _UrBlockStream:
    """Vectorized uniform-repair draws under primary keys: one categorical
    draw per conflicting block per lane, in block order, with the exact
    64-bit rejection rule of RandomSource.randbelow. Facts outside the
    blocks are always kept, so a witness holds on a lane when each block
    fact it contains is its block's choice (never, when it has two facts
    in one block). Only the choices of blocks some witness touches are
    kept, as one array per block."""

    def __init__(self, db, sigma, kind, q, answer):
        nontrivial = _key_blocks(db, frozenset(sigma)).nontrivial
        self._draws = [
            len(facts) if kind.singleton_only else len(facts) + 1
            for facts in nontrivial
        ]
        where = [(b, i) for b, facts in enumerate(nontrivial) for i in range(len(facts))]
        bit = {f: 1 << j for j, f in enumerate(f for facts in nontrivial for f in facts)}
        self._always = False
        # per block, the choices that keep a witness within it; witnesses
        # across blocks as (block, choice) pairs
        self._single: dict[int, np.ndarray] = {}
        self._joint: list[list[tuple[int, int]]] = []
        found = witnesses(q, db, answer).get(answer, ())
        self.witnessed = bool(found)
        for w in witness_masks(found, bit):
            parts = [where[j] for j in range(w.bit_length()) if w >> j & 1]
            if not parts:
                self._always = True
            elif len(parts) == 1:
                ((b, i),) = parts
                self._single.setdefault(b, np.zeros(self._draws[b], dtype=bool))[i] = True
            else:
                self._joint.append(parts)
        self._touched = set(self._single) | {b for parts in self._joint for b, _ in parts}

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        if self._always:
            return np.ones(count, dtype=np.uint8)
        bases = _stream_bases(seed, base, count)
        drawn = np.zeros(count, dtype=np.uint64)
        choices: dict[int, np.ndarray] = {}
        for b, n in enumerate(self._draws):
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
            if b in self._touched:
                choices[b] = (u % np.uint64(n)).astype(np.int64)
        out = np.zeros(count, dtype=bool)
        for b, table in self._single.items():
            out |= table[choices[b]]
        for parts in self._joint:
            hit = np.ones(count, dtype=bool)
            for b, i in parts:
                hit &= choices[b] == i
            out |= hit
        return out.astype(np.uint8)


def _component_dags(space, singleton_only: bool):
    """The residual DAG of each conflict component, or None when the
    vector stream should not run. It runs on every instance of at most 16
    conflict facts, whose component DAGs together are no larger than the
    one DAG of the whole instance; on larger instances, when no component
    has over 10 facts and the components' 2^facts add up to at most 2^16,
    so that the DAGs build in about the time of a few hundred scalar
    draws."""
    comps, _ = space.components()
    limit = 1 << _VECTOR_MASK_LIMIT
    if space.n > _VECTOR_MASK_LIMIT and (
        max(comp.n for comp in comps) > _VECTOR_COMPONENT_LIMIT
        or sum(1 << comp.n for comp in comps) > limit
    ):
        return None
    return [comp.dag(singleton_only, limit) for comp in comps]


def _indicator_stream(db, sigma, kind, q, answer):
    sigma = frozenset(sigma)
    answer = tuple(answer)
    _require_sampler(db, sigma, kind)
    if kind.family == "uo":
        space = _space(db, sigma)
        dags = _component_dags(space, kind.singleton_only)
        if dags is not None:
            return _UoWalkStream(space, dags, q, answer)
    if kind.family == "ur":
        return _UrBlockStream(db, sigma, kind, q, answer)
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

    Hitting max_samples first yields the flagged plain mean instead. A
    tuple without a witness in the database holds in no repair: it gets
    a flagged 0 without any draw.
    """
    rng = rng if rng is not None else RandomSource(0)
    quota = adaptive_success_quota(config.epsilon, config.delta)
    stream = _indicator_stream(db, sigma, kind, q, c)
    if not stream.witnessed:
        return Estimate(Fraction(0), 0, "adaptive", flagged_zero=True)
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
