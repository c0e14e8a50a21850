"""Monte-Carlo estimators for operational answer probabilities.

Three modes:

* additive: fixed N from the Hoeffding bound, absolute error eps.
* multiplicative_bound: fixed N from a Chernoff-style bound seeded with a
  proven lower bound on the target; relative error eps.
* adaptive: sequential stopping rule (run until a fixed success quota),
  relative error eps with no prior bound needed.

Every estimate is a pure function of (instance, query, config, seed,
stream index k): trial t consumes RandomSource stream (seed, k + t) and
nothing else, so thread counts and batch sizes cannot change the result.
One estimator, estimate_probability, runs all three modes; it draws its
trials through one function (_trials), in chunks of _CHUNK trials, on a
thread pool when config.threads > 1.

Hot loops run on a numpy fast path when the instance shape allows:
uniform-operations walks, one residual DAG per conflict component, on
instances of at most 16 conflict facts or whose components have at most
10 facts each (and whose 2^facts add up to at most 2^16), or
uniform-repair draws under primary keys. The fast paths draw through
sampling._Lanes, which replicates the scalar RNG bit for bit; tests
assert equality against the pure-Python sampler.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Sequence

import numpy as np

from .errors import SizeCapError, UnsupportedCombinationError
from .queries import ConjunctiveQuery
from .relational import Database, FunctionalDependency, is_keys, is_primary_keys
from .repairs import GeneratorKind
from .sampling import _DRAWS, RandomSource, _Lanes, _sampler_space

__all__ = [
    "E_OVER",
    "EstimatorConfig",
    "Estimate",
    "lower_bound",
    "additive_sample_count",
    "multiplicative_sample_count",
    "adaptive_success_quota",
    "estimate_probability",
]

# Rational over-approximation of Euler's number, accurate to 1e-15. Using
# a slight over-estimate everywhere a bound divides by e keeps every
# returned bound valid (smaller than the true one).
E_OVER = Fraction(2_718_281_828_459_046, 10**15)

MODES = ("additive", "multiplicative_bound", "adaptive")


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
    root = math.isqrt(size - 1) + 1  # the ceiling of sqrt(size)
    outer = math.factorial((qs + k + 1) ** 2) * (E_OVER * (root + 5 * qs)) ** (5 * qs)
    inner = (E_OVER * k) ** (k + 2) * (E_OVER * E_OVER * (d + k - 1) * (d - 1)) ** k
    return 1 + outer * inner


# ---------------------------------------------------------------------------
# Sample-count formulas
# ---------------------------------------------------------------------------


def _log_two_over(delta: Fraction) -> float:
    """ln(2/delta); from delta's numerator and denominator where the float
    2/delta is out of range, since math.log is exact on big ints."""
    d = float(delta)
    if d and 2 / d < math.inf:
        return math.log(2 / d)
    return math.log(2) + math.log(delta.denominator) - math.log(delta.numerator)


def additive_sample_count(epsilon: Fraction, delta: Fraction) -> int:
    """Hoeffding: N = ceil(ln(2/delta) / (2 eps^2))."""
    return math.ceil(Fraction(_log_two_over(delta)) / (2 * epsilon * epsilon))


def multiplicative_sample_count(epsilon: Fraction, delta: Fraction, bound: Fraction) -> int:
    """Chernoff-style: N = ceil(3 ln(2/delta) / (eps^2 L)). Exact rational
    arithmetic after the log, so astronomically small L still yields the
    correct (astronomically large) integer."""
    if bound <= 0:
        raise ValueError("lower bound must be positive")
    return math.ceil(Fraction(3 * _log_two_over(delta)) / (epsilon * epsilon * bound))


def adaptive_success_quota(epsilon: Fraction, delta: Fraction) -> int:
    """Stopping-rule quota: ceil(1 + 4(e-2) ln(2/delta) / eps^2)."""
    return math.ceil(1 + Fraction(4 * (math.e - 2) * _log_two_over(delta)) / (epsilon * epsilon))


# ---------------------------------------------------------------------------
# Indicator streams
# ---------------------------------------------------------------------------
#
# An indicator stream turns trial indices into 0/1 outcomes: trial t
# draws from RandomSource(seed, base + t) and reports whether the sampled
# repair entails the answer. The scalar stream is the reference; the
# vector streams draw trial t on lane t of sampling._Lanes(seed, base,
# count), which consumes as RandomSource does, so they reproduce its draws
# exactly. Every stream looks the residual space up once, evaluates the
# query once on the full database, and tests a repair by whether its mask
# over the conflict facts keeps one of the answer's witness masks
# (_Space.answer_masks).

_CHUNK = 1 << 16
_VECTOR_MASK_LIMIT = 16  # conflict facts; see _component_dags
_VECTOR_COMPONENT_LIMIT = 10  # facts per component beyond that
_LANE_CELLS = 1 << 21  # lanes times runs walked at once by the vector walk


class _ScalarStream:
    """Reference implementation: one pure-Python draw per trial, by the
    mask form of the kind's sampler (sampling._DRAWS) on a space looked
    up once, and a test of its kept mask against each witness mask."""

    def __init__(self, db, sigma, kind, q, answer):
        space = _sampler_space(db, sigma, kind)
        self._args = (space, _DRAWS[kind.family], kind.singleton_only)
        self._masks = space.answer_masks(q, answer).get(answer, ())
        self.witnessed = bool(self._masks)

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        space, draw, single = self._args
        out = np.empty(count, dtype=np.uint8)
        for t in range(count):
            mask = draw(space, RandomSource(seed, base + t), single)[0]
            out[t] = any(w & mask == w for w in self._masks)
        return out


class _Witnesses:
    """Which lanes keep one of an answer's witnesses, given the outcome
    each lane ends on in each conflict component.

    outcomes[c] holds the local masks of component c's possible outcomes,
    and a lane's outcome in c is a position in it. A witness holds on a
    lane when every component it touches ends on an outcome that keeps
    its part. A witness within one component folds into that component's
    table; a joint one is kept as its (component, table) pairs. Only the
    touched components matter."""

    def __init__(self, space, q, answer, outcomes: Sequence[np.ndarray]):
        comps = space.components()
        where = {g: (c, 1 << i) for c, comp in enumerate(comps) for i, g in enumerate(comp.facts)}
        keeps: dict[tuple[int, int], np.ndarray] = {}

        def keep(c: int, part: int) -> np.ndarray:
            if (c, part) not in keeps:
                keeps[c, part] = outcomes[c] & part == part
            return keeps[c, part]

        self.always = False
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
                self.always = True
            elif len(parts) == 1:
                ((c, part),) = parts.items()
                self._single[c] = self._single.get(c, False) | keep(c, part)
            else:
                self._joint.append([(c, keep(c, part)) for c, part in parts.items()])
        self.touched = set(self._single) | {c for parts in self._joint for c, _ in parts}

    def hits(self, ends, count: int) -> np.ndarray:
        """Per lane, whether it keeps a witness; ends[c] is the array of
        the lanes' outcome positions in touched component c."""
        out = np.zeros(count, dtype=bool)
        for c, table in self._single.items():
            out |= table[ends[c]]
        for parts in self._joint:
            hit = np.ones(count, dtype=bool)
            for c, table in parts:
                hit &= table[ends[c]]
            out |= hit
        return out.astype(np.uint8)


class _UoWalkStream:
    """Vectorized uniform-operations walk, one residual DAG per conflict
    component.

    The components' cached DAGs are numbered one after another, and each
    lane holds one position per component. A step draws r below the
    lane's operation count, summed over the components
    (_Lanes.randbelow_each), and takes the r-th operation in the
    instance's canonical order, as sampling.sample_sequence_uo does. A
    run is a maximal stretch of consecutive _Space facts in one
    component. Operations sort by their first fact, so a run's
    operations are a contiguous slice of its component's children, and
    the canonical list takes those slices run after run. A lane's repair
    answers when it keeps a witness (_Witnesses, on the residual masks
    of each component's DAG). Built from the DAGs of _component_dags;
    lanes walk in slices of at most _LANE_CELLS lane-runs, so memory
    does not grow with the batch."""

    def __init__(self, space, dags, q, answer):
        comps = space.components()
        # runs in fact order, as (component, number among its runs), and
        # per component the local index of each run's first fact
        runs: list[tuple[int, int]] = []
        starts: list[list[int]] = [[] for _ in comps]
        seen = [0] * len(comps)
        for c, run in groupby(space.component_of):
            runs.append((c, len(starts[c])))
            starts[c].append(seen[c])
            seen[c] += len(list(run))
        width = max(map(len, starts), default=0) + 1
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
            bounds = np.asarray(starts[c] + [comp.n], dtype=np.int64)
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
        self._witnesses = _Witnesses(space, q, answer, masks)
        self.witnessed = self._witnesses.witnessed

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        if self._witnesses.always:
            return np.ones(count, dtype=np.uint8)
        lanes = max(1, _LANE_CELLS // max(1, self._run_comp.size))
        if count > lanes:
            return np.concatenate(
                [self.batch(seed, base + i, min(lanes, count - i)) for i in range(0, count, lanes)]
            )
        source = _Lanes(seed, base, count)
        ids = np.repeat(self._roots[:, None], count, axis=1)
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
            r = source.randbelow_each(live, cum[-1])
            run = (cum <= r).sum(axis=0)
            lane = np.arange(live.size)
            passed = np.where(run > 0, cum[np.maximum(run - 1, 0), lane], 0)
            ids[self._run_comp[run], live] = self._kids[begin[run, lane] + r - passed]
        return self._witnesses.hits(ids - self._first, count)  # positions in each DAG


class _UrBlockStream:
    """Vectorized uniform-repair draws under primary keys, where the
    conflict components are the blocks of two or more facts: one
    categorical draw per block per lane, in block order
    (_Space.block_order). Choice i of a block keeps its i-th fact, and
    in pair mode its last choice empties it; only the choices of blocks
    some witness touches are computed (_Lanes.randbelow), as one array
    per block; the other blocks' draws are only consumed."""

    def __init__(self, space, kind, q, answer):
        comps = space.components()
        emptied = [] if kind.singleton_only else [0]
        # object arrays: a block may have more facts than an int64 has bits
        outcomes = [
            np.array([1 << i for i in range(comp.n)] + emptied, dtype=object) for comp in comps
        ]
        self._draws = [(c, len(outcomes[c])) for c in space.block_order()]
        self._witnesses = _Witnesses(space, q, answer, outcomes)
        self.witnessed = self._witnesses.witnessed

    def batch(self, seed: int, base: int, count: int) -> np.ndarray:
        if self._witnesses.always:
            return np.ones(count, dtype=np.uint8)
        touched = self._witnesses.touched
        source = _Lanes(seed, base, count)
        # in block order; None for the blocks no witness touches
        choices = {c: source.randbelow(n, keep=c in touched) for c, n in self._draws}
        return self._witnesses.hits(choices, count)


def _component_dags(space, singleton_only: bool):
    """The residual DAG of each conflict component, or None when the
    vector stream should not run. It runs on every instance of at most 16
    conflict facts, whose component DAGs together are no larger than the
    one DAG of the whole instance; on larger instances, when no component
    has over 10 facts and the components' 2^facts add up to at most 2^16,
    so that the DAGs build in about the time of a few hundred scalar
    draws."""
    comps = space.components()
    limit = 1 << _VECTOR_MASK_LIMIT
    if space.n > _VECTOR_MASK_LIMIT and (
        max(comp.n for comp in comps) > _VECTOR_COMPONENT_LIMIT
        or sum(1 << comp.n for comp in comps) > limit
    ):
        return None
    return [comp.dag(singleton_only, limit) for comp in comps]


def _indicator_stream(db, sigma, kind, q, answer):
    answer = tuple(answer)
    space = _sampler_space(db, sigma, kind)
    if kind.family == "ur":
        return _UrBlockStream(space, kind, q, answer)
    dags = _component_dags(space, kind.singleton_only) if kind.family == "uo" else None
    if dags is not None:
        return _UoWalkStream(space, dags, q, answer)
    return _ScalarStream(space.db, space.sigma, kind, q, answer)


def _trials(stream, rng: RandomSource, first: int, total: int, threads: int):
    """The indicator arrays of trials first .. first + total - 1, in
    order, trial t on stream (rng.seed, rng.stream_index + t), in chunks
    of _CHUNK trials: drawn one by one as they are read, or all at once on
    a pool of threads when threads > 1."""
    start = rng.stream_index + first
    end = start + total
    chunks = [(base, min(_CHUNK, end - base)) for base in range(start, end, _CHUNK)]
    if threads <= 1:
        return (stream.batch(rng.seed, *chunk) for chunk in chunks)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda chunk: stream.batch(rng.seed, *chunk), chunks))

# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def estimate_probability(
    db: Database,
    sigma,
    kind: GeneratorKind,
    q: ConjunctiveQuery,
    c: tuple = (),
    config: EstimatorConfig = EstimatorConfig(Fraction(1, 20), Fraction(1, 20)),
    rng: RandomSource | None = None,
) -> Estimate:
    """Probability that c answers q in the repair kind draws, within
    error eps at confidence 1-delta; config.mode picks the guarantee.

    * additive: the mean of additive_sample_count trials; absolute error.
    * multiplicative_bound: the mean of multiplicative_sample_count
      trials, budgeted by lower_bound; relative error. Raises
      UnsupportedCombinationError when no bound covers the combination.
      An all-zero run returns 0 with flagged_zero set: correct whenever
      the target is exactly 0, and the one documented gap in the relative
      guarantee (targets strictly between 0 and the bound).
    * adaptive: draw until the success quota T is met and return
      T / (draws through the T-th success); relative error, no prior
      bound needed. Hitting max_samples first yields the flagged plain
      mean instead. A tuple without a witness in the database holds in no
      repair: it gets a flagged 0 without any draw.

    The fixed-N modes raise SizeCapError, before the stream is built, when
    their sample count exceeds max_samples.
    """
    rng = rng if rng is not None else RandomSource(0)
    if config.mode == "adaptive":
        return _adaptive(_indicator_stream(db, sigma, kind, q, c), config, rng)
    bound = None
    if config.mode == "additive":
        n = additive_sample_count(config.epsilon, config.delta)
    else:
        bound = lower_bound(kind, db, sigma, q)
        if bound is None:
            raise UnsupportedCombinationError(
                f"no lower bound for {kind.label} on this constraint class; "
                "use additive or adaptive mode"
            )
        n = multiplicative_sample_count(config.epsilon, config.delta, bound)
    if n > config.max_samples:
        hint = "" if bound is None else "; adaptive mode avoids the prior bound"
        raise SizeCapError(
            f"{config.mode.split('_')[0]} mode needs {n} samples, over the cap "
            f"{config.max_samples}{hint}"
        )
    stream = _indicator_stream(db, sigma, kind, q, c)
    hits = sum(int(arr.sum()) for arr in _trials(stream, rng, 0, n, config.threads))
    return Estimate(
        Fraction(hits, n), n, config.mode, bound, flagged_zero=bound is not None and hits == 0
    )


def _adaptive(stream, config: EstimatorConfig, rng: RandomSource) -> Estimate:
    """The stopping rule of adaptive mode. Batching is internal
    bookkeeping; the stopping trial is a pure function of the seed."""
    if not stream.witnessed:
        return Estimate(Fraction(0), 0, "adaptive", flagged_zero=True)
    quota = adaptive_success_quota(config.epsilon, config.delta)
    hits = drawn = 0
    batch = quota  # fewer draws cannot meet the quota
    while drawn < config.max_samples:
        size = min(batch, config.max_samples - drawn)
        for arr in _trials(stream, rng, drawn, size, config.threads):
            in_chunk = int(arr.sum())
            if hits + in_chunk >= quota:
                used = drawn + 1 + int(np.searchsorted(np.cumsum(arr), quota - hits))
                return Estimate(Fraction(quota, used), used, "adaptive")
            hits += in_chunk
            drawn += arr.size
        batch = min(batch * 2, 1 << 18)
    return Estimate(Fraction(hits, drawn), drawn, "adaptive", flagged_zero=True)
