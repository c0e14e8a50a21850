"""Seeded samplers for the three generator families.

Randomness contract: a SplitMix64-style counter generator, fixed for the
lifetime of the package. Stream k of seed s produces

    out_i = mix64(base + (i+1) * GOLDEN),   base = mix64(s + k * STREAM)

over 64-bit wrapping arithmetic, where mix64 is the SplitMix64
finalizer. Streams are cheap to construct, so parallel trials take one
stream each and any aggregate of trials is independent of scheduling.

Categorical draws use exact integer thresholds (uniform 64-bit rejection
below the largest multiple of n), never floating point, so the samplers
hit their target distributions exactly, not merely approximately.

The numpy side of the contract is _Lanes: lane i of _Lanes(seed, base,
count) is stream (seed, base + i), and its randbelow draws and redraws
exactly as RandomSource.randbelow does, for all lanes in one array
operation. The estimators' vector streams draw only through it.

The uniform-repair and uniform-sequences samplers read the conflict
components of repairs._Space. Under primary keys those components are
the blocks of two or more facts: the uniform-repair sampler draws one
outcome per block in block order (relation, then key values), and the
uniform-sequences sampler scans the conflict facts in fact order, so the
order of the blocks never affects its draws. The uniform-operations walk
reads only the neighbour masks of the _Space, for any FDs. Each sampler
has a mask form (_DRAWS): on the _Space that _sampler_space looks up and
checks once, it returns the kept conflict facts as a mask and the op
index path (None for uniform repairs), from which the public samplers
build their Database and RepairingSequence.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Iterable

import numpy as np

from .counting import _profile_count
from .errors import UnsupportedCombinationError
from .relational import Database, FunctionalDependency
from .repairs import (
    UO, UR, UR1, US, US1, GeneratorKind, RepairingSequence, _Path, _sequence_of, _Space, _space
)

__all__ = [
    "GOLDEN",
    "STREAM",
    "mix64",
    "RandomSource",
    "SampleOutcome",
    "sample_repair_uniform",
    "sample_sequence_uniform",
    "sample_sequence_uo",
    "sample_outcome",
]

_M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
STREAM = 0xBF58476D1CE4E5B9


def mix64(x: int) -> int:
    """SplitMix64 finalizer over 64-bit wrapping arithmetic."""
    x &= _M64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _M64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _M64
    x ^= x >> 31
    return x


class RandomSource:
    """One deterministic draw stream, identified by (seed, stream_index).

    Estimators treat stream_index as a base offset: trial t of an
    estimate seeded with (s, k) consumes stream (s, k + t). Identical
    identifiers reproduce identical draws, bit for bit.
    """

    __slots__ = ("seed", "stream_index", "_state")

    def __init__(self, seed: int, stream_index: int = 0):
        if stream_index < 0:
            raise ValueError("stream_index must be non-negative")
        self.seed = seed & _M64
        self.stream_index = stream_index
        self._state = mix64((self.seed + STREAM * stream_index) & _M64)

    def next64(self) -> int:
        self._state = (self._state + GOLDEN) & _M64
        return mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n). n = 1 consumes no randomness."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        if n == 1:
            return 0
        if n <= 1 << 64:
            limit = (1 << 64) - ((1 << 64) % n)
            while True:
                u = self.next64()
                if u < limit:
                    return u % n
        words = (n.bit_length() + 63) // 64
        span = 1 << (64 * words)
        limit = span - span % n
        while True:
            u = 0
            for _ in range(words):
                u = u << 64 | self.next64()
            if u < limit:
                return u % n

    def spawn(self, offset: int) -> "RandomSource":
        return RandomSource(self.seed, self.stream_index + offset)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """mix64 of each element of a uint64 array, into a new array."""
    x = x ^ (x >> np.uint64(30))
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class _Lanes:
    """Many streams at once: lane i of _Lanes(seed, base, count) is
    RandomSource(seed, base + i), and each draw consumes on its lanes
    exactly what RandomSource.randbelow consumes. Bounds are below 2^63."""

    __slots__ = ("_state",)

    def __init__(self, seed: int, base: int, count: int):
        streams = np.uint64(base & _M64) + np.arange(count, dtype=np.uint64)
        self._state = _mix64_array(np.uint64(seed & _M64) + np.uint64(STREAM) * streams)

    def randbelow(self, n: int, keep: bool = True) -> np.ndarray | None:
        """Per lane, a uniform integer in [0, n), as an int64 array. With
        keep False the draws are only consumed, and not even computed when
        n divides 2^64, so that no draw is rejected."""
        if n == 1:
            return np.zeros(self._state.size, dtype=np.int64) if keep else None
        self._state += np.uint64(GOLDEN)
        rem = (1 << 64) % n
        if not (rem or keep):
            return None
        u = _mix64_array(self._state)
        top = np.uint64(_M64 - rem)  # the largest accepted output
        pending = np.flatnonzero(u > top) if rem else []
        while len(pending):
            self._state[pending] += np.uint64(GOLDEN)
            u[pending] = _mix64_array(self._state[pending])
            pending = pending[u[pending] > top]
        return (u % np.uint64(n)).astype(np.int64) if keep else None

    def randbelow_each(self, lanes: np.ndarray, bounds: np.ndarray) -> np.ndarray:
        """For each j, a uniform integer in [0, bounds[j]) drawn on lane
        lanes[j], as an int64 array; the lanes are distinct."""
        b = bounds.astype(np.uint64)
        if (b == 1).any():  # a bound of 1 consumes nothing
            out, drawn = np.zeros(lanes.size, dtype=np.int64), b > 1
            out[drawn] = self.randbelow_each(lanes[drawn], bounds[drawn])
            return out
        self._state[lanes] += np.uint64(GOLDEN)
        u = _mix64_array(self._state[lanes])
        r = u % b
        # u lies at or above the largest multiple of b under 2^64 exactly
        # when the multiple u - r leaves less than b below 2^64
        pending = np.flatnonzero(u - r > -b)
        while pending.size:
            at = lanes[pending]
            self._state[at] += np.uint64(GOLDEN)
            redraw = _mix64_array(self._state[at])
            left = b[pending]
            r[pending] = redraw % left
            pending = pending[redraw - r[pending] > -left]
        return r.astype(np.int64)


@dataclass(frozen=True)
class SampleOutcome:
    """One draw: the repair, plus the sequence for sequence-valued
    samplers. All samplers are direct, so draws carry no weight."""

    repair: Database
    sequence: RepairingSequence | None = None


# ---------------------------------------------------------------------------
# Samplers: mask forms (space, rng, singleton_only) -> (kept mask, op index
# path), then the public samplers built on them
# ---------------------------------------------------------------------------


def _sampler_space(db: Database, sigma, kind: GeneratorKind) -> _Space:
    """The space a kind's sampler draws on; raises unless it has one for these FDs."""
    space = _space(db, frozenset(sigma))
    if kind.family != "uo" and not space.primary_keys:
        raise UnsupportedCombinationError(
            f"no {kind.label} sampler beyond primary keys; uo/uo1 work for any FDs"
        )
    return space


def _draw_ur(space: _Space, rng: RandomSource, singleton_only: bool) -> tuple[int, None]:
    comps = space.components()
    mask = 0
    for c in space.block_order():
        members = comps[c].facts
        m = len(members)
        choice = rng.randbelow(m if singleton_only else m + 1)
        if choice < m:
            mask |= 1 << members[choice]
    return mask, None


@lru_cache(maxsize=4096)
def _step_table(
    profile: tuple[int, ...], singleton_only: bool
) -> tuple[int, list[int], list[int]]:
    """(N(P), w1, w2) for a profile P of active block sizes, sorted
    ascending: N(P) counts the complete sequences, and wk[m] those left
    after an operation that removes k facts from a block of size m."""
    w1 = [0] * (profile[-1] + 1)
    w2 = [0] * (profile[-1] + 1)
    for m in set(profile):
        rest = list(profile)
        rest.remove(m)
        for k, w in ((1, w1),) if singleton_only else ((1, w1), (2, w2)):
            after = rest + [m - k] if m - k >= 2 else rest
            w[m] = _profile_count(tuple(sorted(after, reverse=True)), singleton_only)
    return _profile_count(profile[::-1], singleton_only), w1, w2


def _draw_us(space: _Space, rng: RandomSource, singleton_only: bool) -> tuple[int, _Path]:
    comps = space.components()
    block = space.component_of
    remaining = [list(comp.facts) for comp in comps]
    sizes = [comp.n for comp in comps]
    profile = sorted(sizes)
    order = list(range(space.n))  # the facts still in an active block
    mask = space.full_mask
    path: list[tuple[int, ...]] = []
    while order:
        total, w1, w2 = _step_table(tuple(profile), singleton_only)
        r = rng.randbelow(total)
        seen = [0] * len(sizes)
        for p in order:
            b = block[p]
            m = sizes[b]
            seen[b] += 1
            if r < w1[m]:
                removed = (p,)
                break
            r -= w1[m]
            if not singleton_only:
                later = (m - seen[b]) * w2[m]
                if r < later:
                    removed = (p, remaining[b][seen[b] + r // w2[m]])
                    break
                r -= later
        path.append(removed)
        left = remaining[b]
        for q in removed:
            mask ^= 1 << q
            left.remove(q)
            order.remove(q)
        profile.remove(sizes[b])
        sizes[b] = len(left)
        if len(left) >= 2:
            insort(profile, len(left))
        elif left:
            order.remove(left[0])
    return mask, tuple(path)


def _draw_uo(space: _Space, rng: RandomSource, singleton_only: bool) -> tuple[int, _Path]:
    nbr = space.nbr
    mask = space.full_mask
    # every conflict fact has a neighbour in the full database
    counts = [1 if singleton_only else 1 + (row >> i + 1).bit_count() for i, row in enumerate(nbr)]
    sums = list(accumulate(counts, initial=0))
    path: list[tuple[int, ...]] = []
    while sums[-1]:
        r = rng.randbelow(sums[-1])
        i = bisect_right(sums, r) - 1
        r -= sums[i]
        if r:  # the r-th present neighbour after fact i
            later = nbr[i] & mask & -(2 << i)
            for _ in range(r - 1):
                later &= later - 1
            removed = (i, (later & -later).bit_length() - 1)
        else:
            removed = (i,)
        path.append(removed)
        touched = 0
        for k in removed:
            mask ^= 1 << k
            counts[k] = 0
            touched |= nbr[k]
        touched &= mask
        while touched:
            low = touched & -touched
            touched ^= low
            g = low.bit_length() - 1
            present = nbr[g] & mask
            if not present:
                counts[g] = 0
            elif not singleton_only:
                counts[g] = 1 + (present >> g + 1).bit_count()
        sums = list(accumulate(counts, initial=0))
    return mask, tuple(path)


_DRAWS = {"ur": _draw_ur, "us": _draw_us, "uo": _draw_uo}


def sample_repair_uniform(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    rng: RandomSource,
    singleton_only: bool = False,
) -> Database:
    """Uniform candidate repair of a primary-key instance.

    The conflict components are the blocks of two or more facts. Every
    block of size m independently keeps one survivor or empties (m+1
    equally likely outcomes; m in singleton mode, where emptying is
    unreachable). Draws happen in block order (relation, then key
    values; _Space.block_order), which differs from the order of the
    blocks' first facts when the key is not the first column. Raises
    UnsupportedCombinationError unless the FDs are primary keys.
    """
    space = _sampler_space(db, sigma, UR1 if singleton_only else UR)
    return space.database_of(_draw_ur(space, rng, singleton_only)[0])


def sample_sequence_uniform(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    rng: RandomSource,
    singleton_only: bool = False,
) -> RepairingSequence:
    """Uniform complete repairing sequence of a primary-key instance.

    Each step draws a justified operation with probability proportional
    to the number of complete sequences below it; the products telescope
    so every leaf comes out at exactly 1/|CRS|. The step draws
    r = randbelow(N(P)), with P the sorted sizes of the blocks still
    active, and takes the operation at which the weights, summed in
    canonical order (by first fact, (f,) before (f, g), then by g), pass
    r. An operation's weight depends only on its block's size m and the
    number k of facts it removes, so one cached table per profile
    (_step_table) holds N(P) and every weight: a step is one lookup and
    one scan of the remaining conflict facts in fact order, where fact f
    weighs w1[m] plus w2[m] per later fact of its block. Blocks may
    interleave in fact order (a key that is not the first column), so
    the scan follows the facts, not the blocks. Raises
    UnsupportedCombinationError unless the FDs are primary keys.
    """
    space = _sampler_space(db, sigma, US1 if singleton_only else US)
    return _sequence_of(space, _draw_us(space, rng, singleton_only)[1])


def sample_sequence_uo(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    rng: RandomSource,
    singleton_only: bool = False,
) -> RepairingSequence:
    """Random walk picking a justified operation uniformly at each step.

    Works for arbitrary FD sets; the leaf distribution is the
    uniform-operations chain's by construction. The walk holds one mask
    over the conflict facts and, per fact f, the number of justified
    operations that start at f in canonical order: -f when f has a
    present neighbour, then in pair mode -{f,g} for each present
    neighbour g after f. A step draws r below their sum and takes the
    r-th operation from a running sum of the counts; only the counts of
    the removed facts' present neighbours change.
    """
    space = _sampler_space(db, sigma, UO)
    return _sequence_of(space, _draw_uo(space, rng, singleton_only)[1])


def sample_outcome(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    kind: GeneratorKind,
    rng: RandomSource,
) -> SampleOutcome:
    """Draw once from the sampler matching the generator kind."""
    space = _sampler_space(db, sigma, kind)
    mask, path = _DRAWS[kind.family](space, rng, kind.singleton_only)
    seq = None if path is None else _sequence_of(space, path)
    return SampleOutcome(space.database_of(mask), seq)
