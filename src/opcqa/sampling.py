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
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .counting import _profile_count
from .errors import UnsupportedCombinationError
from .relational import Block, Database, Fact, FunctionalDependency, blocks, is_primary_keys
from .repairs import GeneratorKind, Operation, RepairingSequence, _space

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


@dataclass(frozen=True)
class SampleOutcome:
    """One draw: the repair, plus the sequence for sequence-valued
    samplers. All samplers are direct, so draws carry no weight."""

    repair: Database
    sequence: RepairingSequence | None = None


# ---------------------------------------------------------------------------
# Block-structured samplers (primary keys)
# ---------------------------------------------------------------------------


class _KeyBlocks(NamedTuple):
    """The blocks of a primary-key instance."""

    nontrivial: tuple[tuple[Fact, ...], ...]  # facts of each block of size >= 2, in block order
    always: frozenset[Fact]  # facts kept unconditionally
    facts: tuple[Fact, ...]  # the facts of the nontrivial blocks, in fact order
    block: tuple[int, ...]  # the block of each of those facts
    members: tuple[tuple[int, ...], ...]  # positions in facts of each block's facts
    operations: dict[tuple[int, ...], Operation]  # by positions, made on first use

    def operation(self, idx: tuple[int, ...]) -> Operation:
        """The operation removing the facts at these positions, made once
        per position tuple: at most one per fact and one per pair of a
        block."""
        op = self.operations.get(idx)
        if op is None:
            op = self.operations[idx] = Operation(frozenset(self.facts[i] for i in idx))
        return op


@lru_cache(maxsize=256)
def _key_blocks(db: Database, sigma: frozenset[FunctionalDependency]) -> _KeyBlocks:
    """The blocks of a primary-key instance. Raises for non-primary-key
    FD sets."""
    parts: list[Block] = blocks(db, sigma)
    nontrivial = tuple(b.sorted_facts for b in parts if b.size >= 2)
    always = frozenset(f for b in parts if b.size < 2 for f in b.facts)
    conflict = sorted((f, b) for b, facts in enumerate(nontrivial) for f in facts)
    members: list[list[int]] = [[] for _ in nontrivial]
    for p, (_, b) in enumerate(conflict):
        members[b].append(p)
    return _KeyBlocks(
        nontrivial,
        always,
        tuple(f for f, _ in conflict),
        tuple(b for _, b in conflict),
        tuple(map(tuple, members)),
        {},
    )


def sample_repair_uniform(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    rng: RandomSource,
    singleton_only: bool = False,
) -> Database:
    """Uniform candidate repair of a primary-key instance.

    Every block of size m independently keeps one survivor or empties
    (m+1 equally likely outcomes; m in singleton mode, where emptying is
    unreachable). Draws happen in block order.
    """
    kb = _key_blocks(db, frozenset(sigma))
    kept = set(kb.always)
    for facts in kb.nontrivial:
        m = len(facts)
        choice = rng.randbelow(m if singleton_only else m + 1)
        if choice < m:
            kept.add(facts[choice])
    return db._subset(frozenset(kept))


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
    the scan follows the facts, not the blocks.
    """
    kb = _key_blocks(db, frozenset(sigma))
    block = kb.block
    remaining = [list(ps) for ps in kb.members]
    sizes = [len(ps) for ps in kb.members]
    profile = sorted(sizes)
    order = list(range(len(block)))  # the facts still in an active block
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
            left.remove(q)
            order.remove(q)
        profile.remove(sizes[b])
        sizes[b] = len(left)
        if len(left) >= 2:
            insort(profile, len(left))
        elif left:
            order.remove(left[0])
    return RepairingSequence(tuple(kb.operation(idx) for idx in path))


# ---------------------------------------------------------------------------
# Uniform-operations walk (any FDs)
# ---------------------------------------------------------------------------


def sample_sequence_uo(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    rng: RandomSource,
    singleton_only: bool = False,
) -> RepairingSequence:
    """Random walk picking a justified operation uniformly at each step.

    Works for arbitrary FD sets; the leaf distribution is the
    uniform-operations chain's by construction. The walk holds one local
    residual per conflict component. A step draws r below the number of
    operations of all components and takes the r-th in the instance's
    canonical order (repairs._Space.select); only the component it
    touches changes.
    """
    space = _space(db, frozenset(sigma))
    comps, _ = space.components()
    masks = [comp.full_mask for comp in comps]
    ops: list[tuple] = []
    offsets: list[tuple[int, ...]] = []
    for comp in comps:
        found, off = comp.ops(comp.full_mask, singleton_only)
        ops.append(found)
        offsets.append(off)
    total = sum(map(len, ops))
    path: list[tuple[int, ...]] = []
    while total:
        c, k = space.select(offsets, rng.randbelow(total))
        idx, om = ops[c][k]
        path.append(idx)
        masks[c] &= ~om
        total -= len(ops[c])
        ops[c], offsets[c] = comps[c].ops(masks[c], singleton_only)
        total += len(ops[c])
    return RepairingSequence(tuple(space.operation_of(idx) for idx in path))


_primary_keys = lru_cache(maxsize=256)(is_primary_keys)


def _require_sampler(
    db: Database, sigma: frozenset[FunctionalDependency], kind: GeneratorKind
) -> None:
    """Raise unless the generator kind has a sampler for these FDs."""
    if kind.family in ("ur", "us") and not _primary_keys(sigma, db.schema):
        raise UnsupportedCombinationError(
            f"no {kind.label} sampler beyond primary keys; uo/uo1 work for any FDs"
        )


def sample_outcome(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    kind: GeneratorKind,
    rng: RandomSource,
) -> SampleOutcome:
    """Draw once from the sampler matching the generator kind."""
    sigma = frozenset(sigma)
    _require_sampler(db, sigma, kind)
    if kind.family == "ur":
        return SampleOutcome(sample_repair_uniform(db, sigma, rng, kind.singleton_only))
    if kind.family == "us":
        seq = sample_sequence_uniform(db, sigma, rng, kind.singleton_only)
    else:
        seq = sample_sequence_uo(db, sigma, rng, kind.singleton_only)
    return SampleOutcome(seq.result(db), seq)
