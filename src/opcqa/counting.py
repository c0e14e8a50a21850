"""Closed-form and generating-function counters for primary-key instances.

Under primary keys the conflict graph is a disjoint union of block
cliques, so candidate repairs and complete repairing sequences factor
over blocks. Blocks of size 1 admit no operation and drop out of every
formula. Everything here is exact integer arithmetic; callers that need
probabilities divide Fractions elsewhere.

Complete sequences of separate blocks are exactly the shuffles of
per-block sequences, so their counts multiply as exponential generating
functions (EGFs), the labelled product of Flajolet and Sedgewick
(*Analytic Combinatorics*, 2009). Each block size m has a length table
N_m(l), the complete sequences over one block with l operations; two
length tables combine by the binomial convolution
c[L] = sum_l C(L, l) a[l] b[L-l], and a profile's total is the sum of
its table. Every counter here runs on that product. The source paper's
block DP P_j^{k,i} (``build_sequence_count_table``) stays public because
its cells are the paper's worked quantities, which the regression tests
pin; no hot path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Sequence

from .relational import Database, FunctionalDependency, blocks

__all__ = [
    "SequenceCountTable",
    "block_seq_count",
    "build_sequence_count_table",
    "count_candidate_repairs",
    "count_complete_sequences",
    "sequence_count_for_profile",
]


# ---------------------------------------------------------------------------
# Single-block sequence counts
#
# A complete sequence restricted to one block of size m removes facts one
# or two at a time until one fact is left (the block "survives") or none
# is (the block is "emptied"; the last step must then be a pair removal,
# since a lone remaining fact conflicts with nothing). With i pair
# removals the counts are
#
#     surviving:  m! (m-i-1)! / (2^i  i!    (m-2i-1)!)
#     emptied:    m! (m-i-1)! / (2^i (i-1)! (m-2i)!)
#
# with two boundary cases: an even-sized block cannot survive on i = m/2
# pair removals, and no block empties without a pair removal.
# ---------------------------------------------------------------------------


def _exact_div(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"non-integer count {num}/{den}")
    return q


def block_seq_count(m: int, i: int, empties: bool) -> int:
    """Complete sequences over one block of size m using exactly i pair
    removals, split by whether the block ends up empty."""
    if m < 2:
        raise ValueError(f"block size must be >= 2, got {m}")
    if i < 0 or i > m // 2:
        raise ValueError(f"pair-removal count {i} out of range for block size {m}")
    if empties:
        if i == 0:
            return 0
        return _exact_div(
            factorial(m) * factorial(m - i - 1),
            (1 << i) * factorial(i - 1) * factorial(m - 2 * i),
        )
    if m % 2 == 0 and i == m // 2:
        return 0
    return _exact_div(
        factorial(m) * factorial(m - i - 1),
        (1 << i) * factorial(i) * factorial(m - 2 * i - 1),
    )


@lru_cache(maxsize=None)
def _block_lengths(m: int) -> tuple[int, ...]:
    """N_m(l) for l = 0..m: complete sequences over one block of size m
    with l operations. With i pair removals a kept block takes m-1-i
    operations and an emptied one m-i."""
    out = [0] * (m + 1)
    for i in range(m // 2 + 1):
        out[m - 1 - i] += block_seq_count(m, i, False)
        out[m - i] += block_seq_count(m, i, True)
    return tuple(out)


def _shuffle(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Length table of the shuffles of two independent sequence sets: the
    binomial convolution c[L] = sum_l C(L, l) a[l] b[L-l]."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += comb(i + j, i) * x * y
    return out


# ---------------------------------------------------------------------------
# Multi-block DP
#
# P_j^{k,i} counts the complete sequences over the first j blocks in which
# k blocks keep a survivor and i pair removals occur in total. Appending
# block j to a prefix multiplies by the block's own count and by the
# number of ways to interleave the new block's operations with the ones
# already placed. A prefix over j blocks with k survivors and i pair
# removals contains M_j - i - k operations (every fact goes, two at a time
# i times, except the k survivors), which fixes the multinomial factors
# below.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SequenceCountTable:
    """DP table over a fixed block order; sizes lists the block sizes."""

    sizes: tuple[int, ...]
    cells: dict[tuple[int, int, int], int]

    def cell(self, j: int, k: int, i: int) -> int:
        """P_j^{k,i}; absent combinations count zero."""
        return self.cells.get((j, k, i), 0)

    def total(self) -> int:
        n = len(self.sizes)
        if n == 0:
            return 1
        return sum(v for (j, _, _), v in self.cells.items() if j == n)


def build_sequence_count_table(sizes: Sequence[int]) -> SequenceCountTable:
    sizes = tuple(sizes)
    if any(m < 2 for m in sizes):
        raise ValueError("the sequence-count table is built over blocks of size >= 2")
    cells: dict[tuple[int, int, int], int] = {}
    if not sizes:
        return SequenceCountTable(sizes, cells)

    m1 = sizes[0]
    for i in range(m1 // 2 + 1):
        emptied = block_seq_count(m1, i, True)
        survived = block_seq_count(m1, i, False)
        if emptied:
            cells[(1, 0, i)] = emptied
        if survived:
            cells[(1, 1, i)] = survived

    prefix_total = m1
    for j in range(2, len(sizes) + 1):
        m = sizes[j - 1]
        new_total = prefix_total + m
        for k in range(0, j + 1):
            for i in range(0, new_total // 2 + 1):
                acc = 0
                for i2 in range(0, min(i, m // 2) + 1):
                    i1 = i - i2
                    # block j emptied: survivor count unchanged
                    prev = cells.get((j - 1, k, i1), 0)
                    if prev:
                        s = block_seq_count(m, i2, True)
                        if s:
                            ways = _exact_div(
                                factorial(new_total - i1 - i2 - k),
                                factorial(prefix_total - i1 - k) * factorial(m - i2),
                            )
                            acc += prev * s * ways
                    # block j survives: one survivor comes from this block
                    prev = cells.get((j - 1, k - 1, i1), 0)
                    if prev:
                        s = block_seq_count(m, i2, False)
                        if s:
                            ways = _exact_div(
                                factorial(new_total - i1 - i2 - k),
                                factorial(prefix_total - i1 - k + 1)
                                * factorial(m - i2 - 1),
                            )
                            acc += prev * s * ways
                if acc:
                    cells[(j, k, i)] = acc
        prefix_total = new_total
    return SequenceCountTable(sizes, cells)


# ---------------------------------------------------------------------------
# Public counters
# ---------------------------------------------------------------------------


def _nontrivial_sizes(db: Database, sigma: Iterable[FunctionalDependency]) -> list[int]:
    """Sizes of the blocks of two or more facts, in block order; raises
    ConstraintClassError beyond primary keys."""
    return [b.size for b in blocks(db, frozenset(sigma)) if b.size >= 2]


def count_candidate_repairs(
    db: Database, sigma: Iterable[FunctionalDependency], singleton_only: bool = False
) -> int:
    """Candidate repairs of a primary-key instance: each block of size
    m >= 2 independently keeps one of its facts, or none unless
    singleton_only."""
    out = 1
    for m in _nontrivial_sizes(db, sigma):
        out *= m if singleton_only else m + 1
    return out


def sequence_count_for_profile(sizes: Sequence[int], singleton_only: bool = False) -> int:
    """|CRS| (or |CRS¹|) for a block profile; sizes < 2 are ignored. The
    total does not depend on block order (tested), so the cache keys on
    the sorted sizes."""
    nontrivial = tuple(sorted((m for m in sizes if m >= 2), reverse=True))
    return _profile_count(nontrivial, singleton_only)


@lru_cache(maxsize=4096)
def _profile_count(nontrivial: tuple[int, ...], singleton_only: bool) -> int:
    if singleton_only:
        # Each block picks a survivor and an order for its m-1 removals
        # (m! ways); the per-block removal runs interleave freely.
        removed = sum(m - 1 for m in nontrivial)
        out = factorial(removed)
        for m in nontrivial:
            out = _exact_div(out * factorial(m), factorial(m - 1))
    else:
        table = [1]
        for m in nontrivial:
            table = _shuffle(table, _block_lengths(m))
        out = sum(table)
    return out


def count_complete_sequences(
    db: Database, sigma: Iterable[FunctionalDependency], singleton_only: bool = False
) -> int:
    """|CRS| (or |CRS¹|) of a primary-key instance."""
    return sequence_count_for_profile(_nontrivial_sizes(db, sigma), singleton_only)
