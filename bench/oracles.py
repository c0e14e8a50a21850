"""Reference answers for the benchmark, written from the definitions.

Nothing here imports the package under test. Facts are plain tuples
``(relation, value, ...)``; an FD is ``(relation, lhs positions, rhs
positions)``; a query is ``(answer variable names, atoms)`` with each atom
``(relation, terms)`` and each term ``("c", constant)`` or ``("v", name)``.

Generator labels follow the package: ``ur``/``us``/``uo`` pick repairs,
complete sequences or operations uniformly; a trailing ``1`` allows only
single-fact deletions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property, lru_cache

GENERATORS = ("ur", "us", "uo", "ur1", "us1", "uo1")


# ---------------------------------------------------------------------------
# Conjunctive queries
# ---------------------------------------------------------------------------


def query_answers(query, facts) -> set[tuple[str, ...]]:
    """Answer tuples of the query on a set of fact tuples."""
    answer_vars, atoms = query
    by_relation: dict[str, list[tuple]] = {}
    for f in facts:
        by_relation.setdefault(f[0], []).append(f)
    found: set[tuple[str, ...]] = set()

    def extend(i: int, binding: dict[str, str]) -> None:
        if i == len(atoms):
            found.add(tuple(binding[v] for v in answer_vars))
            return
        relation, terms = atoms[i]
        for f in by_relation.get(relation, ()):
            new = dict(binding)
            ok = True
            for (tag, name), value in zip(terms, f[1:]):
                if tag == "c":
                    ok = name == value
                elif new.setdefault(name, value) != value:
                    ok = False
                if not ok:
                    break
            if ok:
                extend(i + 1, new)

    extend(0, {})
    return found


# ---------------------------------------------------------------------------
# General FDs: propagation over residual fact sets
# ---------------------------------------------------------------------------


def conflict_pairs(facts, fds) -> set[frozenset]:
    """Fact pairs that agree on some FD's left side and differ on its right."""
    pairs = set()
    for f, g in itertools.combinations(facts, 2):
        for relation, lhs, rhs in fds:
            if f[0] == g[0] == relation:
                same = all(f[1 + i] == g[1 + i] for i in lhs)
                if same and any(f[1 + i] != g[1 + i] for i in rhs):
                    pairs.add(frozenset((f, g)))
    return pairs


class ResidualSpace:
    """Every residual reachable from the whole database by justified
    deletions, with the exact leaf distributions of the six generators.

    Residuals are bitmasks over the facts that take part in a conflict;
    the other facts survive every sequence.
    """

    def __init__(self, facts, fds):
        self.facts = sorted(set(facts))
        pairs = conflict_pairs(self.facts, fds)
        self.involved = sorted({f for pair in pairs for f in pair})
        self.kept = [f for f in self.facts if f not in set(self.involved)]
        bit = {f: 1 << i for i, f in enumerate(self.involved)}
        self.edges = sorted(sum(bit[f] for f in pair) for pair in pairs)
        self.full = (1 << len(self.involved)) - 1
        self._ops: dict[tuple[int, bool], list[int]] = {}
        self._orders: dict[bool, list[int]] = {}

    def ops(self, mask: int, singleton: bool) -> list[int]:
        """Justified deletions of a residual, as masks of removed facts."""
        key = (mask, singleton)
        if key not in self._ops:
            found = set()
            for edge in self.edges:
                if edge & mask == edge:
                    low = edge & -edge
                    found.update((low, edge ^ low))
                    if not singleton:
                        found.add(edge)
            self._ops[key] = sorted(found)
        return self._ops[key]

    def repair(self, mask: int) -> frozenset:
        chosen = [f for i, f in enumerate(self.involved) if mask >> i & 1]
        return frozenset(self.kept + chosen)

    def _order(self, singleton: bool) -> list[int]:
        if singleton in self._orders:
            return self._orders[singleton]
        seen = {self.full}
        stack = [self.full]
        while stack:
            mask = stack.pop()
            for op in self.ops(mask, singleton):
                child = mask & ~op
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        # deletions only shrink a mask, so larger masks come first
        order = self._orders[singleton] = sorted(seen, key=lambda m: (-bin(m).count("1"), m))
        return order

    def leaf_weights(self, generator: str) -> dict[int, Fraction]:
        """Leaf mask -> probability under the generator."""
        family, singleton = generator[:2], generator.endswith("1")
        order = self._order(singleton)
        leaves = [m for m in order if not self.ops(m, singleton)]
        if family == "ur":
            return {m: Fraction(1, len(leaves)) for m in leaves}
        if family == "us":
            paths = self.path_counts(singleton, order)
            total = sum(paths[m] for m in leaves)
            return {m: Fraction(paths[m], total) for m in leaves}
        mass = {self.full: Fraction(1)}
        for mask in order:
            ops = self.ops(mask, singleton)
            if ops and mask in mass:
                share = mass[mask] / len(ops)
                for op in ops:
                    mass[mask & ~op] = mass.get(mask & ~op, 0) + share
        return {m: mass[m] for m in leaves}

    def path_counts(self, singleton: bool, order=None) -> dict[int, int]:
        order = order if order is not None else self._order(singleton)
        paths = {self.full: 1}
        for mask in order:
            for op in self.ops(mask, singleton):
                paths[mask & ~op] = paths.get(mask & ~op, 0) + paths.get(mask, 0)
        return paths

    @cached_property
    def counts(self) -> dict[str, int]:
        """Candidate repairs and complete sequences, pair and singleton."""
        out = {}
        for singleton, suffix in ((False, ""), (True, "1")):
            order = self._order(singleton)
            leaves = [m for m in order if not self.ops(m, singleton)]
            paths = self.path_counts(singleton, order)
            out["repairs" + suffix] = len(leaves)
            out["sequences" + suffix] = sum(paths[m] for m in leaves)
        return out

    def answer_probabilities(self, generator: str, query) -> dict[tuple, Fraction]:
        """Answer tuple -> probability that the drawn repair returns it."""
        out: dict[tuple, Fraction] = {}
        for mask, p in self.leaf_weights(generator).items():
            for answer in query_answers(query, self.repair(mask)):
                out[answer] = out.get(answer, 0) + p
        return out

    def fact_marginals(self, generator: str) -> dict[tuple, Fraction]:
        """Fact -> probability that it survives."""
        out = {f: Fraction(0) for f in self.facts}
        for mask, p in self.leaf_weights(generator).items():
            for f in self.repair(mask):
                out[f] += p
        return out


# ---------------------------------------------------------------------------
# Coloring and positive-2DNF reductions
# ---------------------------------------------------------------------------


def color_assignments(nodes, singleton: bool):
    """Per-node outcomes of the two-fact blocks V(u,0)/V(u,1): keep 0, keep
    1, or (with pair deletions) keep neither. All six generators give the
    uniform product over these outcomes: every block takes one operation."""
    palette = ("0", "1") if singleton else ("0", "1", "?")
    for colors in itertools.product(palette, repeat=len(nodes)):
        yield dict(zip(nodes, colors))


def hom_count(nodes, edges) -> int:
    """Homomorphisms into the target {0,1,?} with every edge but the loop
    at 1: colorings with no edge whose ends are both 1."""
    return sum(
        all(not (c[a] == c[b] == "1") for a, b in edges)
        for c in color_assignments(nodes, False)
    )


def independent_sets(nodes, edges) -> int:
    """Independent sets of the graph, the empty set included."""
    total = 0
    for r in range(len(nodes) + 1):
        for chosen in itertools.combinations(nodes, r):
            s = set(chosen)
            total += all(not (a in s and b in s) for a, b in edges)
    return total


def coloring_probability(nodes, edges, generator: str) -> Fraction:
    """Boolean reduction query: some edge has both ends colored 1."""
    n = len(nodes)
    if generator.endswith("1"):
        return 1 - Fraction(independent_sets(nodes, edges), 2**n)
    return 1 - Fraction(hom_count(nodes, edges), 3**n)


def monochrome_edge_probabilities(nodes, edges, generator: str) -> dict[str, Fraction]:
    """Color z -> probability that some edge has both ends colored z."""
    singleton = generator.endswith("1")
    total = 3 ** len(nodes) if not singleton else 2 ** len(nodes)
    hits = {"0": 0, "1": 0}
    for c in color_assignments(nodes, singleton):
        for z in hits:
            hits[z] += any(c[a] == c[b] == z for a, b in edges)
    return {z: Fraction(h, total) for z, h in hits.items()}


# ---------------------------------------------------------------------------
# The star family (one center conflicting with k satellites)
# ---------------------------------------------------------------------------


def star_sequences(k: int, singleton: bool) -> int:
    s = 1
    for j in range(1, k + 1):
        s = 1 + j * s if singleton else 1 + j + j * s
    return s


def star_center_probability(n: int, generator: str) -> Fraction:
    """Probability that the center of the n-fact star survives."""
    k = n - 1
    family, singleton = generator[:2], generator.endswith("1")
    if family == "ur":
        return Fraction(1, 2**k) if singleton else Fraction(1, 2**k + 1)
    if family == "us":
        return Fraction(math.factorial(k), star_sequences(k, singleton))
    if singleton:
        return Fraction(1, n)
    p = Fraction(1)
    for j in range(1, k + 1):
        p *= Fraction(j, 2 * j + 1)
    return p


def star_counts(n: int) -> dict[str, int]:
    k = n - 1
    return {
        "repairs": 2**k + 1,
        "repairs1": 2**k,
        "sequences": star_sequences(k, False),
        "sequences1": star_sequences(k, True),
    }


# ---------------------------------------------------------------------------
# Primary-key ladders (independent blocks of given sizes)
# ---------------------------------------------------------------------------


def ladder_counts(sizes) -> dict[str, int]:
    sizes = [m for m in sizes if m >= 2]
    repairs = math.prod(m + 1 for m in sizes)
    repairs1 = math.prod(sizes)
    sequences1 = math.factorial(sum(m - 1 for m in sizes)) * math.prod(sizes)
    return {
        "repairs": repairs,
        "repairs1": repairs1,
        "sequences": ladder_sequences(tuple(sorted(sizes))),
        "sequences1": sequences1,
    }


def ladder_sequences(sizes: tuple[int, ...]) -> int:
    """T(M): complete sequences over blocks of the given sizes. Each step
    deletes one fact (m ways) or a pair (C(m,2) ways) of some block."""
    counts = tuple(sizes.count(m) for m in range(2, max(sizes, default=1) + 1))
    return _t(counts)


@lru_cache(maxsize=None)
def _t(counts: tuple[int, ...]) -> int:
    # counts[i] blocks have size i + 2
    total = 0
    for i, c in enumerate(counts):
        if not c:
            continue
        m = i + 2
        for removed, ways in ((1, m), (2, m * (m - 1) // 2)):
            nxt = list(counts)
            nxt[i] -= 1
            if m - removed >= 2:
                nxt[m - removed - 2] += 1
            total += c * ways * _t(tuple(nxt))
    return total if any(counts) else 1


@lru_cache(maxsize=None)
def block_walk_survival(r: int) -> Fraction:
    """Probability that a uniform-operation walk on a block of r facts
    ends with one survivor."""
    if r <= 1:
        return Fraction(r)
    pairs = r * (r - 1) // 2
    return (r * block_walk_survival(r - 1) + pairs * block_walk_survival(r - 2)) / (
        r + pairs
    )


@lru_cache(maxsize=None)
def block_sequences(r: int) -> dict[tuple[str, int], int]:
    """(outcome, length) -> sequences inside one block of r facts, where
    the outcome is "S" (one survivor) or "E" (emptied)."""
    if r <= 1:
        return {("S" if r else "E", 0): 1}
    out: dict[tuple[str, int], int] = {}
    for removed, ways in ((1, r), (2, r * (r - 1) // 2)):
        for (outcome, length), n in block_sequences(r - removed).items():
            key = (outcome, length + 1)
            out[key] = out.get(key, 0) + ways * n
    return out


def _us_weight(sizes, outcome_of) -> Fraction:
    """Complete sequences over all blocks whose block j ends with an
    outcome allowed by outcome_of(j), as a sum over interleavings: the
    product of per-block exponential generating functions."""
    poly = [Fraction(1)]
    for j, m in enumerate(sizes):
        allowed = outcome_of(j)
        block = {}
        for (outcome, length), n in block_sequences(m).items():
            if outcome in allowed:
                block[length] = block.get(length, 0) + Fraction(n, math.factorial(length))
        new = [Fraction(0)] * (len(poly) + max(block, default=0))
        for i, a in enumerate(poly):
            if a:
                for length, b in block.items():
                    new[i + length] += a * b
        poly = new
    return sum(c * math.factorial(L) for L, c in enumerate(poly))


def ladder_keep_probability(sizes, kept: dict[int, int], generator: str) -> Fraction:
    """Probability that block j keeps its fact number kept[j] for every j
    in kept; sizes are the block sizes, all >= 2."""
    family, singleton = generator[:2], generator.endswith("1")
    if any(kept[j] >= sizes[j] for j in kept):
        return Fraction(0)
    symmetry = Fraction(1, math.prod(sizes[j] for j in kept))
    if singleton:
        return symmetry  # every block keeps exactly one fact, uniformly
    if family == "ur":
        return math.prod(Fraction(1, sizes[j] + 1) for j in kept)
    if family == "uo":
        return symmetry * math.prod(block_walk_survival(sizes[j]) for j in kept)
    both = "SE"
    survive = _us_weight(sizes, lambda j: "S" if j in kept else both)
    return symmetry * survive / _us_weight(sizes, lambda j: both)


def ladder_empty_probability(sizes, j: int, generator: str) -> Fraction:
    """Probability that block j loses all its facts."""
    family, singleton = generator[:2], generator.endswith("1")
    if singleton:
        return Fraction(0)
    if family == "ur":
        return Fraction(1, sizes[j] + 1)
    if family == "uo":
        return 1 - block_walk_survival(sizes[j])
    both = "SE"
    empty = _us_weight(sizes, lambda i: "E" if i == j else both)
    return empty / _us_weight(sizes, lambda i: both)
