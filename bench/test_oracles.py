"""The benchmark's oracles against brute-force enumeration of the
repairing-sequence tree, on small inputs.

    python3 -m pytest -q bench/test_oracles.py
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import oracles
import workloads


def tree(facts, fds, singleton):
    """Every complete sequence, from the definitions: each step deletes one
    fact of a currently violating pair, or the pair. Yields (probability
    of the path under the uniform-operations walk, resulting repair)."""
    pairs = [frozenset(p) for p in itertools.combinations(sorted(facts), 2)
             if any(p[0][0] == p[1][0] == r and all(p[0][1 + i] == p[1][1 + i] for i in lhs)
                    and any(p[0][1 + i] != p[1][1 + i] for i in rhs) for r, lhs, rhs in fds)]
    ops = sorted({frozenset((f,)) for p in pairs for f in p} | (set() if singleton else set(pairs)),
                 key=sorted)
    if not ops:
        yield Fraction(1), frozenset(facts)
        return
    for op in ops:
        for p, repair in tree(facts - op, fds, singleton):
            yield p / len(ops), repair


def brute(facts, fds, generator):
    """Repair -> probability under the generator, by walking the tree."""
    leaves = list(tree(frozenset(facts), fds, generator.endswith("1")))
    out: dict[frozenset, Fraction] = {}
    if generator.startswith("ur"):
        results = {r for _, r in leaves}
        return {r: Fraction(1, len(results)) for r in results}
    for p, r in leaves:
        out[r] = out.get(r, 0) + (p if generator.startswith("uo") else Fraction(1, len(leaves)))
    return out


def brute_answers(facts, fds, generator, query):
    out: dict[tuple, Fraction] = {}
    for repair, p in brute(facts, fds, generator).items():
        for answer in oracles.query_answers(query, repair):
            out[answer] = out.get(answer, 0) + p
    return out


def brute_counts(facts, fds):
    out = {}
    for singleton, suffix in ((False, ""), (True, "1")):
        leaves = [r for _, r in tree(frozenset(facts), fds, singleton)]
        out["sequences" + suffix] = len(leaves)
        out["repairs" + suffix] = len(set(leaves))
    return out


V_KEY = [("V", (0,), (1,))]


def coloring_facts(nodes, edges, relation="E"):
    facts = {("T", "1")} | {(relation, a, b) for a, b in edges}
    return facts | {("V", u, color) for u in nodes for color in "01"}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("generator", oracles.GENERATORS)
def test_coloring_reduction(seed, generator):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(2, 4))]
    edges = workloads.random_graph(rng, nodes, 0.5)
    facts = coloring_facts(nodes, edges)
    boolean = ((), workloads.MONOCHROME["E"][1] + (("T", (workloads.v("z"),)),))
    assert brute_answers(facts, V_KEY, generator, boolean).get((), 0) == \
        oracles.coloring_probability(nodes, edges, generator)
    mono = brute_answers(facts, V_KEY, generator, workloads.MONOCHROME["E"])
    want = oracles.monochrome_edge_probabilities(nodes, edges, generator)
    assert {k: p for k, p in mono.items() if p} == {(z,): p for z, p in want.items() if p}


@pytest.mark.parametrize("n", range(2, 6))
def test_star(n):
    facts = {("R", "0", "0", "0")} | {("R", "0", "1", str(i)) for i in range(1, n)}
    fds = [("R", (0,), (1,))]
    center = ((), (("R", (("c", "0"), ("c", "0"), ("c", "0"))),))
    for g in oracles.GENERATORS:
        assert brute_answers(facts, fds, g, center).get((), 0) == oracles.star_center_probability(n, g)
    assert brute_counts(facts, fds) == oracles.star_counts(n)


LADDERS = [[2], [3], [2, 2], [2, 3], [4, 2], [3, 2, 2], [3, 3]]


@pytest.mark.parametrize("sizes", LADDERS)
def test_ladder(sizes):
    facts = {("R", f"k{j}", f"v{i}") for j, m in enumerate(sizes) for i in range(m)}
    fds = [("R", (0,), (1,))]
    assert brute_counts(facts, fds) == oracles.ladder_counts(sizes)
    for g in oracles.GENERATORS:
        dist = brute(facts, fds, g)
        for j, m in enumerate(sizes):
            block = {f for f in facts if f[1] == f"k{j}"}
            empty = sum((p for r, p in dist.items() if not r & block), Fraction(0))
            assert empty == oracles.ladder_empty_probability(sizes, j, g)
            for i in range(m):
                kept = sum((p for r, p in dist.items() if ("R", f"k{j}", f"v{i}") in r), Fraction(0))
                assert kept == oracles.ladder_keep_probability(sizes, {j: i}, g)
        if len(sizes) >= 2:
            both = sum((p for r, p in dist.items()
                        if {("R", "k0", "v1"), ("R", "k1", "v1")} <= r), Fraction(0))
            assert both == oracles.ladder_keep_probability(sizes, {0: 1, 1: 1}, g)


def random_wide(rng, n):
    facts = set()
    while len(facts) < n:
        facts.add(("R", f"a{rng.randint(0, 1)}", f"b{rng.randint(0, 2)}", f"c{rng.randint(0, 1)}"))
    return facts


@pytest.mark.parametrize("seed", range(8))
def test_residual_space(seed):
    rng = random.Random(seed)
    if seed % 2:
        facts, fds = random_wide(rng, rng.randint(2, 6)), [("R", (0,), (1,)), ("R", (2,), (1,))]
        query = (("y",), (("R", (("v", "x"), ("v", "y"), ("v", "z"))),))
    else:
        rows = [("x0", "y0")]
        for i in range(1, rng.randint(2, 6)):
            x, y = rows[-1]
            rows.append((x, f"y{i}") if rng.random() < 0.5 else (f"x{i}", y))
        facts, fds = {("R",) + r for r in rows}, [("R", (0,), (1,)), ("R", (1,), (0,))]
        query = (("x",), (("R", (("v", "x"), ("v", "y"))),))
    space = oracles.ResidualSpace(facts, fds)
    assert space.counts == brute_counts(facts, fds)
    for g in oracles.GENERATORS:
        assert space.answer_probabilities(g, query) == brute_answers(facts, fds, g, query)
        marginals = space.fact_marginals(g)
        for f in facts:
            assert marginals[f] == sum(
                (p for r, p in brute(facts, fds, g).items() if f in r), Fraction(0))


def test_large_ladder_sequences_by_egf():
    """T(M) against the exponential-generating-function count."""
    sizes = [3] * 12 + [2] * 5 + [4] * 3
    egf = oracles._us_weight(sizes, lambda j: "SE")
    assert egf == oracles.ladder_sequences(tuple(sorted(sizes)))


def test_miss_limit():
    assert workloads.miss_limit([]) == 0
    assert workloads.miss_limit([0.05] * 10) >= 2
    assert workloads.miss_limit([0.05] * 10) < 10
