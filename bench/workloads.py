"""The three workloads: inputs built from the seed, the requests of one
round, and a check of every output against the oracles.

A request is a CLI argument list plus a check that receives the parsed
JSON records and raises CheckError on a wrong answer. Oracles run inside
the checks, so their cost stays out of set-up and out of request time.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import oracles

Z_LIMIT = 5  # binomial standard deviations allowed for a pooled frequency
MISS_TAIL = 1e-6  # chance that an honest estimator exceeds the miss bound
ALL = oracles.GENERATORS
SINGLE = ("ur1", "us1", "uo1")


class CheckError(Exception):
    """An output disagrees with the oracle or breaks a property."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Request:
    argv: list[str]
    check: Callable[[list[dict]], None]


# ---------------------------------------------------------------------------
# Instance and query files
# ---------------------------------------------------------------------------


class Instance:
    """An instance file and its facts and FDs in oracle form."""

    def __init__(self, path: str):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        self.path = path
        self.facts = [tuple(row) for row in data["facts"]]
        schema = data["schema"]
        self.fds = [
            (
                fd["relation"],
                tuple(schema[fd["relation"]].index(a) for a in fd["lhs"]),
                tuple(schema[fd["relation"]].index(a) for a in fd["rhs"]),
            )
            for fd in data["fds"]
        ]
        self.adom = sorted({v for f in self.facts for v in f[1:]})

    @classmethod
    def write(cls, path, schema, facts, fds) -> "Instance":
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "schema": schema,
                    "facts": [list(f) for f in facts],
                    "fds": [{"relation": r, "lhs": l, "rhs": h} for r, l, h in fds],
                },
                handle,
            )
        return cls(path)

    @cached_property
    def space(self) -> oracles.ResidualSpace:
        return oracles.ResidualSpace(self.facts, self.fds)

    @cached_property
    def pairs(self) -> set[frozenset]:
        return oracles.conflict_pairs(self.facts, self.fds)

    @cached_property
    def key_blocks(self) -> list[list[tuple]]:
        """Blocks of two or more facts under primary keys (one FD per
        relation, its left side a key)."""
        groups: dict[tuple, list[tuple]] = {}
        for relation, lhs, _ in self.fds:
            for f in self.facts:
                if f[0] == relation:
                    groups.setdefault((relation,) + tuple(f[1 + i] for i in lhs), []).append(f)
        return [sorted(g) for _, g in sorted(groups.items()) if len(g) >= 2]


def write_query(path: str, query) -> str:
    answer_vars, atoms = query
    terms = lambda ts: [{"const" if t == "c" else "var": v} for t, v in ts]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "answer_vars": list(answer_vars),
                "atoms": [{"relation": r, "terms": terms(ts)} for r, ts in atoms],
            },
            handle,
        )
    return path


def c(value: str):
    return ("c", value)


def v(name: str):
    return ("v", name)


# the answer is a color z that some edge (or clause) has at both ends
MONOCHROME = {
    rel: (("z",), ((rel, (v("x"), v("y"))), ("V", (v("x"), v("z"))), ("V", (v("y"), v("z")))))
    for rel in ("E", "C")
}


# ---------------------------------------------------------------------------
# Instance families
# ---------------------------------------------------------------------------


def random_graph(rng: random.Random, nodes: list[str], density: float = 0.35):
    """A random graph with a fixed share of the possible edges, so that
    every seed gives the query the same amount of work."""
    pairs = list(itertools.combinations(nodes, 2))
    return sorted(rng.sample(pairs, max(1, round(density * len(pairs)))))


def generate(cli_main, d: str, name: str, *args: str) -> tuple[Instance, str]:
    """An instance and its query written by the package's own generators
    (`opcqa gen`)."""
    path, qpath = os.path.join(d, name + ".json"), os.path.join(d, name + ".q.json")
    cli_main(["gen", *args, "--out", path, "--query-out", qpath])
    return Instance(path), qpath


def gen_hcoloring(cli_main, d: str, name: str, nodes, edges) -> tuple[Instance, str]:
    return generate(cli_main, d, name, "--kind", "hcoloring", "--nodes", ",".join(nodes),
                    "--edges", ",".join(f"{a}-{b}" for a, b in edges))


def random_formula(rng: random.Random, variables: list[str]):
    """Clauses that mention every variable: a random pairing plus extras."""
    order = rng.sample(variables, len(variables))
    clauses = {tuple(sorted(order[i:i + 2])) for i in range(0, len(order) - 1, 2)}
    if len(order) % 2:
        clauses.add(tuple(sorted((order[-1], order[0]))))
    pairs = list(itertools.combinations(variables, 2))
    while len(clauses) < len(variables) // 2 + len(variables) % 2 + 2:
        clauses.add(rng.choice(pairs))
    return sorted(clauses)


LADDER_SCHEMA = {"R": ["K", "V"]}
LADDER_KEY = [("R", ["K"], ["V"])]


def ladder(d: str, name: str, keys: list[str], sizes) -> Instance:
    facts = [("R", k, f"v{i}") for k, m in zip(keys, sizes) for i in range(m)]
    return Instance.write(os.path.join(d, name + ".json"), LADDER_SCHEMA, facts, LADDER_KEY)


WIDE_SCHEMA = {"R": ["A", "B", "C"]}
WIDE_FDS = [("R", ["A"], ["B"]), ("R", ["C"], ["B"])]


def wide_instance(rng: random.Random, d: str, name: str, n: int) -> Instance:
    """n random R(A,B,C) facts under A->B and C->B whose conflict graph
    is one component covering every fact."""
    fds = [("R", (0,), (1,)), ("R", (2,), (1,))]
    while True:
        facts = set()
        while len(facts) < n:
            facts.add(("R", f"a{rng.randint(0, 2)}", f"b{rng.randint(0, 3)}", f"c{rng.randint(0, 2)}"))
        facts = sorted(facts)
        if _connected(facts, oracles.conflict_pairs(facts, fds)):
            return Instance.write(os.path.join(d, name + ".json"), WIDE_SCHEMA, facts, WIDE_FDS)


def chain_instance(rng: random.Random, d: str, name: str, n: int) -> Instance:
    """n facts R(A1,A2) under the two keys A1->A2 and A2->A1, each fact
    sharing one side with the previous one and a fresh value on the other:
    a chain of key cliques, one connected component."""
    rows = [("x0", "y0")]
    for i in range(1, n):
        x, y = rows[-1]
        rows.append((x, f"y{i}") if rng.random() < 0.5 else (f"x{i}", y))
    facts = [("R",) + row for row in rows]
    return Instance.write(
        os.path.join(d, name + ".json"),
        {"R": ["A1", "A2"]},
        facts,
        [("R", ["A1"], ["A2"]), ("R", ["A2"], ["A1"])],
    )


def _connected(facts, pairs) -> bool:
    adjacent = {f: set() for f in facts}
    for pair in pairs:
        f, g = tuple(pair)
        adjacent[f].add(g)
        adjacent[g].add(f)
    seen, stack = {facts[0]}, [facts[0]]
    while stack:
        for g in adjacent[stack.pop()] - seen:
            seen.add(g)
            stack.append(g)
    return len(seen) == len(facts)


# ---------------------------------------------------------------------------
# Checks of exact and count records
# ---------------------------------------------------------------------------


def _probability(record: dict) -> Fraction:
    field = record["probability"]
    value = Fraction(field["rational"])
    expect(math.isclose(field["float"], float(value), rel_tol=1e-12, abs_tol=1e-300),
           f"float {field['float']} does not match {field['rational']}")
    return value


def check_exact(expected: Callable[[], dict], adom=None, arity: int = 0):
    """expected() maps answer tuples to probabilities (absent means 0).
    Boolean when arity is 0; otherwise one record per adom tuple."""

    def check(records: list[dict]) -> None:
        truth = expected()
        if arity == 0:
            expect(len(records) == 1 and "tuple" not in records[0], "one Boolean record expected")
            got = {(): _probability(records[0])}
        else:
            got = {tuple(r["tuple"]): _probability(r) for r in records}
            expect(len(got) == len(records), "repeated answer tuple")
            expect(set(got) == set(itertools.product(adom, repeat=arity)),
                   "--all-answers must cover every tuple over the active domain")
        for answer, p in got.items():
            want = truth.get(answer, Fraction(0))
            expect(p == want, f"tuple {answer}: got {p}, oracle says {want}")

    return check


def check_count(expected: Callable[[], int]):
    def check(records: list[dict]) -> None:
        expect(len(records) == 1, "one count record expected")
        want = expected()
        expect(records[0]["count"] == str(want), f"count {records[0]['count']}, oracle says {want}")

    return check


def exact_requests(inst: Instance, qpath: str, generators, truth, arity: int = 0):
    """truth(generator) -> {answer tuple: probability}."""
    flags = ["--all-answers"] if arity else []
    return [
        Request(["exact", inst.path, qpath, "--generator", g, *flags],
                check_exact(lambda g=g: truth(g), inst.adom, arity))
        for g in generators
    ]


def count_requests(inst: Instance, counts: Callable[[], dict]):
    return [
        Request(["count", inst.path, "--what", what], check_count(lambda w=what: counts()[w]))
        for what in ("repairs", "repairs1", "sequences", "sequences1")
    ]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name: str
    cold: bool  # True: every request starts from a fresh package state

    def inputs(self, cli_main, rng: random.Random, round_no: int, d: str) -> list[Request]:
        """Write one round's files into d and return its requests."""
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Failures of checks pooled over the whole run."""
        return []


class ExactBlocks(Workload):
    """Many small independent conflict components: two-fact blocks of the
    coloring and 2DNF reductions, and primary-key ladders."""

    name = "exact-blocks"
    cold = True

    def inputs(self, cli_main, rng: random.Random, round_no: int, d: str) -> list[Request]:
        out: list[Request] = []
        tag = f"r{round_no}"
        for n, generators, all_answers in ((6, ALL, True), (7, ALL, False), (8, SINGLE, False)):
            nodes = [f"{tag}n{i}" for i in range(n)]
            edges = random_graph(rng, nodes)
            inst, qpath = gen_hcoloring(cli_main, d, f"hc{n}", nodes, edges)
            out += exact_requests(inst, qpath, generators, lambda g, nodes=nodes, edges=edges: {
                (): oracles.coloring_probability(nodes, edges, g)})
            if all_answers:
                out += self._monochrome(inst, d, f"hc{n}", "E", nodes, edges)

        variables = [f"{tag}x{i}" for i in range(6)]
        clauses = random_formula(rng, variables)
        inst, qpath = generate(cli_main, d, "dnf", "--kind", "pos2dnf",
                               "--clauses", ",".join(f"{a}&{b}" for a, b in clauses))
        nodes = ["@" + x for x in variables]
        edges = [("@" + a, "@" + b) for a, b in clauses]
        out += exact_requests(inst, qpath, ALL, lambda g, nodes=nodes, edges=edges: {
            (): oracles.coloring_probability(nodes, edges, g)})
        out += self._monochrome(inst, d, "dnf", "C", nodes, edges)

        sizes = rng.sample([2, 2, 2, 2, 2, 3], 6)
        keys = [f"{tag}k{j}" for j in range(len(sizes))]
        inst = ladder(d, "ladder", keys, sizes)
        a, b = rng.sample(range(len(sizes)), 2)
        qpath = write_query(os.path.join(d, "ladder.q.json"),
                            (("x",), (("R", (c(keys[a]), v("x"))), ("R", (c(keys[b]), v("x"))))))
        out += exact_requests(inst, qpath, ALL, lambda g, sizes=sizes: {
            (f"v{i}",): oracles.ladder_keep_probability(sizes, {a: i, b: i}, g)
            for i in range(max(sizes))}, arity=1)

        for name, count_sizes in (("count25", [3] * 25), ("count60", [3] * 60),
                                  ("count40", rng.sample([2, 3, 4] * 13 + [3], 40))):
            inst = ladder(d, name, [f"{tag}{name}k{j}" for j in range(len(count_sizes))], count_sizes)
            out += count_requests(inst, lambda s=count_sizes: oracles.ladder_counts(s))
        return out

    @staticmethod
    def _monochrome(inst, d, name, relation, nodes, edges):
        qpath = write_query(os.path.join(d, name + ".mono.q.json"), MONOCHROME[relation])
        return exact_requests(inst, qpath, ALL, lambda g: {
            (z,): p for z, p in oracles.monochrome_edge_probabilities(nodes, edges, g).items()
        }, arity=1)


class ExactConnected(Workload):
    """Instances whose conflicts form a single component, so there is
    nothing to factorise: the star family, random instances under two
    overlapping FDs, and chains under two keys."""

    name = "exact-connected"
    cold = True

    def inputs(self, cli_main, rng: random.Random, round_no: int, d: str) -> list[Request]:
        out: list[Request] = []
        n = 12
        inst, qpath = generate(cli_main, d, "star", "--kind", "fdstar", "--n", str(n))
        out += exact_requests(inst, qpath, ALL, lambda g: {(): oracles.star_center_probability(n, g)})
        out += count_requests(inst, lambda: oracles.star_counts(n))

        for name, inst, query in (
            ("wide11", wide_instance(rng, d, "wide11", 11), (("y",), (("R", (v("x"), v("y"), v("z"))),))),
            ("wide12", wide_instance(rng, d, "wide12", 12), (("y",), (("R", (v("x"), v("y"), v("z"))),))),
            ("chain", chain_instance(rng, d, "chain", 12), (("x",), (("R", (v("x"), v("y"))),))),
        ):
            qpath = write_query(os.path.join(d, name + ".q.json"), query)
            out += exact_requests(inst, qpath, ALL, lambda g, inst=inst, query=query:
                                  inst.space.answer_probabilities(g, query), arity=1)
            out += count_requests(inst, lambda inst=inst: inst.space.counts)
        return out


# ---------------------------------------------------------------------------
# Sample replay and pooled statistics
# ---------------------------------------------------------------------------

_FACT = re.compile(r"(\w+)\(([^()]*)\)")


def parse_facts(text: str) -> frozenset:
    return frozenset((rel,) + tuple(args.split(",")) for rel, args in _FACT.findall(text))


def replay(inst: Instance, g: str, record: dict) -> frozenset:
    """Check one drawn outcome and return its repair. Each operation must
    delete one fact of a pair violating an FD in the current residual, or
    that whole pair; the final residual must be consistent and equal the
    printed repair. A violation is a property of the pair alone, so the
    residual's violating pairs are the instance's pairs inside it."""
    repair = parse_facts(" ".join(record["repair"]))
    facts = frozenset(inst.facts)
    expect(repair <= facts, "repair holds facts outside the instance")
    expect(not any(pair <= repair for pair in inst.pairs), "repair violates an FD")
    if g.startswith("ur"):
        expect(record["sequence"] is None, "uniform-repair draws carry no sequence")
        outside = facts - frozenset(f for block in inst.key_blocks for f in block)
        expect(outside <= repair, "a fact outside every block was deleted")
        for block in inst.key_blocks:
            kept = len(repair & set(block))
            expect(kept == 1 if g == "ur1" else kept <= 1, f"block kept {kept} facts")
        return repair
    residual = set(facts)
    for op in record["sequence"]:
        removed = parse_facts(op)
        expect(removed <= residual, f"{op} deletes a fact already gone")
        if len(removed) == 2:
            expect(g[-1] != "1", f"{g} draws delete single facts only")
            expect(removed in inst.pairs, f"{op} is not a violating pair")
        else:
            (f,) = removed
            expect(any(f in pair and pair <= residual for pair in inst.pairs),
                   f"{op} is not justified")
        residual -= removed
    expect(frozenset(residual) == repair, "replayed sequence ends elsewhere than the printed repair")
    return repair


def miss_limit(deltas: list[float]) -> int:
    """Largest miss count an honest estimator exceeds with chance at most
    MISS_TAIL, each estimate missing with chance at most its delta."""
    dist = [1.0]
    for d in deltas:
        dist = [a * (1 - d) + b * d for a, b in zip(dist + [0.0], [0.0] + dist)]
    tail = 1.0
    for t, p in enumerate(dist):
        tail -= p
        if tail <= MISS_TAIL:
            return t
    return len(deltas)


def block_events(inst: Instance, g: str):
    """(label, test on a repair, probability) per fact and per emptied
    block of a primary-key instance."""
    blocks = inst.key_blocks
    sizes = [len(b) for b in blocks]
    for j, block in enumerate(blocks):
        keep = oracles.ladder_keep_probability(sizes, {j: 0}, g)
        for f in block:
            yield str(f), (lambda r, f=f: f in r), keep
        members = frozenset(block)
        yield f"{block[0][:2]} emptied", (lambda r, m=members: not r & m), \
            oracles.ladder_empty_probability(sizes, j, g)


def fact_events(inst: Instance, g: str):
    for f, p in inst.space.fact_marginals(g).items():
        yield str(f), (lambda r, f=f: f in r), p


class MonteCarlo(Workload):
    """Repeated sampling and estimation against a few fixed instances, so
    the package's memos are reused across requests."""

    name = "monte-carlo"
    cold = False

    def __init__(self):
        self.draws: dict[tuple[str, str], list[frozenset]] = {}
        self.events: dict[tuple[str, str], Callable] = {}
        self.misses: list[tuple[float, bool]] = []

    def inputs(self, cli_main, rng: random.Random, round_no: int, d: str) -> list[Request]:
        out: list[Request] = []
        seed = rng.randrange(1 << 30)

        sizes8 = rng.sample([2, 2, 3, 3, 3, 3, 4, 4], 8)
        l8 = ladder(d, "l8", [f"k{j}" for j in range(8)], sizes8)
        l25 = ladder(d, "l25", [f"k{j}" for j in range(25)], [3] * 25)
        nodes8 = [f"n{i}" for i in range(8)]
        hc8, _ = gen_hcoloring(cli_main, d, "hc8", nodes8, random_graph(rng, nodes8))
        nodes6 = [f"m{i}" for i in range(6)]
        edges6 = random_graph(rng, nodes6)
        hc6, hc6q = gen_hcoloring(cli_main, d, "hc6", nodes6, edges6)
        star, starq = generate(cli_main, d, "star", "--kind", "fdstar", "--n", "10")
        wide = wide_instance(rng, d, "wide", 10)
        chain = chain_instance(rng, d, "chain", 10)

        # the 25-block ladder takes few uo draws: every walk memoises the
        # residuals it visits, at about 10 KB each
        for inst, generators, n, events in (
            (l8, ALL, 200, block_events), (hc8, ALL, 200, block_events),
            (l25, ("uo", "uo1"), 20, block_events), (star, ("uo", "uo1"), 200, fact_events),
            (wide, ("uo", "uo1"), 200, fact_events), (chain, ("uo", "uo1"), 200, fact_events),
        ):
            for g in generators:
                out.append(self._sample(inst, g, n, seed + len(out), events))

        j = rng.choice([b for b, m in enumerate(sizes8) if m == 3])  # fixes the truths
        i = rng.randrange(3)
        l8q = write_query(os.path.join(d, "l8.q.json"), ((), (("R", (c(f"k{j}"), c(f"v{i}"))),)))
        l8_truth = lambda g: oracles.ladder_keep_probability(sizes8, {j: i}, g)
        hc6_truth = lambda g: oracles.coloring_probability(nodes6, edges6, g)
        estimates = (
            # numpy vector streams: uo walks over at most 16 conflict facts,
            # uniform repairs under primary keys
            (hc6, hc6q, "uo", "additive", "0.05", "0.05", hc6_truth),
            (hc6, hc6q, "uo", "adaptive", "0.1", "0.05", hc6_truth),
            (star, starq, "uo1", "multiplicative", "0.2", "0.1",
             lambda g: oracles.star_center_probability(10, g)),
            (l8, l8q, "ur", "additive", "0.05", "0.05", l8_truth),
            (l8, l8q, "ur", "multiplicative", "0.1", "0.05", l8_truth),
            (l8, l8q, "ur1", "adaptive", "0.1", "0.05", l8_truth),
            # scalar stream: uniform sequences, and uo over 24 conflict facts
            (l8, l8q, "us", "additive", "0.1", "0.1", l8_truth),
            (l8, l8q, "us1", "additive", "0.1", "0.1", l8_truth),
            (l8, l8q, "uo", "adaptive", "0.2", "0.1", l8_truth),
            (l8, l8q, "uo1", "multiplicative", "0.3", "0.2", l8_truth),
        )
        for inst, qpath, g, mode, eps, delta, truth in estimates:
            argv = ["approx", inst.path, qpath, "--generator", g, "--mode", mode,
                    "--eps", eps, "--delta", delta, "--seed", str(seed + len(out))]
            out.append(Request(argv, self._estimate(g, mode, float(eps), float(delta),
                                                    lambda g=g, t=truth: t(g))))
        return out

    def _sample(self, inst: Instance, g: str, n: int, seed: int, events) -> Request:
        key = (inst.path, g)
        draws = self.draws[key] = []
        self.events[key] = lambda: events(inst, g)

        def check(records: list[dict]) -> None:
            expect(len(records) == n, f"{n} draws expected, got {len(records)}")
            draws.extend(replay(inst, g, record) for record in records)

        return Request(["sample", inst.path, "--generator", g, "-n", str(n), "--seed", str(seed)], check)

    def _estimate(self, g: str, mode: str, eps: float, delta: float, truth):
        def check(records: list[dict]) -> None:
            expect(len(records) == 1, "one estimate record expected")
            record = records[0]
            value = float(_probability(record))
            expect(record["generator"] == g, "generator not echoed")
            expect(not record["flagged_zero"], f"{g} {mode} estimate flagged zero")
            if mode == "additive":
                want = math.ceil(math.log(2 / delta) / (2 * eps * eps))
                expect(record["samples_used"] == want,
                       f"additive samples_used {record['samples_used']}, Hoeffding says {want}")
                allowed = eps
            else:
                allowed = eps * float(truth())
            self.misses.append((delta, abs(value - float(truth())) > allowed))

        return check

    def finish(self) -> list[str]:
        """Pooled checks over every distinct draw and estimate."""
        failures = []
        for key, draws in self.draws.items():
            n = len(draws)
            for label, test, p in self.events[key]() if n else ():
                k = sum(map(test, draws))
                p = float(p)
                if abs(k - n * p) > Z_LIMIT * math.sqrt(n * p * (1 - p)) + 1e-9:
                    failures.append(f"{key}: {label} in {k} of {n} draws, oracle {p:.4f}")
        missed = sum(m for _, m in self.misses)
        limit = miss_limit([d for d, _ in self.misses])
        if missed > limit:
            failures.append(f"{missed} of {len(self.misses)} estimates missed, bound {limit}")
        return failures


WORKLOADS = {w.name: w for w in (ExactBlocks, ExactConnected, MonteCarlo)}
