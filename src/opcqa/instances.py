"""Reduction constructions and counterexample families.

Each generator returns (database, FD set, Boolean query) shaped so that
an exact or sampled answer probability reveals a combinatorial quantity:
graph homomorphism counts into a fixed three-node target, satisfying
assignments of positive 2DNF formulas, an exponentially small witness
probability that rules out polynomial lower bounds for pair removals
under plain FDs, and a key-lifting construction that adds exactly one
candidate repair.

Fresh constants carry the reserved prefix "@" to stay disjoint from the
active domain of any input database.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import SizeCapError
from .queries import Atom, ConjunctiveQuery, Constant, Variable
from .relational import (
    Database,
    FunctionalDependency,
    Schema,
    fact,
    is_keys,
)
from .repairs import _nontrivially_connected

__all__ = [
    "UndirectedGraph",
    "TARGET_GRAPH",
    "Pos2DNF",
    "gen_hcoloring_instance",
    "hom_count_via_cqa",
    "brute_force_hom_count",
    "gen_pos2dnf_instance",
    "sat_count_brute",
    "gen_fd_star",
    "gen_fd_lift",
]

BRUTE_FORCE_NODE_CAP = 12
BRUTE_FORCE_VARIABLE_CAP = 20


@dataclass(frozen=True)
class UndirectedGraph:
    """Finite undirected graph; an edge is a 1- or 2-element node set
    (singletons are loops, allowed only in the fixed target graph)."""

    nodes: tuple[str, ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("duplicate node names")
        members = set(self.nodes)
        for edge in self.edges:
            if not 1 <= len(edge) <= 2:
                raise ValueError(f"bad edge {set(edge)!r}")
            if not edge <= members:
                raise ValueError(f"edge {set(edge)!r} references unknown nodes")

    @classmethod
    def of(cls, nodes, edges) -> "UndirectedGraph":
        return cls(tuple(nodes), frozenset(frozenset(e) for e in edges))

    @property
    def has_loop(self) -> bool:
        return any(len(e) == 1 for e in self.edges)

    def sorted_edges(self) -> list[tuple[str, ...]]:
        return sorted(tuple(sorted(e)) for e in self.edges)


# Coloring target: nodes {0, 1, ?}, every edge present except the loop
# at 1. Homomorphisms into it are exactly the colorings with no adjacent
# pair of 1s.
TARGET_GRAPH = UndirectedGraph.of(
    "01?",
    [("0", "1"), ("0", "?"), ("1", "?"), ("0",), ("?",)],
)


@dataclass(frozen=True)
class Pos2DNF:
    """Positive 2DNF formula: a disjunction of conjunctive clauses, each
    a pair of distinct variables."""

    clauses: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("formula needs at least one clause")
        for clause in self.clauses:
            if len(clause) != 2:
                raise ValueError("each clause joins two distinct variables")

    @classmethod
    def of(cls, *clauses) -> "Pos2DNF":
        return cls(tuple(frozenset(c) for c in clauses))

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted({v for clause in self.clauses for v in clause}))

    def satisfied_by(self, assignment: dict[str, bool]) -> bool:
        return any(all(assignment[v] for v in clause) for clause in self.clauses)


# ---------------------------------------------------------------------------
# Coloring reduction
# ---------------------------------------------------------------------------

_COLOR_SCHEMA = Schema.of(V=("A", "B"), E=("A", "B"), T=("A",))
_VALUE_KEY = frozenset([FunctionalDependency.of("V", ("A",), ("B",))])


def _color_query(edge_relation: str) -> ConjunctiveQuery:
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return ConjunctiveQuery(
        (
            Atom(edge_relation, (x, y)),
            Atom("V", (x, z)),
            Atom("V", (y, z)),
            Atom("T", (z,)),
        )
    )


def gen_hcoloring_instance(
    g: UndirectedGraph,
) -> tuple[Database, frozenset[FunctionalDependency], ConjunctiveQuery]:
    """Database whose candidate repairs are the {0,1,?}-colorings of g.

    Each node gets a conflicting pair V(u,0)/V(u,1); keeping one, the
    other, or neither encodes its color. The Boolean query fires exactly
    on colorings with two adjacent 1s, so the probability of *not*
    answering counts homomorphisms into the target graph.
    """
    if g.has_loop:
        raise ValueError("input graph must be loop-free")
    facts = [fact("T", "1")]
    for u in sorted(g.nodes):
        facts.append(fact("V", u, "0"))
        facts.append(fact("V", u, "1"))
    for a, b in g.sorted_edges():
        facts.append(fact("E", a, b))
    return Database.of(_COLOR_SCHEMA, facts), _VALUE_KEY, _color_query("E")


def hom_count_via_cqa(g: UndirectedGraph, rrfreq_value: Fraction) -> int:
    """Recover hom(g -> target) from the uniform-repair answer frequency
    of the coloring instance: 3^|nodes| * (1 - frequency)."""
    scaled = 3 ** len(g.nodes) * (1 - Fraction(rrfreq_value))
    if scaled.denominator != 1 or scaled < 0:
        raise ValueError(f"frequency {rrfreq_value} is not a coloring frequency of g")
    return int(scaled)


def brute_force_hom_count(g: UndirectedGraph) -> int:
    """Exhaustive homomorphism count into the fixed target graph."""
    if len(g.nodes) > BRUTE_FORCE_NODE_CAP:
        raise SizeCapError(
            f"{len(g.nodes)} nodes exceeds the brute-force cap {BRUTE_FORCE_NODE_CAP}"
        )
    edges = g.sorted_edges()
    total = 0
    for colors in itertools.product("01?", repeat=len(g.nodes)):
        image = dict(zip(g.nodes, colors))
        if all(
            frozenset((image[a], image[b])) in TARGET_GRAPH.edges for a, b in edges
        ):
            total += 1
    return total


# ---------------------------------------------------------------------------
# Positive 2DNF reduction
# ---------------------------------------------------------------------------

_DNF_SCHEMA = Schema.of(V=("A", "B"), C=("A", "B"), T=("A",))


def gen_pos2dnf_instance(
    phi: Pos2DNF,
) -> tuple[Database, frozenset[FunctionalDependency], ConjunctiveQuery]:
    """Database whose singleton repairs are the truth assignments of phi.

    Variables become conflicting V-pairs keyed by fresh constants "@x";
    the query fires on assignments making some clause true, so the
    singleton uniform-repair frequency is |sat(phi)| / 2^|variables|.
    """
    facts = [fact("T", "1")]
    for v in phi.variables:
        facts.append(fact("V", f"@{v}", "0"))
        facts.append(fact("V", f"@{v}", "1"))
    for clause in sorted(tuple(sorted(c)) for c in phi.clauses):
        facts.append(fact("C", f"@{clause[0]}", f"@{clause[1]}"))
    return Database.of(_DNF_SCHEMA, facts), _VALUE_KEY, _color_query("C")


def sat_count_brute(phi: Pos2DNF) -> int:
    """Exhaustive satisfying-assignment count."""
    names = phi.variables
    if len(names) > BRUTE_FORCE_VARIABLE_CAP:
        raise SizeCapError(
            f"{len(names)} variables exceeds the cap {BRUTE_FORCE_VARIABLE_CAP}"
        )
    total = 0
    for bits in itertools.product((False, True), repeat=len(names)):
        if phi.satisfied_by(dict(zip(names, bits))):
            total += 1
    return total


# ---------------------------------------------------------------------------
# Star family: no polynomial bound for pair removals under plain FDs
# ---------------------------------------------------------------------------

_STAR_SCHEMA = Schema.of(R=("A1", "A2", "A3"))
_STAR_FDS = frozenset([FunctionalDependency.of("R", ("A1",), ("A2",))])


def gen_fd_star(
    n: int,
) -> tuple[Database, frozenset[FunctionalDependency], ConjunctiveQuery]:
    """n-fact family where the probability of retaining the center fact
    is positive yet at most 1/2^(n-1) under uniform-operations walks:
    R(0,0,0) conflicts with each of the n-1 satellites R(0,1,i), while
    satellites never conflict with each other.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    facts = [fact("R", "0", "0", "0")]
    for i in range(1, n):
        facts.append(fact("R", "0", "1", str(i)))
    query = ConjunctiveQuery(
        (Atom("R", (Constant("0"), Constant("0"), Constant("0"))),)
    )
    return Database.of(_STAR_SCHEMA, facts), _STAR_FDS, query


# ---------------------------------------------------------------------------
# Key lifting: one extra repair, pinpointed by the query
# ---------------------------------------------------------------------------


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def gen_fd_lift(
    db: Database, sigma_k
) -> tuple[Database, frozenset[FunctionalDependency], ConjunctiveQuery]:
    """Lift a connected key-constrained database by one apex fact.

    Every original fact is prefixed with fresh constants (@a, @b); one
    all-@a apex fact conflicts with each of them under a fresh key on
    the prefix. Candidate repairs are the originals' plus {apex}, and
    the all-equal query holds in {apex} alone, so its uniform-repair
    frequency is 1 / (original repair count + 1).
    """
    sigma_k = frozenset(sigma_k)
    relations = {fd.relation for fd in sigma_k}
    if len(relations) != 1:
        raise ValueError("constraints must target exactly one relation")
    if not is_keys(sigma_k, db.schema):
        raise ValueError("constraints must all be keys")
    (relation,) = relations
    if any(f.relation != relation for f in db):
        raise ValueError(f"all facts must belong to {relation}")
    if not _nontrivially_connected(db, sigma_k):
        raise ValueError("database must be non-trivially connected under the keys")
    if {"@a", "@b"} & db.adom:
        raise ValueError('the reserved constants "@a"/"@b" appear in the database')

    attrs = db.schema.attributes(relation)
    first = _fresh_name("P1", attrs)
    second = _fresh_name("P2", attrs)
    lifted_name = _fresh_name(relation + "_lift", {relation})
    schema = Schema(((lifted_name, (first, second) + attrs),))

    arity = len(attrs) + 2
    facts = [fact(lifted_name, *(("@a",) * arity))]
    for f in db.sorted_facts:
        facts.append(fact(lifted_name, "@a", "@b", *f.values))

    fds = {FunctionalDependency.of(lifted_name, (first,), (second,))}
    for fd in sigma_k:
        fds.add(
            FunctionalDependency(lifted_name, fd.lhs, fd.rhs)
        )
    x = Variable("x")
    query = ConjunctiveQuery((Atom(lifted_name, (x,) * arity),))
    return Database.of(schema, facts), frozenset(fds), query
