"""Relational instances and their integrity constraints.

Everything downstream (repairing sequences, counting, sampling) works on
the value types defined here: schemas, facts, databases, functional
dependencies, violation sets, conflict graphs, and blocks. All types are
immutable and hashable so they can be used as dictionary keys and set
members throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

from .errors import ConstraintClassError, SchemaError

__all__ = [
    "Schema",
    "Fact",
    "Database",
    "FunctionalDependency",
    "ViolationSet",
    "ConflictGraph",
    "Block",
    "satisfies",
    "violations",
    "conflict_graph",
    "blocks",
    "is_nontrivially_connected",
]


@dataclass(frozen=True)
class Schema:
    """Relation names with their ordered attribute lists.

    Stored as a tuple of (name, attributes) pairs to stay hashable;
    lookup goes through a cached mapping.
    """

    relations: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self) -> None:
        names = [name for name, _ in self.relations]
        if len(names) != len(set(names)):
            raise SchemaError("duplicate relation names in schema")
        for name, attrs in self.relations:
            if not attrs:
                raise SchemaError(f"relation {name} has no attributes")
            if len(attrs) != len(set(attrs)):
                raise SchemaError(f"relation {name} repeats an attribute name")

    @classmethod
    def of(cls, **relations: Iterable[str]) -> "Schema":
        """Convenience constructor: Schema.of(R=("A", "B"))."""
        return cls(tuple((name, tuple(attrs)) for name, attrs in relations.items()))

    @cached_property
    def _by_name(self) -> dict[str, tuple[str, ...]]:
        return {name: attrs for name, attrs in self.relations}

    def attributes(self, relation: str) -> tuple[str, ...]:
        try:
            return self._by_name[relation]
        except KeyError:
            raise SchemaError(f"unknown relation {relation!r}") from None

    def arity(self, relation: str) -> int:
        return len(self.attributes(relation))

    def has_relation(self, relation: str) -> bool:
        return relation in self._by_name

    def attribute_index(self, relation: str, attribute: str) -> int:
        attrs = self.attributes(relation)
        try:
            return attrs.index(attribute)
        except ValueError:
            raise SchemaError(
                f"relation {relation!r} has no attribute {attribute!r}"
            ) from None


@dataclass(frozen=True, order=True)
class Fact:
    """A single tuple of a relation. Constants are opaque strings."""

    relation: str
    values: tuple[str, ...]

    @property
    def key(self) -> tuple[str, tuple[str, ...]]:
        """Canonical sort key: relation name, then the value tuple."""
        return (self.relation, self.values)

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.values)})"


def fact(relation: str, *values: str) -> Fact:
    return Fact(relation, tuple(str(v) for v in values))


@dataclass(frozen=True)
class Database:
    """A schema plus a duplicate-free set of facts."""

    schema: Schema
    facts: frozenset[Fact]

    def __post_init__(self) -> None:
        for f in self.facts:
            if len(f.values) != self.schema.arity(f.relation):
                raise SchemaError(
                    f"fact {f} has arity {len(f.values)}, schema says "
                    f"{self.schema.arity(f.relation)}"
                )

    @classmethod
    def of(cls, schema: Schema, facts: Iterable[Fact]) -> "Database":
        return cls(schema, frozenset(facts))

    @property
    def sorted_facts(self) -> tuple[Fact, ...]:
        return tuple(sorted(self.facts))

    @property
    def fact_count(self) -> int:
        """|D|, the number of facts."""
        return len(self.facts)

    @property
    def encoded_size(self) -> int:
        """||D||, the character count of the canonical serialization."""
        return sum(len(str(f)) for f in self.sorted_facts)

    @property
    def adom(self) -> frozenset[str]:
        return frozenset(v for f in self.facts for v in f.values)

    def restrict(self, facts: Iterable[Fact]) -> "Database":
        """Same schema, different fact set."""
        return Database(self.schema, frozenset(facts))

    def _subset(self, facts: frozenset[Fact]) -> "Database":
        """The sub-database on some of this database's facts, which passed
        its arity check already, so none is checked again."""
        out = object.__new__(Database)
        object.__setattr__(out, "schema", self.schema)
        object.__setattr__(out, "facts", facts)
        return out

    def facts_of(self, relation: str) -> list[Fact]:
        return sorted(f for f in self.facts if f.relation == relation)

    def __contains__(self, f: Fact) -> bool:
        return f in self.facts

    def __len__(self) -> int:
        return len(self.facts)

    def __iter__(self) -> Iterator[Fact]:
        return iter(self.sorted_facts)


@dataclass(frozen=True)
class FunctionalDependency:
    """R: X -> Y. Facts of R agreeing on X must agree on Y."""

    relation: str
    lhs: frozenset[str]
    rhs: frozenset[str]

    def __post_init__(self) -> None:
        if not self.lhs:
            raise SchemaError("FD left-hand side must be non-empty")

    @classmethod
    def of(cls, relation: str, lhs: Iterable[str], rhs: Iterable[str]) -> "FunctionalDependency":
        return cls(relation, frozenset(lhs), frozenset(rhs))

    def validate(self, schema: Schema) -> None:
        attrs = set(schema.attributes(self.relation))
        unknown = (self.lhs | self.rhs) - attrs
        if unknown:
            raise SchemaError(
                f"FD on {self.relation} uses unknown attributes {sorted(unknown)}"
            )

    def is_key(self, schema: Schema) -> bool:
        return self.lhs | self.rhs == set(schema.attributes(self.relation))

    def lhs_indices(self, schema: Schema) -> tuple[int, ...]:
        return tuple(
            schema.attribute_index(self.relation, a) for a in sorted(self.lhs)
        )

    def rhs_indices(self, schema: Schema) -> tuple[int, ...]:
        return tuple(
            schema.attribute_index(self.relation, a) for a in sorted(self.rhs)
        )

    def __str__(self) -> str:
        lhs = ",".join(sorted(self.lhs))
        rhs = ",".join(sorted(self.rhs))
        return f"{self.relation}: {lhs} -> {rhs}"


def is_keys(sigma: Iterable[FunctionalDependency], schema: Schema) -> bool:
    return all(fd.is_key(schema) for fd in sigma)


def is_primary_keys(sigma: Iterable[FunctionalDependency], schema: Schema) -> bool:
    """At most one FD per relation, and every FD is a key."""
    seen: set[str] = set()
    for fd in sigma:
        if not fd.is_key(schema):
            return False
        if fd.relation in seen:
            return False
        seen.add(fd.relation)
    return True


@dataclass(frozen=True)
class ViolationSet:
    """All (fd, {f, g}) pairs currently falsified."""

    entries: frozenset[tuple[FunctionalDependency, frozenset[Fact]]]

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def pairs(self) -> frozenset[frozenset[Fact]]:
        """Violating fact pairs, FDs forgotten."""
        return frozenset(pair for _, pair in self.entries)


def _validated(db: Database, sigma: Iterable[FunctionalDependency]) -> list[FunctionalDependency]:
    fds = list(sigma)
    for fd in fds:
        fd.validate(db.schema)
    return fds


def violations(db: Database, sigma: Iterable[FunctionalDependency]) -> ViolationSet:
    """Exact set of violated (fd, pair) entries.

    Facts are grouped by their FD left-hand-side projection first, so the
    common consistent case stays near-linear instead of quadratic.
    """
    entries: set[tuple[FunctionalDependency, frozenset[Fact]]] = set()
    for fd, group in conflict_groups(db, sigma):
        for (f, a), (g, b) in combinations(group, 2):
            if a != b:
                entries.add((fd, frozenset((f, g))))
    return ViolationSet(frozenset(entries))


def conflict_groups(
    db: Database, sigma: Iterable[FunctionalDependency]
) -> list[tuple[FunctionalDependency, list[tuple[Fact, tuple[str, ...]]]]]:
    """Per FD, each group of facts that agree on its left-hand side but not
    all on its right-hand side, each fact with its right-hand projection.
    Two facts conflict iff a group holds both with different projections,
    so a group's facts are all in conflicts and connected; linear time.
    """
    out = []
    for fd in _validated(db, sigma):
        rhs_idx = fd.rhs_indices(db.schema)
        for facts in _lhs_groups(db, fd).values():
            group = [(f, tuple(f.values[i] for i in rhs_idx)) for f in facts]
            if len({b for _, b in group}) > 1:
                out.append((fd, group))
    return out


def _lhs_groups(db: Database, fd: FunctionalDependency) -> dict[tuple[str, ...], list[Fact]]:
    """The facts of the FD's relation by their left-hand projection."""
    lhs_idx = fd.lhs_indices(db.schema)
    groups: dict[tuple[str, ...], list[Fact]] = {}
    for f in db.facts_of(fd.relation):
        groups.setdefault(tuple(f.values[i] for i in lhs_idx), []).append(f)
    return groups


def satisfies(db: Database, sigma: Iterable[FunctionalDependency]) -> bool:
    return not violations(db, sigma)


@dataclass(frozen=True)
class ConflictGraph:
    """Facts as nodes, violating pairs (over all FDs) as edges."""

    nodes: tuple[Fact, ...]
    edges: frozenset[frozenset[Fact]]

    @cached_property
    def _adjacency(self) -> dict[Fact, frozenset[Fact]]:
        adj: dict[Fact, set[Fact]] = {node: set() for node in self.nodes}
        for edge in self.edges:
            f, g = sorted(edge)
            adj[f].add(g)
            adj[g].add(f)
        return {node: frozenset(nbrs) for node, nbrs in adj.items()}

    def neighbors(self, f: Fact) -> frozenset[Fact]:
        return self._adjacency[f]

    def has_edge(self, f: Fact, g: Fact) -> bool:
        return frozenset((f, g)) in self.edges

    def is_independent(self, facts: Iterable[Fact]) -> bool:
        chosen = list(facts)
        return not any(
            frozenset((f, g)) in self.edges for f, g in combinations(chosen, 2)
        )


def conflict_graph(db: Database, sigma: Iterable[FunctionalDependency]) -> ConflictGraph:
    return ConflictGraph(db.sorted_facts, violations(db, sigma).pairs)


@dataclass(frozen=True)
class Block:
    """Facts of one relation agreeing on the key's left-hand side.

    For relations without a key every fact forms its own block.
    """

    relation: str
    key_values: tuple[str, ...]
    facts: frozenset[Fact]

    @property
    def size(self) -> int:
        return len(self.facts)

    @property
    def sorted_facts(self) -> tuple[Fact, ...]:
        return tuple(sorted(self.facts))


def blocks(db: Database, sigma: Iterable[FunctionalDependency]) -> list[Block]:
    """Partition the facts into blocks under a set of primary keys.

    Deterministic order: by relation name, then key values. Raises for
    constraint sets that are not primary keys, since the block structure
    is only meaningful there.
    """
    fds = _validated(db, sigma)
    if not is_primary_keys(fds, db.schema):
        raise ConstraintClassError("blocks require a set of primary keys")
    key_by_relation = {fd.relation: fd for fd in fds}
    out: list[Block] = []
    relations = sorted({f.relation for f in db.facts})
    for relation in relations:
        facts = db.facts_of(relation)
        fd = key_by_relation.get(relation)
        if fd is None:
            out.extend(
                Block(relation, f.values, frozenset((f,))) for f in facts
            )
            continue
        groups = _lhs_groups(db, fd)
        for key_values in sorted(groups):
            out.append(Block(relation, key_values, frozenset(groups[key_values])))
    return out


def is_nontrivially_connected(g: ConflictGraph) -> bool:
    """At least two nodes and connected."""
    if len(g.nodes) < 2:
        return False
    seen = {g.nodes[0]}
    frontier = [g.nodes[0]]
    while frontier:
        node = frontier.pop()
        for nbr in g.neighbors(node):
            if nbr not in seen:
                seen.add(nbr)
                frontier.append(nbr)
    return len(seen) == len(g.nodes)
