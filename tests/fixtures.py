"""Shared worked instances used across the test modules."""

from __future__ import annotations

from opcqa import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Database,
    FunctionalDependency,
    Schema,
    Variable,
    fact,
)

# ---------------------------------------------------------------------------
# Three facts under two plain FDs; the running worked example. Conflict
# graph is the path f1 - f2 - f3.
# ---------------------------------------------------------------------------

TRIPLE_SCHEMA = Schema.of(R=("A", "B", "C"))
F1 = fact("R", "a1", "b1", "c1")
F2 = fact("R", "a1", "b2", "c2")
F3 = fact("R", "a2", "b1", "c2")
TRIPLE_FDS = frozenset(
    [
        FunctionalDependency.of("R", ("A",), ("B",)),
        FunctionalDependency.of("R", ("C",), ("B",)),
    ]
)


def triple_instance() -> tuple[Database, frozenset[FunctionalDependency]]:
    return Database.of(TRIPLE_SCHEMA, [F1, F2, F3]), TRIPLE_FDS


# ---------------------------------------------------------------------------
# Six facts under one primary key; blocks of sizes 3, 1, 2.
# ---------------------------------------------------------------------------

PAIR_SCHEMA = Schema.of(R=("A1", "A2"))
KEYED_ROWS = (
    ("a1", "b1"),
    ("a1", "b2"),
    ("a1", "b3"),
    ("a2", "b1"),
    ("a3", "b1"),
    ("a3", "b2"),
)
KEYED_FDS = frozenset([FunctionalDependency.of("R", ("A1",), ("A2",))])


def keyed_instance() -> tuple[Database, frozenset[FunctionalDependency]]:
    db = Database.of(PAIR_SCHEMA, [fact("R", *row) for row in KEYED_ROWS])
    return db, KEYED_FDS


def keyed_query() -> ConjunctiveQuery:
    """Q(x) :- R(a1, x)."""
    return ConjunctiveQuery(
        (Atom("R", (Constant("a1"), Variable("x"))),), (Variable("x"),)
    )


def keyed_boolean_query() -> ConjunctiveQuery:
    """Q() :- R(a1, b1)."""
    return ConjunctiveQuery((Atom("R", (Constant("a1"), Constant("b1"))),))


# ---------------------------------------------------------------------------
# Three facts under two keys of one binary relation; path conflict graph
# without being a single block. The smallest connected non-clique key
# instance feedable to the lift construction.
# ---------------------------------------------------------------------------

TWO_KEY_FDS = frozenset(
    [
        FunctionalDependency.of("R", ("A1",), ("A2",)),
        FunctionalDependency.of("R", ("A2",), ("A1",)),
    ]
)


def two_key_path_instance() -> tuple[Database, frozenset[FunctionalDependency]]:
    db = Database.of(
        PAIR_SCHEMA,
        [fact("R", "a1", "b1"), fact("R", "a1", "b2"), fact("R", "a2", "b2")],
    )
    return db, TWO_KEY_FDS


# ---------------------------------------------------------------------------
# Multi-component shapes for the per-component walks.
# ---------------------------------------------------------------------------

LADDER_SCHEMA = Schema.of(R=("K", "V"))
LADDER_KEY = frozenset([FunctionalDependency.of("R", ("K",), ("V",))])


def ladder_instance(
    blocks: int = 6, size: int = 3
) -> tuple[Database, frozenset[FunctionalDependency]]:
    """Primary-key blocks k0, k1, ... of equal size: one component each."""
    facts = [fact("R", f"k{b}", f"v{i}") for b in range(blocks) for i in range(size)]
    return Database.of(LADDER_SCHEMA, facts), LADDER_KEY


def interleaved_instance() -> tuple[Database, frozenset[FunctionalDependency]]:
    """R(A,B,C) under C -> B alone: four components, one per C value, of
    five facts each, whose facts alternate in canonical (A-first) order."""
    facts = [
        fact("R", f"a{a}", f"b{(a + c) % 3}", f"c{c}") for a in range(5) for c in range(4)
    ]
    return Database.of(TRIPLE_SCHEMA, facts), frozenset(
        [FunctionalDependency.of("R", ("C",), ("B",))]
    )


def one_component_instance() -> tuple[Database, frozenset[FunctionalDependency]]:
    """Seven facts under the two FDs of the triple example, all in one
    conflict component."""
    rows = [
        ("a0", "b0", "c0"),
        ("a0", "b1", "c1"),
        ("a1", "b1", "c0"),
        ("a1", "b2", "c2"),
        ("a2", "b2", "c1"),
        ("a2", "b0", "c2"),
        ("a3", "b0", "c1"),
    ]
    return Database.of(TRIPLE_SCHEMA, [fact("R", *r) for r in rows]), TRIPLE_FDS


# ---------------------------------------------------------------------------
# Primary keys on a column other than the first: blocks in key order differ
# from the order of the facts.
# ---------------------------------------------------------------------------


def second_column_instance() -> tuple[Database, frozenset[FunctionalDependency]]:
    """R(A,B,C) under the primary key B: blocks of sizes 4, 3, 2, 1 whose
    facts interleave in fact order."""
    rows = [(f"a{i}", "b0", f"c{i % 2}") for i in range(4)]
    rows += [(f"a{i}", "b1", "c0") for i in range(3)]
    rows += [("a1", "b2", "c1"), ("a3", "b2", "c1"), ("a2", "b3", "c0")]
    return Database.of(TRIPLE_SCHEMA, [fact("R", *r) for r in rows]), frozenset(
        [FunctionalDependency.of("R", ("B",), ("A", "C"))]
    )


def swapped_key_instance() -> tuple[Database, frozenset[FunctionalDependency]]:
    """R(A,B) under the primary key B: blocks b0, b1, b2 of sizes 2, 2, 3,
    where the first fact in fact order, R(a0,b1), is in block b1."""
    rows = [("a0", "b1"), ("a1", "b1"), ("a1", "b0"), ("a2", "b0")]
    rows += [("a2", "b2"), ("a3", "b2"), ("a4", "b2")]
    return Database.of(Schema.of(R=("A", "B")), [fact("R", *r) for r in rows]), frozenset(
        [FunctionalDependency.of("R", ("B",), ("A",))]
    )
