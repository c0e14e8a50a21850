"""Independently written oracles.

Everything here recomputes quantities from first principles with plain
loops over explicit fact lists, sharing no code with the package beyond
the Fact/Database value types. Frozen test expectations come from these
functions; the package is then held to them. One exception is named as
such: justified_ops_sequences walks the tree through the package's public
justified_ops, to hold the bitmask walks to the order of that function.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from opcqa import (
    Database,
    Fact,
    FunctionalDependency,
    RepairingSequence,
    Schema,
    SizeCapError,
    fact,
    justified_ops,
)

# ---------------------------------------------------------------------------
# Violations, sequences, repairs
# ---------------------------------------------------------------------------


def bf_violating_pairs(
    facts: frozenset[Fact], sigma, schema: Schema
) -> set[frozenset[Fact]]:
    """All conflicting fact pairs, by the quadratic definition."""
    out: set[frozenset[Fact]] = set()
    rows = sorted(facts)
    for f, g in itertools.combinations(rows, 2):
        for fd in sigma:
            if f.relation != fd.relation or g.relation != fd.relation:
                continue
            attrs = schema.attributes(fd.relation)
            pos = {a: i for i, a in enumerate(attrs)}
            same_lhs = all(f.values[pos[a]] == g.values[pos[a]] for a in fd.lhs)
            same_rhs = all(f.values[pos[a]] == g.values[pos[a]] for a in fd.rhs)
            if same_lhs and not same_rhs:
                out.add(frozenset((f, g)))
    return out


def greedy_matching(pairs) -> int:
    """Size of the matching that takes each pair (i, j), in sorted order,
    when neither end is taken yet."""
    taken: set = set()
    size = 0
    for i, j in sorted(pairs):
        if i not in taken and j not in taken:
            taken |= {i, j}
            size += 1
    return size


def bf_justified_ops(
    facts: frozenset[Fact], pairs, singleton_only: bool = False
) -> list[frozenset[Fact]]:
    """Removal candidates at one state, canonically ordered. Whether two
    facts violate an FD does not depend on the other facts present, so a
    state's violating pairs are those of the whole instance (pairs, from
    bf_violating_pairs) that lie inside it."""
    ops: set[frozenset[Fact]] = set()
    for pair in pairs:
        if not pair <= facts:
            continue
        for f in pair:
            ops.add(frozenset((f,)))
        if not singleton_only:
            ops.add(pair)
    return sorted(ops, key=lambda op: tuple(sorted(f.key for f in op)))


def bf_complete_sequences(
    db: Database, sigma, singleton_only: bool = False
) -> list[tuple[frozenset[Fact], ...]]:
    """Every complete repairing sequence, as tuples of removed-fact sets,
    in depth-first canonical order."""
    pairs = bf_violating_pairs(db.facts, sigma, db.schema)
    out: list[tuple[frozenset[Fact], ...]] = []

    def walk(facts: frozenset[Fact], prefix: tuple[frozenset[Fact], ...]) -> None:
        ops = bf_justified_ops(facts, pairs, singleton_only)
        if not ops:
            out.append(prefix)
            return
        for op in ops:
            walk(facts - op, prefix + (op,))

    walk(db.facts, ())
    return out


def justified_ops_sequences(
    db: Database, sigma, singleton_only: bool = False
) -> list[RepairingSequence]:
    """Every complete repairing sequence in depth-first order, taking each
    residual database's children from the public justified_ops, in the
    order it lists them: no masks and no residual DAG."""
    out: list[RepairingSequence] = []

    def walk(current: Database, prefix: tuple) -> None:
        ops = justified_ops(current, sigma, singleton_only)
        if not ops:
            out.append(RepairingSequence(prefix))
        for op in ops:
            walk(Database.of(current.schema, current.facts - op.removed), prefix + (op,))

    walk(db, ())
    return out


def bf_candidate_repairs(
    db: Database, sigma, singleton_only: bool = False
) -> set[frozenset[Fact]]:
    """Distinct results of complete sequences, via breadth-first search
    over residual fact sets (no tree walk)."""
    pairs = bf_violating_pairs(db.facts, sigma, db.schema)
    seen = {db.facts}
    frontier = [db.facts]
    leaves: set[frozenset[Fact]] = set()
    while frontier:
        facts = frontier.pop()
        ops = bf_justified_ops(facts, pairs, singleton_only)
        if not ops:
            leaves.add(facts)
        for op in ops:
            nxt = facts - op
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return leaves


# ---------------------------------------------------------------------------
# Query entailment by exhaustive assignment
# ---------------------------------------------------------------------------


def bf_entails(db: Database, q, answer: tuple[str, ...] = ()) -> bool:
    """Boolean/answer entailment by trying every variable assignment."""
    from opcqa import Constant, Variable

    variables = sorted({t.name for a in q.atoms for t in a.terms if isinstance(t, Variable)})
    bound = dict(zip((v.name for v in q.answer_variables), answer))
    adom = sorted(db.adom)
    free = [v for v in variables if v not in bound]
    for values in itertools.product(adom, repeat=len(free)):
        assignment = dict(bound)
        assignment.update(zip(free, values))
        ok = True
        for atom in q.atoms:
            tup = tuple(
                t.value if isinstance(t, Constant) else assignment[t.name]
                for t in atom.terms
            )
            if fact(atom.relation, *tup) not in db.facts:
                ok = False
                break
        if ok:
            return True
    return False


# ---------------------------------------------------------------------------
# Direct frequency computations (no chains involved)
# ---------------------------------------------------------------------------


def bf_rrfreq(db: Database, sigma, q, answer=(), singleton_only=False) -> Fraction:
    """Fraction of candidate repairs entailing the answer."""
    repairs = bf_candidate_repairs(db, sigma, singleton_only)
    hits = sum(bf_entails(db.restrict(r), q, answer) for r in repairs)
    return Fraction(hits, len(repairs))


def bf_srfreq(db: Database, sigma, q, answer=(), singleton_only=False) -> Fraction:
    """Fraction of complete sequences whose result entails the answer."""
    seqs = bf_complete_sequences(db, sigma, singleton_only)
    hits = 0
    for seq in seqs:
        removed = frozenset(f for op in seq for f in op)
        if bf_entails(db.restrict(db.facts - removed), q, answer):
            hits += 1
    return Fraction(hits, len(seqs))


def bf_uo_probability(db: Database, sigma, q, answer=(), singleton_only=False) -> Fraction:
    """Mass of uniform-operation walks whose result entails the answer."""
    pairs = bf_violating_pairs(db.facts, sigma, db.schema)

    def walk(facts: frozenset[Fact]) -> Fraction:
        ops = bf_justified_ops(facts, pairs, singleton_only)
        if not ops:
            return Fraction(int(bf_entails(db.restrict(facts), q, answer)))
        share = Fraction(1, len(ops))
        return sum((share * walk(facts - op) for op in ops), Fraction(0))

    return walk(db.facts)


def uo_forward_reference(masks, starts, kids) -> list[Fraction]:
    """The uniform-operations walk's probability of reaching each residual
    of a residual DAG, by a plain Fraction forward pass: residuals listed
    children first (the root last), residual i's children at
    kids[starts[i]:starts[i + 1]]. The DAG's arrays are the one input
    taken from the package; the pass shares none of its arithmetic."""
    weight = [Fraction(0)] * len(masks)
    weight[-1] = Fraction(1)
    for i in reversed(range(len(masks))):
        children = kids[starts[i] : starts[i + 1]]
        for c in children:
            weight[c] += weight[i] / len(children)
    return weight


def bf_independent_sets(nodes, edges) -> list[frozenset]:
    """All independent sets of a graph, the empty set included."""
    out = []
    for r in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, r):
            chosen = set(combo)
            if all(not (e <= chosen) for e in edges):
                out.append(frozenset(combo))
    return out


DEFAULT_IS_CAP = 24


def count_independent_sets(
    nodes, edges, nonempty_only: bool = False, cap: int = DEFAULT_IS_CAP
) -> int:
    """Brute-force independent-set count of a graph given by its nodes and
    its edges (two-element sets), including the empty set unless
    nonempty_only. An oracle, not a performance path, hence the hard cap."""
    n = len(nodes)
    if n > cap:
        raise SizeCapError(f"independent-set counting capped at {cap} nodes, got {n}")
    index = {node: i for i, node in enumerate(nodes)}
    masks = [0] * n
    for edge in edges:
        i, j = (index[node] for node in edge)
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    count = 0
    for subset in range(1 << n):
        ok = True
        for i in range(n):
            if subset >> i & 1 and masks[i] & subset:
                ok = False
                break
        if ok:
            count += 1
    if nonempty_only:
        count -= 1
    return count


def bf_nontrivially_connected(db: Database, sigma) -> bool:
    """At least two facts, and the violating pairs connect them all:
    a breadth-first search from the least fact."""
    facts = sorted(db.facts)
    if len(facts) < 2:
        return False
    pairs = bf_violating_pairs(db.facts, sigma, db.schema)
    seen = {facts[0]}
    frontier = [facts[0]]
    while frontier:
        reached = {g for f in frontier for pair in pairs if f in pair for g in pair}
        frontier = sorted(reached - seen)
        seen |= reached
    return len(seen) == len(facts)


# ---------------------------------------------------------------------------
# Random instance generators for the sweep suites
# ---------------------------------------------------------------------------

SWEEP_SCHEMA = Schema.of(R=("A1", "A2"))
SWEEP_KEY = frozenset([FunctionalDependency.of("R", ("A1",), ("A2",))])
SWEEP_TWO_KEYS = frozenset(
    [
        FunctionalDependency.of("R", ("A1",), ("A2",)),
        FunctionalDependency.of("R", ("A2",), ("A1",)),
    ]
)
WIDE_SCHEMA = Schema.of(R=("A", "B", "C"))
WIDE_FDS = frozenset(
    [
        FunctionalDependency.of("R", ("A",), ("B",)),
        FunctionalDependency.of("R", ("C",), ("B",)),
    ]
)


def random_primary_key_instance(
    rng: random.Random, max_facts: int = 8, max_block: int = 4
) -> Database:
    """Blocks of random sizes over one keyed binary relation."""
    remaining = rng.randint(1, max_facts)
    sizes = []
    while remaining:
        size = rng.randint(1, min(max_block, remaining))
        sizes.append(size)
        remaining -= size
    facts = []
    for b, size in enumerate(sizes):
        for v in range(size):
            facts.append(fact("R", f"k{b}", f"v{v}"))
    return Database.of(SWEEP_SCHEMA, facts)


def random_fd_instance(rng: random.Random, max_facts: int = 10) -> Database:
    """Random facts over a ternary relation with two overlapping FDs;
    conflict graphs come out shaped like paths, stars, and thickets."""
    n = rng.randint(2, max_facts)
    facts = set()
    while len(facts) < n:
        facts.add(
            fact(
                "R",
                f"a{rng.randint(0, 2)}",
                f"b{rng.randint(0, 3)}",
                f"c{rng.randint(0, 2)}",
            )
        )
    return Database.of(WIDE_SCHEMA, facts)


def random_connected_key_instance(
    rng: random.Random, max_facts: int = 7
) -> tuple[Database, frozenset[FunctionalDependency]]:
    """Non-trivially connected instance under key constraints: either one
    block under a primary key (clique) or a doubly-keyed relation whose
    value collisions are wired into one component (allows non-cliques)."""
    if rng.random() < 0.5:
        size = rng.randint(2, min(4, max_facts))
        db = Database.of(
            SWEEP_SCHEMA, [fact("R", "k", f"v{i}") for i in range(size)]
        )
        return db, SWEEP_KEY
    n = rng.randint(2, max_facts)
    rows = [("x0", "y0")]
    for i in range(1, n):
        # collide with an existing row on one side; fresh value on the other
        x, y = rows[rng.randrange(len(rows))]
        if rng.random() < 0.5:
            rows.append((x, f"y{i}"))
        else:
            rows.append((f"x{i}", y))
    db = Database.of(SWEEP_SCHEMA, [fact("R", *row) for row in dict.fromkeys(rows)])
    return db, SWEEP_TWO_KEYS
