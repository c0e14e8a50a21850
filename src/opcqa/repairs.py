"""Repairing sequences, repairing chains, and exact answer probabilities.

A repairing sequence deletes one or two facts at a time, each deletion
justified by a currently violated FD, until the residual database is
consistent. The space of all such sequences forms a rooted tree; the
three generator families (uniform repairs, uniform sequences, uniform
operations) only differ in the probabilities they attach to its edges.

Exact quantities are computed on the subset graph of residual databases
rather than the tree itself: FD violations are a property of a fact pair
alone, so the justified operations of a residual depend only on which
facts remain. The connected components of the conflict graph repair
independently, so each has its own residual DAG and none is built for
the whole instance. The explicit tree is walked on the joint residual
mask by enumerate_sequences, canonical_sequences and build_chain (golden
tests and the chain-dump command).

Counts and exact probabilities combine per-component tables: candidate
repairs multiply, and complete sequences and tree nodes shuffle, an
exponential generating function product over their counts by length.
An answer's probability combines each component's candidate repairs
with one weight each, by product (uniform repairs and operations) or by
the shuffle (uniform sequences). The query is evaluated once on the
full database; a repair returns an answer iff it keeps one of the
answer's witness masks, so the sum runs over the joint repairs of the
components its witnesses touch only. The others cancel, or under
uniform sequences fold into one table of counts by length.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import lcm, prod
from operator import mul
from typing import Iterable, Iterator, NamedTuple

from .counting import _shuffle
from .errors import SizeCapError
from .queries import ConjunctiveQuery, witness_masks, witnesses
from .relational import (
    Database,
    Fact,
    FunctionalDependency,
    blocks,
    conflict_groups,
    satisfies,
    violations,
)

__all__ = [
    "DEFAULT_TREE_CAP",
    "Operation",
    "RepairingSequence",
    "GeneratorKind",
    "UR",
    "US",
    "UO",
    "UR1",
    "US1",
    "UO1",
    "GENERATORS",
    "ChainEdge",
    "ChainNode",
    "RepairingChain",
    "RepairDistribution",
    "justified_ops",
    "enumerate_sequences",
    "candidate_repairs",
    "sequence_count",
    "canonical_sequences",
    "build_chain",
    "repair_distribution",
    "answer_probabilities",
    "exact_answer_probability",
    "realize_repair",
]

DEFAULT_TREE_CAP = 10**7


@dataclass(frozen=True)
class Operation:
    """Deletion of one fact or of a conflicting pair."""

    removed: frozenset[Fact]

    def __post_init__(self) -> None:
        if not 1 <= len(self.removed) <= 2:
            raise ValueError("an operation removes one or two facts")

    @classmethod
    def of(cls, *facts: Fact) -> "Operation":
        return cls(frozenset(facts))

    @property
    def sort_key(self) -> tuple:
        """Canonical operation order: lexicographic on the sorted removed
        fact keys, so -f < -{f,g} < -g for f < g."""
        return tuple(f.key for f in sorted(self.removed))

    @property
    def is_pair(self) -> bool:
        return len(self.removed) == 2

    def __str__(self) -> str:
        inner = ",".join(str(f) for f in sorted(self.removed))
        return f"-{{{inner}}}" if self.is_pair else f"-{inner}"


@dataclass(frozen=True)
class RepairingSequence:
    """An ordered composition of operations, applied left to right."""

    ops: tuple[Operation, ...]

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    @property
    def removed_facts(self) -> frozenset[Fact]:
        return frozenset(f for op in self.ops for f in op.removed)

    def result(self, db: Database) -> Database:
        return db._subset(db.facts - self.removed_facts)

    def validate(
        self,
        db: Database,
        sigma: Iterable[FunctionalDependency],
        require_complete: bool = True,
    ) -> None:
        """Raise unless every step is justified in its residual (and the
        final residual is consistent, unless told otherwise).

        A pair violates an FD whatever else is present, so the check runs
        on the bitmask view: a step is justified when its facts are present
        and, for one fact, it has a present neighbour, or, for a pair, the
        two are neighbours.
        """
        space = _space(db, frozenset(sigma))
        mask = space.full_mask
        for pos, op in enumerate(self.ops):
            om = space.mask_of(op.removed) or 0  # 0: a fact in no conflict
            low = om & -om
            # the first fact's neighbours hold the pair's other fact, or for
            # one fact some present fact
            if not om or om & ~mask or not space.nbr[low.bit_length() - 1] & (om ^ low or mask):
                raise ValueError(f"operation {op} at position {pos} is not justified")
            mask ^= om
        if require_complete and space.justified(mask, True):
            raise ValueError("sequence is not complete: residual still violates the FDs")

    def __str__(self) -> str:
        return "(" + ", ".join(str(op) for op in self.ops) + ")"


@dataclass(frozen=True)
class GeneratorKind:
    """One of the three generator families, optionally restricted to
    singleton deletions."""

    family: str
    singleton_only: bool = False

    def __post_init__(self) -> None:
        if self.family not in ("ur", "us", "uo"):
            raise ValueError(f"unknown generator family {self.family!r}")

    @classmethod
    def parse(cls, label: str) -> "GeneratorKind":
        if label.endswith("1"):
            return cls(label[:-1], True)
        return cls(label, False)

    @property
    def label(self) -> str:
        return self.family + ("1" if self.singleton_only else "")

    def __str__(self) -> str:
        return self.label


UR = GeneratorKind("ur")
US = GeneratorKind("us")
UO = GeneratorKind("uo")
UR1 = GeneratorKind("ur", True)
US1 = GeneratorKind("us", True)
UO1 = GeneratorKind("uo", True)
GENERATORS = {k.label: k for k in (UR, US, UO, UR1, US1, UO1)}


# ---------------------------------------------------------------------------
# Subset-graph engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Dag:
    """The residuals of one mode reachable from the full database.

    Residuals are listed in post-order, children before parents, so the
    full mask comes last and a reversed sweep meets every parent before
    its children. Residual i has the children kids[starts[i]:starts[i+1]]
    (positions, in canonical operation order); leaves[i] counts the
    complete sequences from it.
    """

    masks: list[int]
    starts: list[int]
    kids: list[int]
    leaves: list[int]

    @property
    def root(self) -> int:
        return len(self.masks) - 1

    def children(self, i: int) -> list[int]:
        return self.kids[self.starts[i] : self.starts[i + 1]]

    def leaf_positions(self) -> list[int]:
        """Positions of the consistent residuals, the candidate repairs."""
        s = self.starts
        return [i for i in range(len(self.masks)) if s[i] == s[i + 1]]


def _check_cap(states: int, cap: int) -> None:
    """Raise once a count of residuals is over the cap."""
    if states > cap:
        raise SizeCapError(f"over {cap} reachable residual databases")


class _Conflicts:
    """Facts 0..n-1, the facts each one conflicts with as a bitmask, and
    the justified operations of a residual. The conflicts come as groups
    of (fact, right-hand projection) (relational.conflict_groups); two
    facts conflict iff a group holds both with different projections.
    The masks, and all made of them, are built on first use, so reading
    the facts and components builds none and no pair is ever listed.
    """

    def __init__(self, n: int, groups: tuple[tuple[tuple[int, tuple], ...], ...]):
        self.n = n
        self.full_mask = (1 << n) - 1
        self.groups = groups

    @cached_property
    def nbr(self) -> list[int]:
        """nbr[i]: the facts conflicting with fact i, per group its members
        less those of i's projection."""
        nbr = [0] * self.n
        for group in self.groups:
            same: dict[tuple, int] = {}
            for i, b in group:
                same[b] = same.get(b, 0) | 1 << i
            members = sum(same.values())
            for i, b in group:
                nbr[i] |= members & ~same[b]
        return nbr

    @cached_property
    def matching(self) -> int:
        """The size mu of a greedy matching, each uncovered fact in order
        taking its lowest uncovered later neighbour: at least 3^mu
        residuals are reachable in either mode, as each matched pair keeps
        both facts or loses either, justified by its partner."""
        covered = mu = 0
        for i, row in enumerate(self.nbr):
            free = 0 if covered >> i & 1 else row & ~covered & -(2 << i)
            if free:
                covered |= 1 << i | free & -free
                mu += 1
        return mu

    def justified(self, mask: int, singleton_only: bool) -> list[int]:
        """Masks of the justified operations of a residual, in canonical
        order: for each fact i present and in a conflict that is still
        present, -i, then -{i,j} for each present j > i it conflicts
        with."""
        nbr = self.nbr
        out: list[int] = []
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            pairs = nbr[low.bit_length() - 1] & mask
            if pairs:
                out.append(low)
                if not singleton_only:
                    pairs &= -(low << 1)  # the partners after this fact
                    while pairs:
                        high = pairs & -pairs
                        pairs ^= high
                        out.append(low | high)
        return out


class _Component(_Conflicts):
    """One connected component of a _Space's conflict graph.

    Local bit i stands for the component's i-th fact in canonical order,
    facts[i] is its index in the _Space. The residual DAG of each mode is
    built on first use (dag). The groups are in local indices.
    """

    def __init__(
        self, facts: tuple[int, ...], groups: tuple[tuple[tuple[int, tuple], ...], ...]
    ):
        super().__init__(len(facts), groups)
        self.facts = facts
        # the residual DAG of each mode, indexed by singleton_only
        self._dags: list[_Dag | None] = [None, None]

    def dag(self, singleton_only: bool, cap: int) -> _Dag:
        """The residual DAG of a mode, built once and cached.

        Fails on more than cap residuals, whatever an earlier call built;
        a walk that fails caches nothing.
        """
        dag = self._dags[singleton_only]
        if dag is None:
            _check_cap(3**self.matching, cap)
            dag = self._dags[singleton_only] = self._walk(singleton_only, cap)
        _check_cap(len(dag.masks), cap)
        return dag

    def _walk(self, singleton_only: bool, cap: int) -> _Dag:
        """Depth-first from the full mask on an explicit stack; a residual
        is recorded once all its children are."""
        index: dict[int, int] = {}
        masks: list[int] = []
        starts = [0]
        kids: list[int] = []
        leaves: list[int] = []

        def frame(mask: int):
            children = [mask ^ om for om in self.justified(mask, singleton_only)]
            return mask, children, iter(children)

        stack = [frame(self.full_mask)]
        while stack:
            mask, children, pending = stack[-1]
            for child in pending:
                if child not in index:
                    stack.append(frame(child))
                    break
            else:
                stack.pop()
                pos = list(map(index.__getitem__, children))
                index[mask] = len(masks)
                masks.append(mask)
                kids.extend(pos)
                starts.append(len(kids))
                leaves.append(sum(map(leaves.__getitem__, pos)) or 1)
                _check_cap(len(masks), cap)
        return _Dag(masks, starts, kids, leaves)


class _Space(_Conflicts):
    """Bitmask view of the facts involved in at least one conflict.

    Facts outside every violating pair can never be deleted, so they are
    split off once and re-attached when a residual is reified. Masks have
    bit i set when the i-th conflict fact (in canonical order) is present.
    The groups are in indices, in no particular order.
    """

    def __init__(self, db: Database, sigma: frozenset[FunctionalDependency]):
        self.db = db
        self.sigma = sigma
        found = conflict_groups(db, sigma)
        self.facts: tuple[Fact, ...] = tuple(sorted({f for _, g in found for f, _ in g}))
        # index[f]: f's position among the conflict facts, its bit in a mask
        self.index: dict[Fact, int] = {f: i for i, f in enumerate(self.facts)}
        super().__init__(
            len(self.facts),
            tuple(tuple((self.index[f], b) for f, b in g) for _, g in found),
        )
        self.untouched: frozenset[Fact] = db.facts - frozenset(self.facts)
        self._components: tuple[_Component, ...] | None = None
        # component_of[i]: the component of conflict fact i, set by components()
        self.component_of: tuple[int, ...] = ()
        self._block_order: tuple[int, ...] | None = None
        self._operations: dict[tuple[int, ...], Operation] = {}

    def components(self) -> tuple[_Component, ...]:
        """The connected components of the conflict graph, ordered by their
        first fact; computed on first use. Under primary keys they are the
        blocks of two or more facts."""
        if self._components is None:
            parent = list(range(self.n))

            def root(i: int) -> int:
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            # a group's facts are connected
            for group in self.groups:
                first = root(group[0][0])
                for i, _ in group[1:]:
                    parent[root(i)] = first
            number: dict[int, int] = {}
            component_of: list[int] = []
            local = [0] * self.n
            members: list[list[int]] = []
            for i in range(self.n):
                c = number.setdefault(root(i), len(members))
                component_of.append(c)
                if c == len(members):
                    members.append([])
                local[i] = len(members[c])
                members[c].append(i)
            groups: list[list[tuple]] = [[] for _ in members]
            for group in self.groups:
                groups[component_of[group[0][0]]].append(
                    tuple((local[i], b) for i, b in group)
                )
            comps = tuple(_Component(tuple(f), tuple(g)) for f, g in zip(members, groups))
            # assigned whole, so that threads racing through a first call
            # all leave the same state
            self.component_of = tuple(component_of)
            self._components = comps
        return self._components

    def block_order(self) -> tuple[int, ...]:
        """The components in the order of relational.blocks (relation, then
        key values), found on first use. Raises unless the FDs are primary
        keys."""
        if self._block_order is None:
            self.components()
            self._block_order = tuple(
                self.component_of[self.index[min(b.facts)]]
                for b in blocks(self.db, self.sigma)
                if b.size >= 2
            )
        return self._block_order

    def mask_of(self, facts: Iterable[Fact]) -> int | None:
        """Mask of distinct conflict facts, or None if one of them is in no
        conflict."""
        found = [self.index.get(f) for f in facts]
        return None if None in found else sum(1 << i for i in found)

    def answer_masks(
        self, q: ConjunctiveQuery, answer: tuple[str, ...] | None = None
    ) -> dict[tuple[str, ...], tuple[int, ...]]:
        """The query's minimal witnesses per answer tuple, as masks over
        the conflict facts (see queries.witness_masks); only the given
        answer's when one is given."""
        return {
            c: witness_masks(found, self.index)
            for c, found in witnesses(q, self.db, answer).items()
        }

    def database_of(self, mask: int) -> Database:
        kept = frozenset(self.facts[i] for i in range(self.n) if mask >> i & 1)
        return self.db._subset(kept | self.untouched)

    def operation_of(self, idx: tuple[int, ...]) -> Operation:
        """The operation removing the indexed facts, made once per index
        tuple: at most one per conflict fact and one per conflicting pair."""
        op = self._operations.get(idx)
        if op is None:
            op = self._operations[idx] = Operation(frozenset(self.facts[i] for i in idx))
        return op


@lru_cache(maxsize=256)
def _space(db: Database, sigma: frozenset[FunctionalDependency]) -> _Space:
    return _Space(db, sigma)


def _nontrivially_connected(db: Database, sigma: frozenset[FunctionalDependency]) -> bool:
    """Every fact is in a conflict and all lie in one component, so there
    are at least two facts."""
    space = _space(db, sigma)
    return not space.untouched and len(space.components()) == 1


def _capped_dags(space: _Space, singleton_only: bool, cap: int) -> list[_Dag]:
    """The residual DAG of each connected component of the conflict graph.
    Fails exactly when the instance has more than cap residuals, the
    product of its components' counts: up front when their matchings
    prove it, during a component's walk once that component alone passes
    the cap, and otherwise on the product."""
    comps = space.components()
    _check_cap(3 ** sum(comp.matching for comp in comps), cap)
    dags = [comp.dag(singleton_only, cap) for comp in comps]
    _check_cap(prod(len(dag.masks) for dag in dags), cap)
    return dags


def _shuffled(dags: list[_Dag], leaves_only: bool) -> int:
    """Paths from the full database of the whole instance, the shuffles of
    its components' paths by length: the complete sequences, or all, the
    tree nodes. No slot of a packed count carries: distinct paths of one
    length extend to distinct complete sequences, which the root counts."""
    joint = [1]
    for dag in dags:
        shift = dag.leaves[dag.root].bit_length()
        weight = _forward(dag, shift)
        if leaves_only:
            weight = [weight[i] for i in dag.leaf_positions()]
        joint = _shuffle(joint, _slots(sum(weight), shift))
    return sum(joint)


def _check_tree(space: _Space, singleton_only: bool, cap: int) -> None:
    """Raise unless the sequence tree of a mode has at most cap residuals
    and at most cap nodes, the shuffle of its components' paths."""
    dags = _capped_dags(space, singleton_only, cap)
    if _shuffled(dags, False) > cap:
        raise SizeCapError(f"repairing tree has over {cap} nodes")


# ---------------------------------------------------------------------------
# Public sequence-space operations
# ---------------------------------------------------------------------------


def justified_ops(
    current: Database,
    sigma: Iterable[FunctionalDependency],
    singleton_only: bool = False,
) -> list[Operation]:
    """All operations justified by some currently violated FD, in
    canonical order."""
    found: set[frozenset[Fact]] = set()
    for pair in violations(current, sigma).pairs:
        found.update(frozenset((f,)) for f in pair)
        if not singleton_only:
            found.add(pair)
    return sorted((Operation(fs) for fs in found), key=lambda op: op.sort_key)


def _op_indices(om: int) -> tuple[int, ...]:
    """Index tuple of an operation mask of one or two bits."""
    low = om & -om
    rest = om ^ low
    i = low.bit_length() - 1
    return (i, rest.bit_length() - 1) if rest else (i,)


# a path in the sequence tree: the op index tuple of each operation
_Path = tuple[tuple[int, ...], ...]


def _steps(space: _Space, mask: int, singleton_only: bool) -> list[tuple[int, tuple[int, ...]]]:
    """A joint residual's children in canonical operation order, as
    (child mask, op index tuple) pairs."""
    return [(mask ^ om, _op_indices(om)) for om in space.justified(mask, singleton_only)]


def _dfs_leaves(space: _Space, singleton_only: bool) -> Iterator[tuple[_Path, int]]:
    """Leaves of the sequence tree in depth-first canonical order, as (op
    index path, mask), walked on the joint mask on an explicit stack; a
    residual's children are listed once per call."""
    steps: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    stack = [(space.full_mask, ())]
    while stack:
        mask, path = stack.pop()
        kids = steps.get(mask)
        if kids is None:
            kids = steps[mask] = _steps(space, mask, singleton_only)
        if not kids:
            yield path, mask
            continue
        stack.extend((child, path + (idx,)) for child, idx in reversed(kids))


def _sequence_of(space: _Space, path: _Path) -> RepairingSequence:
    return RepairingSequence(tuple(space.operation_of(idx) for idx in path))


def enumerate_sequences(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    singleton_only: bool = False,
    cap: int = DEFAULT_TREE_CAP,
) -> list[RepairingSequence]:
    """All complete repairing sequences, in depth-first canonical order;
    fails before enumerating anything if the tree, counted up front from
    the components' residual DAGs, is over the cap."""
    space = _space(db, frozenset(sigma))
    _check_tree(space, singleton_only, cap)
    return [_sequence_of(space, path) for path, _ in _dfs_leaves(space, singleton_only)]


def candidate_repairs(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    singleton_only: bool = False,
    cap: int = DEFAULT_TREE_CAP,
) -> set[Database]:
    """Results of all complete sequences, the joint leaves of the
    components' residual DAGs, without walking the sequence tree."""
    space = _space(db, frozenset(sigma))
    tables = _tables(space, UR1 if singleton_only else UR, cap)
    return {space.database_of(sum(parts)) for parts in product(*(t.masks for t in tables))}


def _candidate_count(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    singleton_only: bool = False,
    cap: int = DEFAULT_TREE_CAP,
) -> int:
    """len(candidate_repairs(...)) under the same cap, without building a
    Database per repair: the product of the components' leaf counts."""
    space = _space(db, frozenset(sigma))
    return prod(len(dag.leaf_positions()) for dag in _capped_dags(space, singleton_only, cap))


def sequence_count(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    singleton_only: bool = False,
    cap: int = DEFAULT_TREE_CAP,
) -> int:
    """|CRS| (or the singleton variant) by dynamic programming on the
    components' residual DAGs; exact for arbitrary FDs, without touching
    the tree. Fails on more than cap + 1 residual states."""
    space = _space(db, frozenset(sigma))
    dags = _capped_dags(space, singleton_only, cap + 1)
    if len(dags) == 1:
        return dags[0].leaves[-1]
    return _shuffled(dags, True)


def _canonical_paths(space: _Space, singleton_only: bool, ordering: str) -> dict[int, _Path]:
    """Per result mask, the preferred complete path under the ordering."""
    if ordering not in ("dfs", "reversed-dfs"):
        raise ValueError(f"unknown ordering {ordering!r}")
    chosen: dict[int, _Path] = {}
    for path, mask in _dfs_leaves(space, singleton_only):
        if ordering == "reversed-dfs" or mask not in chosen:
            chosen[mask] = path
    return chosen


def canonical_sequences(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    singleton_only: bool = False,
    ordering: str = "dfs",
    cap: int = DEFAULT_TREE_CAP,
) -> set[RepairingSequence]:
    """One designated complete sequence per candidate repair: the first
    one reaching it in depth-first tree order ("dfs"), or the last
    ("reversed-dfs")."""
    space = _space(db, frozenset(sigma))
    _check_tree(space, singleton_only, cap)
    paths = _canonical_paths(space, singleton_only, ordering).values()
    return {_sequence_of(space, path) for path in paths}


# ---------------------------------------------------------------------------
# Explicit chains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainEdge:
    op: Operation
    probability: Fraction
    child: "ChainNode"


@dataclass(frozen=True)
class ChainNode:
    residual: Database
    edges: tuple[ChainEdge, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.edges


@dataclass(frozen=True)
class RepairingChain:
    """The explicit edge-labeled tree of one generator over one instance."""

    db: Database
    sigma: frozenset[FunctionalDependency]
    kind: GeneratorKind
    root: ChainNode

    def leaves(self) -> list[tuple[RepairingSequence, Fraction, Database]]:
        """(sequence, probability, repair) triples in depth-first order."""
        out: list[tuple[RepairingSequence, Fraction, Database]] = []
        stack: list[tuple[ChainNode, tuple[Operation, ...], Fraction]] = [
            (self.root, (), Fraction(1))
        ]
        while stack:
            node, ops, p = stack.pop()
            if node.is_leaf:
                out.append((RepairingSequence(ops), p, node.residual))
            for edge in reversed(node.edges):
                stack.append((edge.child, ops + (edge.op,), p * edge.probability))
        return out

    def repair_distribution(self) -> "RepairDistribution":
        probs: dict[Database, Fraction] = {}
        for _, p, repair in self.leaves():
            if p:
                probs[repair] = probs.get(repair, Fraction(0)) + p
        return RepairDistribution(probs)

    def to_json(self) -> dict:
        root: dict = {}
        stack: list[tuple[ChainNode, Fraction | None, Fraction, dict]] = [
            (self.root, None, Fraction(1), root)
        ]
        nodes = 0
        while stack:
            node, label, p, out = stack.pop()
            nodes += 1
            out["residual"] = [str(f) for f in node.residual.sorted_facts]
            if label is not None:
                out["label"] = f"{label.numerator}/{label.denominator}"
            if node.is_leaf:
                out["pi"] = f"{p.numerator}/{p.denominator}"
                continue
            children = out["children"] = []
            for e in node.edges:
                child = {"op": str(e.op)}
                children.append(child)
                stack.append((e.child, e.probability, p * e.probability, child))
        return {
            "generator": self.kind.label,
            "node_count": nodes,
            "root": root,
        }


def build_chain(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    kind: GeneratorKind,
    cap: int = DEFAULT_TREE_CAP,
    ordering: str = "dfs",
) -> RepairingChain:
    """Materialize the full tree with exact rational edge labels.

    The uniform-repairs labels are counts of canonical sequences below
    each node; when no canonical sequence passes through a node its
    outgoing labels are immaterial and fall back to the uniform choice,
    keeping every non-leaf's labels summing to 1.
    """
    sigma = frozenset(sigma)
    space = _space(db, sigma)
    _check_tree(space, kind.singleton_only, cap)

    prefix_counts: dict[_Path, int] = {}
    if kind.family == "ur":
        for path in _canonical_paths(space, kind.singleton_only, ordering).values():
            for stop in range(len(path) + 1):
                prefix = path[:stop]
                prefix_counts[prefix] = prefix_counts.get(prefix, 0) + 1

    singletons = kind.singleton_only
    # post-order on an explicit stack: a node is built once its children
    # are, each with the number of complete sequences below it
    stack = [(space.full_mask, (), _steps(space, space.full_mask, singletons), [])]
    while True:
        mask, prefix, kids, built = stack[-1]
        if len(built) < len(kids):
            child, idx = kids[len(built)]
            stack.append((child, prefix + (idx,), _steps(space, child, singletons), []))
            continue
        stack.pop()
        leaves = sum(n for _, n in built) or 1
        here = prefix_counts.get(prefix, 0)
        if not kids:
            labels = []
        elif kind.family == "us":
            labels = [Fraction(n, leaves) for _, n in built]
        elif here == 0:  # every uo node, and ur nodes off the canonical paths
            labels = [Fraction(1, len(kids))] * len(kids)
        else:
            labels = [Fraction(prefix_counts.get(prefix + (idx,), 0), here) for _, idx in kids]
        node = ChainNode(
            space.database_of(mask),
            tuple(
                ChainEdge(space.operation_of(idx), label, child)
                for (_, idx), label, (child, _) in zip(kids, labels, built)
            ),
        )
        if not stack:
            return RepairingChain(db, sigma, kind, node)
        stack[-1][3].append((node, leaves))


# ---------------------------------------------------------------------------
# Exact distributions without the tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RepairDistribution:
    """Candidate repairs with their exact probabilities."""

    probs: dict[Database, Fraction]

    def __post_init__(self) -> None:
        total = sum(self.probs.values(), Fraction(0))
        if total != 1:
            raise ValueError(f"repair probabilities sum to {total}, not 1")
        if any(p < 0 for p in self.probs.values()):
            raise ValueError("negative repair probability")

    @property
    def support(self) -> list[Database]:
        return sorted(self.probs, key=lambda d: d.sorted_facts)

    def probability(self, repair: Database) -> Fraction:
        return self.probs.get(repair, Fraction(0))

    def items(self):
        return ((d, self.probs[d]) for d in self.support)

    def __len__(self) -> int:
        return len(self.probs)


class _Table(NamedTuple):
    """The candidate repairs of one conflict component under one
    generator, as masks over the _Space's facts with one weight each;
    within its component a repair has probability weight / total.

    Weights are 1 (ur), the walk's probability times L^n (uo, see
    _walk_weights) or the number of complete sequences ending there (us).
    With several components a us weight is a length table instead: those
    sequences by their number of operations, which shuffle with the other
    components' by counting._shuffle.
    """

    span: int  # the component's facts
    masks: list[int]
    weights: list
    total: object  # the weights' sum; for length tables, their sum by length


def _forward(dag: _Dag, shift: int = 0) -> list[int]:
    """The number of paths that reach each residual from the full
    database along the DAG's edges. With shift > 0 a count is kept by
    length, the count of paths with l operations in bits
    [l*shift, (l+1)*shift); each edge moves it up one slot, and no slot
    carries as long as it stays below 2^shift."""
    starts, kids = dag.starts, dag.kids
    weight = [0] * len(dag.masks)
    weight[dag.root] = 1
    for i in reversed(range(len(dag.masks))):
        a, b = starts[i], starts[i + 1]
        if a < b:
            w = weight[i] << shift
            for c in kids[a:b]:
                weight[c] += w
    return weight


def _walk_weights(dag: _Dag) -> tuple[list[int], int]:
    """The uniform-operations walk's probability of reaching each
    residual in integers, and L, the lcm of the out-degrees.

    Residual i carries p_i L^r, r the facts it has lost: an edge out of a
    residual of degree d that removes s facts passes on its weight times
    L^s / d, an integer since d divides L. Of n facts, a residual that
    keeps k is thus over L^(n-k), and its weight times L^k is over L^n.
    """
    starts, kids, masks = dag.starts, dag.kids, dag.masks
    big = lcm(*{b - a for a, b in zip(starts, starts[1:]) if b > a})
    weight = [0] * len(masks)
    weight[dag.root] = 1
    for i in reversed(range(len(masks))):
        a, b = starts[i], starts[i + 1]
        if a < b:
            w, mask = weight[i] * (big // (b - a)), masks[i]
            one, two = w, w * big
            for c in kids[a:b]:
                removed = mask ^ masks[c]
                weight[c] += two if removed & (removed - 1) else one
    return weight, big


def _slots(packed: int, shift: int) -> list[int]:
    """The length table kept in a packed count (see _forward)."""
    low = (1 << shift) - 1
    out = []
    while packed:
        out.append(packed & low)
        packed >>= shift
    return out


def _table(comp: _Component, dag: _Dag, family: str, single: bool) -> _Table:
    leaves = dag.leaf_positions()
    facts = comp.facts

    def lift(mask: int) -> int:
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << facts[low.bit_length() - 1]
            mask ^= low
        return out

    # a single component's facts are the _Space's, in the same order
    masks = [dag.masks[i] for i in leaves]
    if not single:
        masks = [lift(m) for m in masks]
    span = lift(comp.full_mask)
    if family == "ur":
        return _Table(span, masks, [1] * len(leaves), len(leaves))
    if family == "us":
        if single:
            weight = _forward(dag)
            return _Table(span, masks, [weight[i] for i in leaves], dag.leaves[dag.root])
        # a slot counts paths that extend to distinct complete sequences
        shift = dag.leaves[dag.root].bit_length()
        weight = _forward(dag, shift)
        packed = [weight[i] for i in leaves]
        return _Table(
            span, masks, [_slots(w, shift) for w in packed], _slots(sum(packed), shift)
        )
    weight, big = _walk_weights(dag)
    powers = [big**k for k in range(comp.n + 1)]
    return _Table(
        span,
        masks,
        [weight[i] * powers[dag.masks[i].bit_count()] for i in leaves],
        powers[comp.n],
    )


def _tables(space: _Space, kind: GeneratorKind, cap: int) -> list[_Table]:
    """One table per connected component of the conflict graph; fails
    like _capped_dags."""
    dags = _capped_dags(space, kind.singleton_only, cap)
    comps = space.components()
    single = len(comps) == 1
    return [_table(comp, dag, kind.family, single) for comp, dag in zip(comps, dags)]


def _law(tables: list[_Table]):
    """How the weights of separate components combine, the unit of that
    combination, and the number a combined weight stands for: a product,
    or for length tables a shuffle read as its sum over lengths."""
    if tables and isinstance(tables[0].total, list):
        return _shuffle, [1], sum
    return mul, 1, _same


def _same(x):
    return x


def _probability(tables: list[_Table], masks: tuple[int, ...]) -> Fraction:
    """Probability that a repair keeps one of the witness masks.

    Only the components a mask touches are enumerated, depth first over
    their leaves. Untouched ones cancel under a product law and fold into
    one length table under the shuffle. A prefix that keeps a witness
    whole counts for all its completions at once; one that has dropped a
    fact of every witness is cut.
    """
    if not masks:
        return Fraction(0)
    if not masks[0]:  # the smallest witness is empty: certain
        return Fraction(1)
    combine, unit, value = _law(tables)
    touched, start = [], unit
    for t in tables:
        if any(m & t.span for m in masks):
            touched.append(t)
        elif combine is _shuffle:
            start = combine(start, t.total)
    # Witness i is bit i of a set. kills[d][k]: the witnesses that leaf k
    # of touched[d] drops a fact of; ends[d]: those whose last touched
    # component is touched[d]; rest[d]: the totals of touched[d:] combined.
    kills = [
        [sum(1 << i for i, x in enumerate(masks) if x & t.span & ~m) for m in t.masks]
        for t in touched
    ]
    ends = [0] * len(touched)
    for i, x in enumerate(masks):
        ends[max(d for d, t in enumerate(touched) if x & t.span)] |= 1 << i
    rest = [unit]
    for t in reversed(touched):
        rest.append(combine(t.total, rest[-1]))
    rest.reverse()
    numerator = 0
    stack = [(0, start, (1 << len(masks)) - 1)]
    while stack:
        d, so_far, alive = stack.pop()
        for kill, w in zip(kills[d], touched[d].weights):
            live = alive & ~kill
            if not live:
                continue
            weight = w if so_far is unit else combine(so_far, w)
            if live & ends[d]:  # a witness is kept whatever follows
                after = rest[d + 1]
                numerator += value(weight if after is unit else combine(weight, after))
            else:
                stack.append((d + 1, weight, live))
    return Fraction(numerator, value(combine(start, rest[0])))


def repair_distribution(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    kind: GeneratorKind,
    cap: int = DEFAULT_TREE_CAP,
) -> RepairDistribution:
    """Exact distribution over candidate repairs for one generator: the
    joint leaves of the per-component tables, each repair's weight the
    combination of its parts'; agrees with the materialized chain
    (cross-checked in tests)."""
    space = _space(db, frozenset(sigma))
    tables = _tables(space, kind, cap)
    combine, unit, value = _law(tables)
    total = unit
    for t in tables:
        total = combine(total, t.total)
    total = value(total)
    probs: dict[Database, Fraction] = {}
    for parts in product(*(zip(t.masks, t.weights) for t in tables)):
        joint, weight = 0, unit
        for m, w in parts:
            joint |= m
            weight = combine(weight, w)
        probs[space.database_of(joint)] = Fraction(value(weight), total)
    return RepairDistribution(probs)


def answer_probabilities(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    kind: GeneratorKind,
    q: ConjunctiveQuery,
    answers: Iterable[tuple[str, ...]] | None = None,
    cap: int = DEFAULT_TREE_CAP,
) -> dict[tuple[str, ...], Fraction]:
    """Probability that a repair drawn from the generator's distribution
    returns each answer tuple: the given tuples, or every tuple that has
    a witness in the database (any other tuple has probability 0).

    The query is evaluated once, on the full database; an answer's
    probability is then summed over the joint leaves of the components
    its witness masks touch (see _probability).
    """
    space = _space(db, frozenset(sigma))
    tables = _tables(space, kind, cap)
    if answers is None:
        found = space.answer_masks(q)
    else:
        found = {}
        for c in map(tuple, answers):
            found.update(space.answer_masks(q, c))
            found.setdefault(c, ())
    return {c: _probability(tables, masks) for c, masks in found.items()}


def exact_answer_probability(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    kind: GeneratorKind,
    q: ConjunctiveQuery,
    c: tuple[str, ...] = (),
    cap: int = DEFAULT_TREE_CAP,
) -> Fraction:
    """Probability that a repair drawn from the generator's distribution
    returns the answer tuple."""
    c = tuple(c)
    return answer_probabilities(db, sigma, kind, q, [c], cap)[c]


# ---------------------------------------------------------------------------
# Witness construction for the independent-set correspondence
# ---------------------------------------------------------------------------


def realize_repair(
    db: Database,
    sigma: Iterable[FunctionalDependency],
    target: Database,
) -> RepairingSequence:
    """A complete sequence whose result is the given independent set.

    Facts are stratified by conflict-graph distance from the target and
    removed deepest stratum first, so every deletion still has its
    witness pair intact. An empty target keeps the construction anchored
    at the canonically least fact and removes it last, paired with one of
    its neighbors.
    """
    sigma = frozenset(sigma)
    if not _nontrivially_connected(db, sigma):
        raise ValueError("database is not non-trivially connected under the FDs")
    kept = frozenset(target.facts)
    if not kept <= db.facts:
        raise ValueError("target is not a subset of the database")
    # a violation lies in a pair alone, so a set is independent iff consistent
    if not satisfies(db._subset(kept), sigma):
        raise ValueError("target is not an independent set of the conflict graph")

    # breadth-first over the neighbour masks, each stratum in fact order;
    # every fact is a conflict fact, so space.facts[0] is the least fact
    space = _space(db, sigma)
    seen = frontier = space.mask_of(kept) if kept else 1
    strata: list[list[Fact]] = []
    while frontier:
        stratum: list[Fact] = []
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            i = low.bit_length() - 1
            stratum.append(space.facts[i])
            reach |= space.nbr[i]
        strata.append(stratum)
        frontier = reach & ~seen
        seen |= frontier

    partner = None if kept else strata[1][0]
    ops = [Operation.of(f) for stratum in reversed(strata[1:]) for f in stratum if f != partner]
    if partner is not None:
        ops.append(Operation.of(partner, space.facts[0]))
    return RepairingSequence(tuple(ops))
