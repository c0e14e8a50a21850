"""Boolean and non-Boolean conjunctive queries.

Evaluation is plain backtracking in listed-atom order, which is all the
test instances need; no join reordering, no indexes beyond a per-relation
fact list.

Repair-based answering evaluates the query once, on the full database:
a sub-database returns an answer tuple iff it contains one of the
tuple's witnesses (minimal homomorphism images), so a residual is
tested by a subset check instead of a fresh search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import SchemaError
from .relational import Database, Fact, Schema

__all__ = [
    "Term",
    "Variable",
    "Constant",
    "Atom",
    "ConjunctiveQuery",
    "Homomorphism",
    "homomorphisms",
    "answers",
    "entails",
    "witnesses",
    "witness_masks",
]


@dataclass(frozen=True)
class Variable:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Constant:
    value: str

    def __str__(self) -> str:
        return repr(self.value)


Term = Variable | Constant


@dataclass(frozen=True)
class Atom:
    relation: str
    terms: tuple[Term, ...]

    def __str__(self) -> str:
        return f"{self.relation}({','.join(str(t) for t in self.terms)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """Atoms plus the tuple of answer (free) variables.

    Boolean queries have an empty answer tuple. At least one atom is
    required; the empty conjunction is not a query here.
    """

    atoms: tuple[Atom, ...]
    answer_variables: tuple[Variable, ...] = ()

    def __post_init__(self) -> None:
        if not self.atoms:
            raise SchemaError("a conjunctive query needs at least one atom")
        body_vars = {t for atom in self.atoms for t in atom.terms if isinstance(t, Variable)}
        loose = [v for v in self.answer_variables if v not in body_vars]
        if loose:
            raise SchemaError(f"answer variables {loose} do not occur in the body")

    @property
    def is_boolean(self) -> bool:
        return not self.answer_variables

    @property
    def variables(self) -> frozenset[Variable]:
        return frozenset(
            t for atom in self.atoms for t in atom.terms if isinstance(t, Variable)
        )

    def atom_count(self) -> int:
        """|Q|, the number of atoms."""
        return len(self.atoms)

    def validate(self, schema: Schema) -> None:
        for atom in self.atoms:
            if len(atom.terms) != schema.arity(atom.relation):
                raise SchemaError(
                    f"atom {atom} has arity {len(atom.terms)}, schema says "
                    f"{schema.arity(atom.relation)}"
                )

    def __str__(self) -> str:
        head = ",".join(str(v) for v in self.answer_variables)
        body = ",".join(str(a) for a in self.atoms)
        return f"Q({head}) :- {body}"


Homomorphism = Mapping[Variable, str]


def _match(atom: Atom, f: Fact, binding: dict[Variable, str]) -> dict[Variable, str] | None:
    """Extend binding so atom maps onto f, or None if impossible."""
    extended = binding
    for term, value in zip(atom.terms, f.values):
        if isinstance(term, Constant):
            if term.value != value:
                return None
        else:
            bound = extended.get(term)
            if bound is None:
                if extended is binding:
                    extended = dict(binding)
                extended[term] = value
            elif bound != value:
                return None
    return extended


def _extensions(
    q: ConjunctiveQuery, db: Database, answer: tuple[str, ...] | None = None
) -> Iterator[tuple[dict[Variable, str], tuple[Fact, ...]]]:
    """Every homomorphism of the query into db, lazily, with the facts its
    atoms map onto; only those returning the answer tuple when one is
    given. Atoms are matched in the order listed, candidate facts in
    canonical fact order."""
    seed: dict[Variable, str] = {}
    if answer is not None and len(answer) != len(q.answer_variables):
        raise SchemaError(
            f"answer arity {len(answer)} does not match query head arity "
            f"{len(q.answer_variables)}"
        )
    q.validate(db.schema)
    for var, value in zip(q.answer_variables, answer or ()):
        if seed.setdefault(var, value) != value:
            return iter(())  # a repeated head variable asked for two values
    by_relation = {
        atom.relation: db.facts_of(atom.relation) for atom in q.atoms
    }

    def extend(i: int, binding: dict[Variable, str], chosen: tuple[Fact, ...]):
        if i == len(q.atoms):
            yield binding, chosen
            return
        atom = q.atoms[i]
        for f in by_relation[atom.relation]:
            ext = _match(atom, f, binding)
            if ext is not None:
                yield from extend(i + 1, ext, chosen + (f,))

    return extend(0, seed, ())


def homomorphisms(q: ConjunctiveQuery, db: Database) -> Iterator[Homomorphism]:
    """All assignments of the query's variables that satisfy every atom.

    Deterministic order: atoms are matched in the order listed, candidate
    facts in canonical fact order.
    """
    return (dict(binding) for binding, _ in _extensions(q, db))


def answers(q: ConjunctiveQuery, db: Database) -> set[tuple[str, ...]]:
    """Answer tuples, i.e. projections of homomorphisms onto the answer
    variables. A satisfied Boolean query answers {()}."""
    return {
        tuple(h[v] for v in q.answer_variables) for h in homomorphisms(q, db)
    }


def entails(db: Database, q: ConjunctiveQuery, answer: tuple[str, ...] = ()) -> bool:
    """Does the database return this answer tuple for the query?"""
    return any(True for _ in _extensions(q, db, answer))


def witnesses(
    q: ConjunctiveQuery, db: Database, answer: tuple[str, ...] | None = None
) -> dict[tuple[str, ...], tuple[frozenset[Fact], ...]]:
    """Minimal homomorphism images of the query in db, by answer tuple.

    Any sub-database of db returns answer c iff it contains one of c's
    witnesses: a homomorphism into the sub-database is one into db whose
    image survived, and a superset of a surviving image adds nothing.
    Answer tuples without a homomorphism are absent. Given an answer,
    only that tuple is searched (its key is absent if it has no witness).
    Witnesses come smallest first, ties in sorted-fact order.
    """
    images: dict[tuple[str, ...], set[frozenset[Fact]]] = {}
    for binding, chosen in _extensions(q, db, answer):
        c = tuple(binding[v] for v in q.answer_variables)
        images.setdefault(c, set()).add(frozenset(chosen))
    return {c: _minimal_sets(found) for c, found in images.items()}


def _minimal_sets(sets: Iterable[frozenset[Fact]]) -> tuple[frozenset[Fact], ...]:
    kept: list[frozenset[Fact]] = []
    for s in sorted(sets, key=lambda s: (len(s), sorted(s))):
        if not any(k <= s for k in kept):
            kept.append(s)
    return tuple(kept)


def witness_masks(
    witness_sets: Iterable[frozenset[Fact]], bit: Mapping[Fact, int]
) -> tuple[int, ...]:
    """Witnesses as bitmasks over an indexing of the facts that a repair
    may delete, minimal ones only, smallest first.

    Facts without a bit survive in every repair, so they drop out; an
    empty mask means the answer holds in every repair.
    """
    masks = {sum(bit.get(f, 0) for f in w) for w in witness_sets}
    kept: list[int] = []
    for m in sorted(masks, key=lambda m: (m.bit_count(), m)):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return tuple(kept)
