"""Command-line surface: JSON instance/query files in, JSON records out.

Wire formats (bit-stable across patch releases):

* instance file: {"schema": {"R": ["A", "B"]}, "facts": [["R", "a", "b"],
  ...], "fds": [{"relation": "R", "lhs": ["A"], "rhs": ["B"]}]}
* query file: {"answer_vars": ["x"], "atoms": [{"relation": "R",
  "terms": [{"const": "a"}, {"var": "x"}]}]}
* results: one JSON object per line; probabilities carry the exact
  rational as "p/q" next to the shortest round-trip float; counts are
  decimal strings (they may exceed any fixed-width integer).

Exit codes: 0 success, 2 parse/usage error, 3 size cap exceeded,
4 unsupported generator/constraint combination.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from fractions import Fraction
from typing import Any, Iterable

from .errors import (
    ConstraintClassError,
    OpcqaError,
    ParseError,
    SchemaError,
    SizeCapError,
    UnsupportedCombinationError,
)
from .counting import count_candidate_repairs, count_complete_sequences
from .estimation import EstimatorConfig, estimate_probability
from .instances import (
    Pos2DNF,
    UndirectedGraph,
    gen_fd_lift,
    gen_fd_star,
    gen_hcoloring_instance,
    gen_pos2dnf_instance,
)
from .queries import Atom, ConjunctiveQuery, Constant, Variable
from .relational import Database, FunctionalDependency, Schema, fact, is_primary_keys
from .repairs import (
    DEFAULT_TREE_CAP,
    GENERATORS,
    _candidate_count,
    answer_probabilities,
    build_chain,
    canonical_sequences,
    sequence_count,
)
from .sampling import _DRAWS, RandomSource, _sampler_space

__all__ = ["main", "load_instance", "load_query", "dump_instance", "dump_query"]


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _fail(where: str, message: str) -> ParseError:
    return ParseError(f"{where}: {message}")


def _load_json(path: str) -> Any:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise _fail(path, f"cannot read: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
        raise _fail(path, f"invalid JSON: {exc}") from exc


def _write_json(path: str, document: Any, out=None) -> None:
    """Write a JSON document to the file at path, or print it to out when
    one is given and path is "-"."""
    payload = json.dumps(document, indent=2)
    if out is not None and path == "-":
        print(payload, file=out)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    except OSError as exc:
        raise _fail(path, f"cannot write: {exc.strerror or exc}") from exc


def _string_list(value: Any, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _fail(where, "expected a list of strings")
    return value


def load_instance(path: str) -> tuple[Database, frozenset[FunctionalDependency]]:
    """Parse an instance file into a database and its FD set."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise _fail(path, "top-level JSON object expected")
    raw_schema = data.get("schema")
    if not isinstance(raw_schema, dict) or not raw_schema:
        raise _fail(path, "schema: non-empty object expected")
    relations = []
    for name, attrs in raw_schema.items():
        relations.append((name, tuple(_string_list(attrs, f"{path}: schema.{name}"))))
    try:
        schema = Schema(tuple(relations))
    except SchemaError as exc:
        raise _fail(path, f"schema: {exc}") from exc

    raw_facts = data.get("facts")
    if not isinstance(raw_facts, list):
        raise _fail(path, "facts: list expected")
    facts = []
    for i, row in enumerate(raw_facts):
        row = _string_list(row, f"{path}: facts[{i}]")
        if not row:
            raise _fail(f"{path}: facts[{i}]", "relation name missing")
        name, values = row[0], row[1:]
        if not schema.has_relation(name):
            raise _fail(f"{path}: facts[{i}]", f"unknown relation {name!r}")
        if len(values) != schema.arity(name):
            raise _fail(
                f"{path}: facts[{i}]",
                f"{name} expects {schema.arity(name)} values, got {len(values)}",
            )
        facts.append(fact(name, *values))

    raw_fds = data.get("fds", [])
    if not isinstance(raw_fds, list):
        raise _fail(path, "fds: list expected")
    fds = []
    for i, entry in enumerate(raw_fds):
        where = f"{path}: fds[{i}]"
        if not isinstance(entry, dict) or set(entry) != {"relation", "lhs", "rhs"}:
            raise _fail(where, 'object with keys "relation", "lhs", "rhs" expected')
        if not isinstance(entry["relation"], str):
            raise _fail(where, "relation name must be a string")
        lhs = _string_list(entry["lhs"], f"{where}.lhs")
        rhs = _string_list(entry["rhs"], f"{where}.rhs")
        try:
            fd = FunctionalDependency.of(entry["relation"], lhs, rhs)
            fd.validate(schema)
        except SchemaError as exc:
            raise _fail(where, str(exc)) from exc
        fds.append(fd)
    return Database.of(schema, facts), frozenset(fds)


def dump_instance(db: Database, sigma) -> dict:
    return {
        "schema": {name: list(attrs) for name, attrs in db.schema.relations},
        "facts": [[f.relation, *f.values] for f in db.sorted_facts],
        "fds": [
            {"relation": fd.relation, "lhs": sorted(fd.lhs), "rhs": sorted(fd.rhs)}
            for fd in sorted(
                sigma, key=lambda fd: (fd.relation, sorted(fd.lhs), sorted(fd.rhs))
            )
        ],
    }


def load_query(path: str) -> ConjunctiveQuery:
    """Parse a query file into a conjunctive query."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise _fail(path, "top-level JSON object expected")
    answer = _string_list(data.get("answer_vars", []), f"{path}: answer_vars")
    raw_atoms = data.get("atoms")
    if not isinstance(raw_atoms, list) or not raw_atoms:
        raise _fail(path, "atoms: non-empty list expected")
    atoms = []
    for i, entry in enumerate(raw_atoms):
        where = f"{path}: atoms[{i}]"
        if not isinstance(entry, dict) or not isinstance(entry.get("relation"), str):
            raise _fail(where, "relation name missing")
        raw_terms = entry.get("terms")
        if not isinstance(raw_terms, list):
            raise _fail(where, "terms: list expected")
        terms = []
        for j, term in enumerate(raw_terms):
            spot = f"{where}.terms[{j}]"
            if not isinstance(term, dict) or len(term) != 1:
                raise _fail(spot, 'single-key object {"const": ...} or {"var": ...} expected')
            ((tag, value),) = term.items()
            if not isinstance(value, str):
                raise _fail(spot, "term value must be a string")
            if tag == "const":
                terms.append(Constant(value))
            elif tag == "var":
                terms.append(Variable(value))
            else:
                raise _fail(spot, f'unknown term tag {tag!r}')
        atoms.append(Atom(entry["relation"], tuple(terms)))
    try:
        return ConjunctiveQuery(tuple(atoms), tuple(Variable(v) for v in answer))
    except SchemaError as exc:
        raise _fail(path, str(exc)) from exc


def dump_query(q: ConjunctiveQuery) -> dict:
    def term(t) -> dict:
        if isinstance(t, Constant):
            return {"const": t.value}
        return {"var": t.name}

    return {
        "answer_vars": [v.name for v in q.answer_variables],
        "atoms": [
            {"relation": a.relation, "terms": [term(t) for t in a.terms]}
            for a in q.atoms
        ],
    }


# ---------------------------------------------------------------------------
# Result records
# ---------------------------------------------------------------------------


def _probability_field(value: Fraction) -> dict:
    return {
        "rational": f"{value.numerator}/{value.denominator}",
        "float": float(value),
    }


def _emit(record: dict, out) -> None:
    print(json.dumps(record), file=out)


def _record(command: str, wall: float, **fields) -> dict:
    record: dict[str, Any] = {"command": command}
    record.update({k: v for k, v in fields.items() if v is not None})
    record["wall_time_s"] = wall
    return record


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _answer_targets(args, q: ConjunctiveQuery, db: Database) -> Iterable[tuple[str, ...]]:
    """The tuples a request asks about, in output order; --all-answers streams them."""
    exact = hasattr(args, "all_answers")  # approx takes --tuple only
    if q.is_boolean:
        if args.tuple is not None or (exact and args.all_answers):
            named = "--tuple / --all-answers" if exact else "--tuple"
            raise ParseError(f"Boolean queries take no {named}")
        return [()]
    arity = len(q.answer_variables)
    if exact and args.all_answers:
        return itertools.product(sorted(db.adom), repeat=arity)
    if args.tuple is None:
        named = "--tuple or --all-answers" if exact else "--tuple"
        raise ParseError(f"non-Boolean query: pass {named}")
    values = tuple(args.tuple.split(","))
    if len(values) != arity:
        raise ParseError(f"--tuple carries {len(values)} values, query needs {arity}")
    return [values]


def _load_inputs(args) -> tuple[Database, frozenset[FunctionalDependency], ConjunctiveQuery]:
    """The instance and the query, checked against the instance's schema."""
    db, sigma = load_instance(args.instance)
    q = load_query(args.query)
    try:
        q.validate(db.schema)
    except SchemaError as exc:
        raise _fail(args.query, str(exc)) from exc
    return db, sigma, q


def cmd_exact(args, out) -> int:
    db, sigma, q = _load_inputs(args)
    kind = GENERATORS[args.generator]
    targets = _answer_targets(args, q, db)
    start = time.perf_counter()
    # --all-answers evaluates only the tuples that have a witness
    probs = answer_probabilities(
        db, sigma, kind, q, None if args.all_answers else targets, cap=args.cap
    )
    wall = time.perf_counter() - start
    for c in targets:
        p = probs.get(c, Fraction(0))
        _emit(
            _record(
                "exact",
                wall,
                generator=kind.label,
                tuple=None if q.is_boolean else list(c),
                probability=_probability_field(p),
            ),
            out,
        )
    return 0


def cmd_count(args, out) -> int:
    db, sigma = load_instance(args.instance)
    start = time.perf_counter()
    single = args.what.endswith("1")
    repairs = args.what.startswith("repairs")
    if args.what == "canonical":
        value = len(canonical_sequences(db, sigma, cap=args.cap))
    elif is_primary_keys(sigma, db.schema):
        # the closed forms walk nothing, so they take no cap
        closed = count_candidate_repairs if repairs else count_complete_sequences
        value = closed(db, sigma, single)
    else:
        count = _candidate_count if repairs else sequence_count
        value = count(db, sigma, single, cap=args.cap)
    wall = time.perf_counter() - start
    _emit(_record("count", wall, what=args.what, count=str(value)), out)
    return 0


def cmd_approx(args, out) -> int:
    db, sigma, q = _load_inputs(args)
    kind = GENERATORS[args.generator]
    (c,) = _answer_targets(args, q, db)
    config = EstimatorConfig(
        epsilon=args.eps,
        delta=args.delta,
        mode=args.mode,
        max_samples=args.max_samples,
        threads=args.threads,
    )
    start = time.perf_counter()
    est = estimate_probability(db, sigma, kind, q, c, config, RandomSource(args.seed))
    wall = time.perf_counter() - start
    _emit(
        _record(
            "approx",
            wall,
            generator=kind.label,
            tuple=list(c) if not q.is_boolean else None,
            probability=_probability_field(est.value),
            mode=est.mode,
            samples_used=est.samples_used,
            seed=args.seed,
            lower_bound_used=(
                None
                if est.lower_bound_used is None
                else f"{est.lower_bound_used.numerator}/{est.lower_bound_used.denominator}"
            ),
            flagged_zero=est.flagged_zero,
        ),
        out,
    )
    return 0


def cmd_sample(args, out) -> int:
    db, sigma = load_instance(args.instance)
    kind = GENERATORS[args.generator]
    space = _sampler_space(db, sigma, kind)
    # each fact and operation is formatted once per request; a fact in no
    # conflict has mask 0, so every draw keeps it
    facts = [(space.mask_of([f]) or 0, str(f)) for f in db.sorted_facts]
    names: dict[tuple[int, ...], str] = {}
    for i in range(args.n):
        mask, path = _DRAWS[kind.family](space, RandomSource(args.seed, i), kind.singleton_only)
        record = {
            "sequence": None if path is None else [
                names.get(ix) or names.setdefault(ix, str(space.operation_of(ix))) for ix in path
            ],
            "repair": [name for bit, name in facts if bit & mask == bit],
            "weight": 1,
        }
        _emit(record, out)
    return 0


def _parse_graph(args) -> UndirectedGraph:
    nodes = [n for n in (args.nodes or "").split(",") if n]
    if not nodes:
        raise ParseError("--nodes: comma-separated node names required")
    edges = []
    for chunk in (e for e in (args.edges or "").split(",") if e):
        ends = chunk.split("-")
        if len(ends) != 2:
            raise ParseError(f'--edges: "{chunk}" is not of the form a-b')
        edges.append(tuple(ends))
    try:
        return UndirectedGraph.of(nodes, edges)
    except ValueError as exc:
        raise ParseError(f"--edges: {exc}") from exc


def _parse_formula(args) -> Pos2DNF:
    clauses = []
    for chunk in (c for c in (args.clauses or "").split(",") if c):
        names = chunk.split("&")
        if len(names) != 2:
            raise ParseError(f'--clauses: "{chunk}" is not of the form x&y')
        clauses.append(tuple(names))
    if not clauses:
        raise ParseError("--clauses: comma-separated x&y clauses required")
    try:
        return Pos2DNF.of(*clauses)
    except ValueError as exc:
        raise ParseError(f"--clauses: {exc}") from exc


def cmd_gen(args, out) -> int:
    if args.kind == "hcoloring":
        db, sigma, query = gen_hcoloring_instance(_parse_graph(args))
    elif args.kind == "pos2dnf":
        db, sigma, query = gen_pos2dnf_instance(_parse_formula(args))
    elif args.kind == "fdstar":
        if args.n is None or args.n < 1:
            raise ParseError("--n: positive fact count required")
        db, sigma, query = gen_fd_star(args.n)
    else:
        if not args.input:
            raise ParseError("--input: source instance file required")
        source_db, source_sigma = load_instance(args.input)
        try:
            db, sigma, query = gen_fd_lift(source_db, source_sigma)
        except ValueError as exc:
            raise ParseError(f"{args.input}: {exc}") from exc

    _write_json(args.out, dump_instance(db, sigma), out)
    if args.query_out:
        _write_json(args.query_out, dump_query(query))
    return 0


def cmd_chain_dump(args, out) -> int:
    db, sigma = load_instance(args.instance)
    kind = GENERATORS[args.generator]
    chain = build_chain(db, sigma, kind, cap=args.cap, ordering=args.ordering)
    _write_json(args.out, chain.to_json(), out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------

_GENERATOR_CHOICES = sorted(GENERATORS)


def non_negative(text: str) -> int:
    """-n and --cap: an integer, a negative one a usage error."""
    value = int(text)
    if value < 0:
        raise ParseError(f"-n and --cap take a count of at least 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opcqa",
        description="Operational consistent query answering over FD-violating databases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exact = sub.add_parser("exact", help="exact answer probability per tuple")
    exact.add_argument("instance")
    exact.add_argument("query")
    exact.add_argument("--generator", required=True, choices=_GENERATOR_CHOICES)
    exact.add_argument("--tuple", default=None, help="comma-separated constants")
    exact.add_argument("--all-answers", action="store_true")
    exact.add_argument("--cap", type=non_negative, default=DEFAULT_TREE_CAP)
    exact.set_defaults(func=cmd_exact)

    count = sub.add_parser("count", help="exact repair/sequence counts")
    count.add_argument("instance")
    count.add_argument(
        "--what",
        required=True,
        choices=["repairs", "repairs1", "sequences", "sequences1", "canonical"],
    )
    count.add_argument("--cap", type=non_negative, default=DEFAULT_TREE_CAP)
    count.set_defaults(func=cmd_count)

    approx = sub.add_parser("approx", help="randomized probability estimate")
    approx.add_argument("instance")
    approx.add_argument("query")
    approx.add_argument("--generator", required=True, choices=_GENERATOR_CHOICES)
    approx.add_argument("--eps", required=True)
    approx.add_argument("--delta", required=True)
    approx.add_argument(
        "--mode",
        default="adaptive",
        choices=["additive", "multiplicative", "multiplicative_bound", "adaptive"],
    )
    approx.add_argument("--seed", type=int, default=0)
    approx.add_argument("--tuple", default=None)
    approx.add_argument("--threads", type=int, default=1)
    approx.add_argument("--max-samples", type=int, default=10_000_000)
    approx.set_defaults(func=cmd_approx)

    sample = sub.add_parser("sample", help="draw repairs/sequences as JSON lines")
    sample.add_argument("instance")
    sample.add_argument("--generator", required=True, choices=_GENERATOR_CHOICES)
    sample.add_argument("-n", type=non_negative, default=1)
    sample.add_argument("--seed", type=int, default=0)
    sample.set_defaults(func=cmd_sample)

    gen = sub.add_parser("gen", help="write a constructed instance file")
    gen.add_argument(
        "--kind", required=True, choices=["hcoloring", "pos2dnf", "fdstar", "fdlift"]
    )
    gen.add_argument("--nodes", help="hcoloring: comma-separated node names")
    gen.add_argument("--edges", help="hcoloring: comma-separated a-b pairs")
    gen.add_argument("--clauses", help="pos2dnf: comma-separated x&y clauses")
    gen.add_argument("--n", type=int, help="fdstar: number of facts")
    gen.add_argument("--input", help="fdlift: instance file to lift")
    gen.add_argument("--out", default="-")
    gen.add_argument("--query-out", default=None)
    gen.set_defaults(func=cmd_gen)

    chain = sub.add_parser("chain-dump", help="write the explicit chain as JSON")
    chain.add_argument("instance")
    chain.add_argument("--generator", required=True, choices=_GENERATOR_CHOICES)
    chain.add_argument("--ordering", default="dfs", choices=["dfs", "reversed-dfs"])
    chain.add_argument("--cap", type=non_negative, default=DEFAULT_TREE_CAP)
    chain.add_argument("--out", default="-")
    chain.set_defaults(func=cmd_chain_dump)

    return parser


_PARSER = _build_parser()  # configuration, built once per process

# exit status per error class; every other OpcqaError or ValueError is 2
_EXIT_CODES = {SizeCapError: 3, UnsupportedCombinationError: 4, ConstraintClassError: 4}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args, sys.stdout)
    except (OpcqaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
