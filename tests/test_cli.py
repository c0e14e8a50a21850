"""Command-line interface: wire formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import opcqa.cli as cli
from opcqa.cli import dump_instance, load_instance, main
from opcqa.errors import (
    ConstraintClassError,
    OpcqaError,
    ParseError,
    SchemaError,
    SizeCapError,
    UnsupportedCombinationError,
)

from fixtures import keyed_instance, triple_instance, two_key_path_instance


TRIPLE_DOC = {
    "schema": {"R": ["A", "B", "C"]},
    "facts": [
        ["R", "a1", "b1", "c1"],
        ["R", "a1", "b2", "c2"],
        ["R", "a2", "b1", "c2"],
    ],
    "fds": [
        {"relation": "R", "lhs": ["A"], "rhs": ["B"]},
        {"relation": "R", "lhs": ["C"], "rhs": ["B"]},
    ],
}

KEYED_DOC = {
    "schema": {"R": ["A1", "A2"]},
    "facts": [
        ["R", "a1", "b1"],
        ["R", "a1", "b2"],
        ["R", "a1", "b3"],
        ["R", "a2", "b1"],
        ["R", "a3", "b1"],
        ["R", "a3", "b2"],
    ],
    "fds": [{"relation": "R", "lhs": ["A1"], "rhs": ["A2"]}],
}

TWO_KEY_DOC = {
    "schema": {"R": ["A1", "A2"]},
    "facts": [["R", "a1", "b1"], ["R", "a1", "b2"], ["R", "a2", "b2"]],
    "fds": [
        {"relation": "R", "lhs": ["A1"], "rhs": ["A2"]},
        {"relation": "R", "lhs": ["A2"], "rhs": ["A1"]},
    ],
}

OPEN_QUERY_DOC = {
    "answer_vars": ["x"],
    "atoms": [
        {"relation": "R", "terms": [{"const": "a1"}, {"var": "x"}]}
    ],
}

BOOLEAN_QUERY_DOC = {
    "answer_vars": [],
    "atoms": [
        {"relation": "R", "terms": [{"const": "a1"}, {"const": "b1"}]}
    ],
}


@pytest.fixture
def files(tmp_path):
    def write(name: str, doc) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv) -> tuple[int, list[dict], str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    records = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, records, captured.err


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def test_exact_single_tuple(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    code, records, _ = run(
        capsys, "exact", inst, query, "--generator", "ur", "--tuple", "b1"
    )
    assert code == 0
    (record,) = records
    assert record["command"] == "exact"
    assert record["generator"] == "ur"
    assert record["tuple"] == ["b1"]
    assert record["probability"] == {"rational": "1/4", "float": 0.25}
    assert record["wall_time_s"] >= 0
    assert list(record)[-1] == "wall_time_s"


def test_exact_us_matches_sequence_frequency(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    code, records, _ = run(
        capsys, "exact", inst, query, "--generator", "us", "--tuple", "b1"
    )
    assert code == 0
    assert records[0]["probability"]["rational"] == "8/33"


def test_exact_all_answers(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    code, records, _ = run(
        capsys, "exact", inst, query, "--generator", "ur", "--all-answers"
    )
    assert code == 0
    by_tuple = {tuple(r["tuple"]): r["probability"]["rational"] for r in records}
    assert len(by_tuple) == 6
    assert by_tuple[("b1",)] == "1/4"
    assert by_tuple[("b2",)] == "1/4"
    assert by_tuple[("a1",)] == "0/1"


def test_exact_all_answers_lists_every_tuple_like_single_tuples(files, capsys):
    inst = files("triple.json", TRIPLE_DOC)
    query = files("q2.json", {
        "answer_vars": ["x", "y"],
        "atoms": [
            {"relation": "R", "terms": [{"var": "x"}, {"var": "y"}, {"var": "z"}]},
            {"relation": "R", "terms": [{"var": "w"}, {"var": "y"}, {"var": "z"}]},
        ],
    })
    adom = sorted({v for row in TRIPLE_DOC["facts"] for v in row[1:]})
    for generator in ("ur", "us", "uo", "ur1", "us1", "uo1"):
        code, records, _ = run(
            capsys, "exact", inst, query, "--generator", generator, "--all-answers"
        )
        assert code == 0
        assert [r["tuple"] for r in records] == [[x, y] for x in adom for y in adom]
        assert sum(r["probability"]["rational"] != "0/1" for r in records) == 3
        for record in records:
            code, (single,), _ = run(
                capsys, "exact", inst, query, "--generator", generator,
                "--tuple", ",".join(record["tuple"]),
            )
            assert code == 0
            record.pop("wall_time_s"), single.pop("wall_time_s")
            assert single == record


class _StdoutFull(Exception):
    pass


class _StopAfter:
    """A stdout that takes `records` lines and raises on the next write."""

    def __init__(self, records: int) -> None:
        self.left = records

    def write(self, text: str) -> int:
        if self.left <= 0:
            raise _StdoutFull
        self.left -= text.count("\n")
        return len(text)

    def flush(self) -> None:
        pass


def test_exact_all_answers_streams_its_records(files, capsys, monkeypatch):
    # 152 constants and a three-variable head: 152^3 = 3.5M candidate
    # tuples, which a materialised list holds as about 244 MB
    doc = {
        "schema": {"R": ["A", "B"]},
        "facts": [["R", f"c{i}", f"c{i + 1}"] for i in range(151)],
        "fds": [{"relation": "R", "lhs": ["A"], "rhs": ["B"]}],
    }
    query = {
        "answer_vars": ["x", "y", "z"],
        "atoms": [
            {"relation": "R", "terms": [{"var": "x"}, {"var": "y"}]},
            {"relation": "R", "terms": [{"var": "y"}, {"var": "z"}]},
        ],
    }
    argv = ["exact", files("chain.json", doc), files("q3.json", query)]
    monkeypatch.setattr(sys, "stdout", _StopAfter(1000))
    tracemalloc.start()
    try:
        with pytest.raises(_StdoutFull):
            main(argv + ["--generator", "ur", "--all-answers"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"{peak / 2**20:.1f} MB before the 1,000th record"


def test_exact_on_a_1500_atom_query(files, capsys):
    # a long query matches atom by atom without recursion
    inst = files("keyed.json", KEYED_DOC)
    one = files("q.json", OPEN_QUERY_DOC)
    long = files("long.json", dict(OPEN_QUERY_DOC, atoms=OPEN_QUERY_DOC["atoms"] * 1500))
    for generator in ("ur", "ur1", "us", "us1", "uo", "uo1"):
        argv = ("--generator", generator, "--tuple", "b1")
        code, want, _ = run(capsys, "exact", inst, one, *argv)
        assert code == 0
        code, got, _ = run(capsys, "exact", inst, long, *argv)
        assert code == 0, generator
        assert got[0]["probability"] == want[0]["probability"], generator


def test_exact_boolean_query(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    query = files("bq.json", BOOLEAN_QUERY_DOC)
    code, records, _ = run(capsys, "exact", inst, query, "--generator", "ur")
    assert code == 0
    assert "tuple" not in records[0]
    assert records[0]["probability"]["rational"] == "1/4"


def test_exact_tuple_argument_errors(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    open_q = files("q.json", OPEN_QUERY_DOC)
    boolean_q = files("bq.json", BOOLEAN_QUERY_DOC)
    code, _, err = run(capsys, "exact", inst, open_q, "--generator", "ur")
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys, "exact", inst, boolean_q, "--generator", "ur", "--tuple", "b1"
    )
    assert code == 2
    code, _, err = run(
        capsys, "exact", inst, open_q, "--generator", "ur", "--tuple", "b1,b2"
    )
    assert code == 2 and "needs 1" in err


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------


def test_count_on_primary_key_instance(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    expected = {
        "repairs": "12",
        "sequences": "99",
        "repairs1": "6",
        "sequences1": "36",
        "canonical": "12",
    }
    for what, value in expected.items():
        code, records, _ = run(capsys, "count", inst, "--what", what)
        assert code == 0
        assert records[0]["what"] == what
        assert records[0]["count"] == value


def test_count_on_general_fd_instance(files, capsys):
    inst = files("triple.json", TRIPLE_DOC)
    expected = {
        "repairs": "5",
        "sequences": "9",
        "repairs1": "4",
        "sequences1": "5",
        "canonical": "5",
    }
    for what, value in expected.items():
        code, records, _ = run(capsys, "count", inst, "--what", what)
        assert code == 0
        assert records[0]["count"] == value


def test_count_cap_binds_only_the_walks(files, capsys):
    """Under primary keys the closed forms walk nothing, so --cap does
    not bind them; canonical sequences and every count beyond primary
    keys walk residuals and exit 3 past the cap."""
    keyed = files("keyed.json", KEYED_DOC)
    closed = {"repairs": "12", "repairs1": "6", "sequences": "99", "sequences1": "36"}
    for what, value in closed.items():
        code, records, _ = run(capsys, "count", keyed, "--what", what, "--cap", "1")
        assert code == 0, what
        assert records[0]["count"] == value
    triple = files("triple.json", TRIPLE_DOC)
    walked = [(keyed, "canonical")] + [(triple, what) for what in (*closed, "canonical")]
    for inst, what in walked:
        code, records, err = run(capsys, "count", inst, "--what", what, "--cap", "1")
        assert code == 3, (inst, what)
        assert records == []
        assert err.startswith("error:")


def test_count_on_deep_instance_exits_with_size_cap(files, capsys):
    # every complete sequence of a 600-block ladder has at least 600
    # operations, deeper than the recursive tree walk can go
    doc = {
        "schema": {"R": ["K", "V"]},
        "facts": [["R", f"k{j}", f"v{i}"] for j in range(600) for i in range(3)],
        "fds": [{"relation": "R", "lhs": ["K"], "rhs": ["V"]}],
    }
    code, records, err = run(
        capsys, "count", files("deep.json", doc), "--what", "canonical"
    )
    assert code == 3
    assert records == []
    assert err.startswith("error:")


def test_exact_work_on_a_100_block_ladder_exits_with_size_cap(files, capsys):
    # sequences of 100 to 200 operations: too short to exhaust the
    # stack, yet the residuals are far more than the cap
    doc = {
        "schema": {"R": ["K", "V"]},
        "facts": [["R", f"k{j}", f"v{i}"] for j in range(100) for i in range(3)],
        "fds": [{"relation": "R", "lhs": ["K"], "rhs": ["V"]}],
    }
    inst = files("ladder.json", doc)
    query = files("q.json", BOOLEAN_QUERY_DOC)
    for argv in (
        ("count", inst, "--what", "canonical"),
        ("exact", inst, query, "--generator", "uo"),
    ):
        code, records, err = run(capsys, *argv)
        assert code == 3, argv
        assert records == []
        assert err.startswith("error:")


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------


def test_approx_multiplicative_frozen_run(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    code, records, _ = run(
        capsys,
        "approx",
        inst,
        query,
        "--generator",
        "ur",
        "--eps",
        "0.05",
        "--delta",
        "0.05",
        "--mode",
        "multiplicative",
        "--seed",
        "1",
        "--tuple",
        "b1",
    )
    assert code == 0
    (record,) = records
    assert record["mode"] == "multiplicative_bound"
    assert record["samples_used"] == 53120
    assert record["seed"] == 1
    assert record["lower_bound_used"] == "1/12"
    assert record["probability"]["rational"] == "13287/53120"
    assert 0.2375 <= record["probability"]["float"] <= 0.2625
    assert record["flagged_zero"] is False


def test_approx_adaptive_run(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    code, records, _ = run(
        capsys,
        "approx",
        inst,
        query,
        "--generator",
        "ur",
        "--eps",
        "0.05",
        "--delta",
        "0.05",
        "--mode",
        "adaptive",
        "--seed",
        "1",
        "--tuple",
        "b1",
    )
    assert code == 0
    (record,) = records
    assert record["mode"] == "adaptive"
    assert "lower_bound_used" not in record
    assert abs(record["probability"]["float"] - 0.25) <= 0.25 * 0.05


@pytest.mark.parametrize("generator", ["ur", "us", "uo"])
def test_approx_adaptive_tuple_without_witness_draws_nothing(files, capsys, generator):
    # no fact R(a1, zz): the tuple holds in no repair, and the adaptive
    # run says so without spending its 10^7-sample budget
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    code, records, _ = run(
        capsys, "approx", inst, query, "--generator", generator,
        "--eps", "0.2", "--delta", "0.2", "--tuple", "zz",
    )
    assert code == 0
    (record,) = records
    assert record["mode"] == "adaptive"
    assert record["samples_used"] == 0
    assert record["probability"]["rational"] == "0/1"
    assert record["flagged_zero"] is True


def test_approx_determinism(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    argv = (
        "approx", inst, query, "--generator", "ur",
        "--eps", "0.1", "--delta", "0.1", "--mode", "additive",
        "--seed", "77", "--tuple", "b1",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first[0]["probability"] == second[0]["probability"]
    assert first[0]["samples_used"] == second[0]["samples_used"]


def test_approx_exit_codes(files, capsys):
    triple = files("triple.json", TRIPLE_DOC)
    keyed = files("keyed.json", KEYED_DOC)
    open_q = files("q.json", OPEN_QUERY_DOC)
    triple_q = files(
        "tq.json",
        {
            "answer_vars": [],
            "atoms": [
                {
                    "relation": "R",
                    "terms": [{"const": "a1"}, {"const": "b1"}, {"const": "c1"}],
                }
            ],
        },
    )
    # no uniform-repair sampler beyond primary keys
    code, _, err = run(
        capsys, "approx", triple, triple_q, "--generator", "ur",
        "--eps", "0.1", "--delta", "0.1", "--mode", "additive",
    )
    assert code == 4 and "error:" in err
    # multiplicative cost under the polynomial bound blows the cap
    code, _, err = run(
        capsys, "approx", keyed, open_q, "--generator", "uo",
        "--eps", "0.05", "--delta", "0.05", "--mode", "multiplicative",
        "--tuple", "b1",
    )
    assert code == 3 and "adaptive" in err
    # beyond keys there is no multiplicative bound at all
    code, _, err = run(
        capsys, "approx", triple, triple_q, "--generator", "uo",
        "--eps", "0.05", "--delta", "0.05", "--mode", "multiplicative",
    )
    assert code == 4
    # --tuple must match the query head
    boolean_q = files("bq.json", BOOLEAN_QUERY_DOC)
    for q, extra, message in (
        (boolean_q, ["--tuple", "b1"], "Boolean queries take no --tuple"),
        (open_q, [], "non-Boolean query: pass --tuple"),
        (open_q, ["--tuple", "b1,b2"], "--tuple carries 2 values, query needs 1"),
    ):
        code, _, err = run(
            capsys, "approx", keyed, q, "--generator", "ur",
            "--eps", "0.1", "--delta", "0.1", "--mode", "additive", *extra,
        )
        assert code == 2 and err.startswith("error: ") and message in err, message
        assert "Traceback" not in err
    # a delta below the smallest float takes ln(2/delta) from its numerator
    # and denominator
    for delta in ("1e-320", "1e-400"):
        exact = Fraction(delta)
        log_term = math.log(2) + math.log(exact.denominator) - math.log(exact.numerator)
        for mode in ("additive", "adaptive"):
            code, records, err = run(
                capsys, "approx", keyed, open_q, "--generator", "ur",
                "--eps", "0.1", "--delta", delta, "--mode", mode, "--tuple", "b1",
            )
            assert code == 0 and "Traceback" not in err, (delta, mode)
            if mode == "additive":
                (record,) = records
                assert record["samples_used"] == math.ceil(Fraction(log_term) / (2 * Fraction(1, 10) ** 2))


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_records_and_determinism(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    argv = ("sample", inst, "--generator", "us", "-n", "3", "--seed", "9")
    code, records, _ = run(capsys, *argv)
    assert code == 0
    assert len(records) == 3
    for record in records:
        assert set(record) == {"sequence", "repair", "weight"}
        assert record["weight"] == 1
        assert isinstance(record["sequence"], list)
    _, rerun, _ = run(capsys, *argv)
    assert records == rerun


def test_sample_repair_only_for_uniform_repairs(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    code, records, _ = run(
        capsys, "sample", inst, "--generator", "ur", "-n", "2", "--seed", "4"
    )
    assert code == 0
    assert all(r["sequence"] is None for r in records)


def test_sample_beyond_primary_keys(files, capsys):
    triple = files("triple.json", TRIPLE_DOC)
    # the sampler is checked once per request, before any draw
    for generator, n in (("us", "1"), ("us", "0"), ("ur", "0"), ("ur1", "0"), ("us1", "0")):
        code, records, _ = run(capsys, "sample", triple, "--generator", generator, "-n", n)
        assert code == 4 and records == [], (generator, n)
    code, records, _ = run(
        capsys, "sample", triple, "--generator", "uo", "-n", "2", "--seed", "0"
    )
    assert code == 0 and len(records) == 2


CONSISTENT_DOC = {
    "schema": {"R": ["A1", "A2"]},
    "facts": [["R", "a1", "b1"], ["R", "a2", "b1"]],
    "fds": [{"relation": "R", "lhs": ["A1"], "rhs": ["A2"]}],
}


@pytest.mark.parametrize(
    "doc, generators",
    [
        # R(a2, b1) is in no conflict, so every record keeps it
        (KEYED_DOC, ("ur", "us", "uo", "ur1", "us1", "uo1")),
        (TRIPLE_DOC, ("uo", "uo1")),
        (CONSISTENT_DOC, ("ur", "uo", "uo1")),
    ],
)
def test_sample_records_match_the_api(files, capsys, doc, generators):
    from opcqa.repairs import GENERATORS
    from opcqa.sampling import RandomSource, sample_outcome

    inst = files("inst.json", doc)
    db, sigma = load_instance(inst)
    for generator in generators:
        kind = GENERATORS[generator]
        argv = ("sample", inst, "--generator", generator, "-n", "30", "--seed", "6")
        code, records, _ = run(capsys, *argv)
        assert code == 0 and len(records) == 30
        for i, record in enumerate(records):
            o = sample_outcome(db, sigma, kind, RandomSource(6, i))
            want = None if o.sequence is None else [str(op) for op in o.sequence]
            assert record["sequence"] == want, (generator, i)
            assert record["repair"] == [str(f) for f in o.repair.sorted_facts], (generator, i)
            if doc is KEYED_DOC:
                assert "R(a2,b1)" in record["repair"]
            if doc is CONSISTENT_DOC:
                assert record["sequence"] == (None if generator == "ur" else [])
                assert record["repair"] == ["R(a1,b1)", "R(a2,b1)"]


def test_negative_draw_count_or_cap_is_a_usage_error(files, capsys):
    keyed = files("keyed.json", KEYED_DOC)
    query = files("q.json", BOOLEAN_QUERY_DOC)
    for argv in (
        ("sample", keyed, "--generator", "uo", "-n", "-2"),
        ("exact", keyed, query, "--generator", "ur", "--cap", "-3"),
        ("count", keyed, "--what", "sequences", "--cap", "-1"),
        ("chain-dump", keyed, "--generator", "us", "--cap", "-1"),
    ):
        code, records, err = run(capsys, *argv)
        assert code == 2, argv
        assert records == []
        assert err.startswith("error:"), err
    # zero stays allowed: no draws, and a cap no instance meets
    code, records, _ = run(capsys, "sample", keyed, "--generator", "uo", "-n", "0")
    assert code == 0 and records == []
    code, _, err = run(capsys, "exact", keyed, query, "--generator", "ur", "--cap", "0")
    assert code == 3 and err.startswith("error:")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


def test_gen_hcoloring_round_trips(files, capsys, tmp_path):
    out = tmp_path / "colored.json"
    qout = tmp_path / "colored_query.json"
    code, _, _ = run(
        capsys,
        "gen", "--kind", "hcoloring", "--nodes", "a,b", "--edges", "a-b",
        "--out", str(out), "--query-out", str(qout),
    )
    assert code == 0
    db, sigma = load_instance(str(out))
    assert db.fact_count == 6  # T + two V-pairs + one E fact
    # parse(serialize(x)) round-trips
    assert dump_instance(db, sigma) == json.loads(out.read_text())
    code, records, _ = run(
        capsys, "exact", str(out), str(qout), "--generator", "ur"
    )
    assert code == 0
    assert records[0]["probability"]["rational"] == "1/9"


def test_gen_pos2dnf(files, capsys, tmp_path):
    out = tmp_path / "dnf.json"
    qout = tmp_path / "dnf_query.json"
    code, _, _ = run(
        capsys,
        "gen", "--kind", "pos2dnf", "--clauses", "x&y",
        "--out", str(out), "--query-out", str(qout),
    )
    assert code == 0
    code, records, _ = run(
        capsys, "exact", str(out), str(qout), "--generator", "ur1"
    )
    assert code == 0
    assert records[0]["probability"]["rational"] == "1/4"


def test_gen_fdstar_probability(files, capsys, tmp_path):
    out = tmp_path / "star.json"
    qout = tmp_path / "star_query.json"
    code, _, _ = run(
        capsys, "gen", "--kind", "fdstar", "--n", "3", "--out", str(out), "--query-out", str(qout)
    )
    assert code == 0
    code, records, _ = run(
        capsys, "exact", str(out), str(qout), "--generator", "uo"
    )
    assert code == 0
    assert records[0]["probability"]["rational"] == "2/15"


def test_gen_fdlift(files, capsys, tmp_path):
    source = files("twokey.json", TWO_KEY_DOC)
    out = tmp_path / "lifted.json"
    qout = tmp_path / "lifted_query.json"
    code, _, _ = run(
        capsys, "gen", "--kind", "fdlift", "--input", source,
        "--out", str(out), "--query-out", str(qout),
    )
    assert code == 0
    code, records, _ = run(capsys, "count", str(out), "--what", "repairs")
    assert code == 0
    assert records[0]["count"] == "6"
    code, records, _ = run(
        capsys, "exact", str(out), str(qout), "--generator", "ur"
    )
    assert records[0]["probability"]["rational"] == "1/6"


def test_gen_argument_errors(files, capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "gen", "--kind", "hcoloring", "--edges", "a-b")
    assert code == 2 and "--nodes" in err
    code, _, err = run(capsys, "gen", "--kind", "hcoloring", "--nodes", "a,b", "--edges", "ab")
    assert code == 2
    code, _, err = run(capsys, "gen", "--kind", "fdstar")
    assert code == 2
    code, _, err = run(capsys, "gen", "--kind", "pos2dnf", "--clauses", "x")
    assert code == 2
    # lifting rejects non-key constraint sets with a parse-level error
    triple = files("triple.json", TRIPLE_DOC)
    code, _, err = run(capsys, "gen", "--kind", "fdlift", "--input", triple)
    assert code == 2 and "keys" in err
    # a file that cannot be written is a parse-level error, not a traceback
    missing = tmp_path / "missing"
    code, _, err = run(
        capsys, "gen", "--kind", "fdstar", "--n", "3", "--out", str(missing / "x.json")
    )
    assert code == 2 and err.startswith("error:") and "x.json" in err
    code, _, err = run(
        capsys, "gen", "--kind", "fdstar", "--n", "3",
        "--out", str(tmp_path / "star.json"), "--query-out", str(missing / "q.json"),
    )
    assert code == 2 and err.startswith("error:") and "q.json" in err
    # --query-out names a file, "-" included; only --out prints to stdout
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "--kind", "fdstar", "--n", "3", "--query-out", "-"]) == 0
    assert "schema" in json.loads(capsys.readouterr().out)
    assert "atoms" in json.loads((tmp_path / "-").read_text())


# ---------------------------------------------------------------------------
# chain-dump
# ---------------------------------------------------------------------------


def test_chain_dump_document(files, capsys, tmp_path):
    inst = files("triple.json", TRIPLE_DOC)
    out = tmp_path / "chain.json"
    code, _, _ = run(
        capsys, "chain-dump", inst, "--generator", "us", "--out", str(out)
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["generator"] == "us"
    pis = []

    def collect(node):
        if "children" not in node:
            pis.append(node["pi"])
            return
        for child in node["children"]:
            collect(child)

    collect(doc["root"])
    assert pis == ["1/9"] * 9


def test_chain_dump_unwritable_output_is_a_parse_error(files, capsys, tmp_path):
    inst = files("triple.json", TRIPLE_DOC)
    code, _, err = run(
        capsys, "chain-dump", inst, "--generator", "us",
        "--out", str(tmp_path / "missing" / "c.json"),
    )
    assert code == 2 and err.startswith("error:") and "c.json" in err


def test_chain_dump_cap(files, capsys):
    inst = files("keyed.json", KEYED_DOC)
    code, _, err = run(
        capsys, "chain-dump", inst, "--generator", "us", "--cap", "50"
    )
    assert code == 3 and "error:" in err


# ---------------------------------------------------------------------------
# parsing errors and round trips
# ---------------------------------------------------------------------------


def test_malformed_inputs(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    query = files("q.json", OPEN_QUERY_DOC)
    code, _, err = run(capsys, "exact", str(bad), query, "--generator", "ur")
    assert code == 2 and "error:" in err
    code, _, _ = run(
        capsys, "exact", str(tmp_path / "missing.json"), query, "--generator", "ur"
    )
    assert code == 2
    wrong_arity = dict(KEYED_DOC, facts=[["R", "a1"]])
    inst = files("arity.json", wrong_arity)
    code, _, err = run(capsys, "exact", inst, query, "--generator", "ur")
    assert code == 2 and "expects 2 values" in err
    extra_fd_key = dict(
        KEYED_DOC,
        fds=[{"relation": "R", "lhs": ["A1"], "rhs": ["A2"], "note": "x"}],
    )
    inst = files("fdkeys.json", extra_fd_key)
    code, _, _ = run(capsys, "exact", inst, query, "--generator", "ur")
    assert code == 2
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    code, _, err = run(capsys, "exact", str(deep), query, "--generator", "ur")
    assert code == 2 and err.startswith(f"error: {deep}: invalid JSON: ") and "recursion" in err
    fd = {"relation": "R", "lhs": ["A1"], "rhs": ["A2"]}
    bad_instances = [
        (["R"], "top-level JSON object expected"),
        (dict(KEYED_DOC, schema=[]), "schema: non-empty object expected"),
        (dict(KEYED_DOC, schema={"R": "A1"}), "schema.R: expected a list of strings"),
        (dict(KEYED_DOC, schema={"R": ["A1", "A1"]}), "repeats an attribute name"),
        (dict(KEYED_DOC, facts={}), "facts: list expected"),
        (dict(KEYED_DOC, facts=[["R", "a1", 2]]), "facts[0]: expected a list of strings"),
        (dict(KEYED_DOC, facts=[[]]), "facts[0]: relation name missing"),
        (dict(KEYED_DOC, facts=[["S", "a1", "b1"]]), "unknown relation 'S'"),
        (dict(KEYED_DOC, fds={}), "fds: list expected"),
        (dict(KEYED_DOC, fds=[dict(fd, relation=1)]), "relation name must be a string"),
        (dict(KEYED_DOC, fds=[dict(fd, lhs="A1")]), "fds[0].lhs: expected a list of strings"),
        (dict(KEYED_DOC, fds=[dict(fd, rhs=["Z"])]), "unknown attributes ['Z']"),
        (dict(KEYED_DOC, fds=[dict(fd, relation="S")]), "unknown relation 'S'"),
        (dict(KEYED_DOC, fds=[dict(fd, lhs=[])]), "FD left-hand side must be non-empty"),
    ]
    atom = OPEN_QUERY_DOC["atoms"][0]
    bad_queries = [
        ([], "top-level JSON object expected"),
        (dict(OPEN_QUERY_DOC, answer_vars="x"), "answer_vars: expected a list of strings"),
        (dict(OPEN_QUERY_DOC, atoms=[]), "atoms: non-empty list expected"),
        (dict(OPEN_QUERY_DOC, atoms=[{"terms": []}]), "atoms[0]: relation name missing"),
        (dict(OPEN_QUERY_DOC, atoms=[dict(atom, terms="x")]), "atoms[0]: terms: list expected"),
        (
            dict(OPEN_QUERY_DOC, atoms=[dict(atom, terms=[{"const": "a1", "var": "x"}])]),
            "atoms[0].terms[0]: single-key object",
        ),
        (
            dict(OPEN_QUERY_DOC, atoms=[dict(atom, terms=[{"const": 1}, {"var": "x"}])]),
            "atoms[0].terms[0]: term value must be a string",
        ),
        (
            dict(OPEN_QUERY_DOC, atoms=[dict(atom, terms=[{"val": "a1"}, {"var": "x"}])]),
            "atoms[0].terms[0]: unknown term tag 'val'",
        ),
        (dict(OPEN_QUERY_DOC, answer_vars=["y"]), "do not occur in the body"),
        (dict(OPEN_QUERY_DOC, atoms=[dict(atom, relation="S")]), "unknown relation 'S'"),
        (
            dict(OPEN_QUERY_DOC, atoms=[dict(atom, terms=[{"var": "x"}])]),
            "atom R(x) has arity 1, schema says 2",
        ),
    ]
    keyed = files("keyed.json", KEYED_DOC)
    cases = [
        (files(f"inst{i}.json", doc), query, message)
        for i, (doc, message) in enumerate(bad_instances)
    ]
    cases += [
        (keyed, files(f"query{i}.json", doc), message)
        for i, (doc, message) in enumerate(bad_queries)
    ]
    for inst, q, message in cases:
        code, _, err = run(capsys, "exact", inst, q, "--generator", "ur", "--tuple", "b1")
        bad = inst if q == query else q
        assert code == 2 and err.startswith(f"error: {bad}: ") and message in err, message
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "error, code",
    [
        (ParseError, 2),
        (SchemaError, 2),
        (ValueError, 2),
        (SizeCapError, 3),
        (UnsupportedCombinationError, 4),
        (ConstraintClassError, 4),
        (OpcqaError, 2),
    ],
)
def test_exit_code_of_each_error_class(files, capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error(f"raised {error.__name__}")

    monkeypatch.setattr(cli, "answer_probabilities", fail)
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    got, records, err = run(capsys, "exact", inst, query, "--generator", "ur", "--tuple", "b1")
    assert got == code
    assert records == []
    assert err == f"error: raised {error.__name__}\n"


def test_requests_in_one_process_match_fresh_processes(files, capsys, monkeypatch):
    """main serves one request after another, an error among them, with
    the parser built at import; each prints what a fresh process prints."""
    inst = files("keyed.json", KEYED_DOC)
    query = files("q.json", OPEN_QUERY_DOC)
    requests = [
        ["exact", inst, query, "--generator", "us", "--all-answers"],
        ["exact", inst, query, "--generator", "ur"],  # no --tuple: exit 2
        ["sample", inst, "--generator", "uo", "-n", "4", "--seed", "3"],
        ["approx", inst, query, "--generator", "ur", "--eps", "0.1", "--delta", "0.1",
         "--mode", "additive", "--seed", "5", "--tuple", "b1"],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "opcqa.cli", *argv], capture_output=True, text=True, env=env
        )
        for argv in requests
    ]

    def no_parser(*args, **kwargs):
        raise AssertionError("main built an ArgumentParser")

    def records(out: str) -> list[dict]:
        lines = [json.loads(line) for line in out.splitlines()]
        for line in lines:
            line.pop("wall_time_s", None)
        return lines

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    for argv, want in zip(requests, fresh):
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, records(out), err) == (want.returncode, records(want.stdout), want.stderr)
    assert [p.returncode for p in fresh] == [0, 2, 0, 0]


def test_load_dump_round_trip_of_fixture_instances(tmp_path):
    for db, sigma in (keyed_instance(), triple_instance(), two_key_path_instance()):
        doc = dump_instance(db, sigma)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        loaded_db, loaded_sigma = load_instance(str(path))
        assert loaded_db == db
        assert loaded_sigma == frozenset(sigma)
        assert dump_instance(loaded_db, loaded_sigma) == doc
