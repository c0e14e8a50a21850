"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 tools/bench_set.py --side parent=../parent --side change=. \\
        --workload monte-carlo --seeds 1-10 --out BENCH_<n>.json

For every workload and seed, each side runs
``python3 bench/run.py --workload W --seed S --seconds T --trace 0`` in its
own checkout, with T the ``run_seconds`` of that checkout's
BENCHMARK.json, under a timeout of TIMEOUT_S; which side goes first
alternates from one seed to the next. Every run is kept with its side's
commit (and ``"dirty": true`` when that checkout has uncommitted
changes), run length, wall time, exit status and result line. An
existing output file is extended, not replaced, so sets run at different
times add up. The summary gives, per workload and side, the wall time of
the runs, how many were not correct or had a failed request, and for each
end-to-end metric the median and quartiles over the other runs; and how
many pairs the second side won (ties count for neither side).

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIMEOUT_S = 600  # per benchmark run

METRICS = {  # name -> True when higher is better
    "setup_s": False,
    "requests_per_s": True,
    "request_p50_ms": False,
    "request_p90_ms": False,
    "peak_rss_mb": False,
}


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '3,5,8' or a mix: '1-4,9'."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def commit_of(path: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=path, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def is_dirty(path: Path) -> bool | None:
    """Whether the checkout has uncommitted changes, or None outside git."""
    try:
        out = subprocess.run(
            ["git", "status", "--porcelain"], cwd=path, capture_output=True, text=True,
            check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(out.stdout.strip())


def run_seconds(path: Path) -> float:
    """The run length the checkout's BENCHMARK.json sets."""
    return json.loads((path / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(path: Path, workload: str, seed: int) -> dict:
    seconds = run_seconds(path)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=path, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seconds": seconds, "wall_s": time.monotonic() - start,
                "error": f"timed out after {TIMEOUT_S} s"}
    record: dict = {"seconds": seconds, "wall_s": time.monotonic() - start,
                    "exit": proc.returncode}
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["error"] = (proc.stderr.strip().splitlines() or ["no result line"])[-1]
    return record


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def value(run: dict, metric: str) -> float | None:
    result = run.get("result")
    if not result or not result.get("correct") or result.get("failed"):
        return None
    return result["metrics"][metric]["value"]


def summarise(runs: list[dict], sides: list[str]) -> dict:
    summary: dict = {}
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        block: dict = {"runs": {s: sum(r["side"] == s for r in mine) for s in sides}}
        for side in sides:
            walls = [r["wall_s"] for r in mine if r["side"] == side]
            block[side] = {
                "wall_s": {**quartiles(walls), "max": max(walls)} if walls else {},
                "runs_not_correct": sum(
                    r["side"] == side and value(r, "requests_per_s") is None for r in mine
                ),
            }
            for metric in METRICS:
                values = [v for r in mine if r["side"] == side
                          if (v := value(r, metric)) is not None]
                if values:
                    block[side][metric] = quartiles(values)
        if len(sides) == 2:
            base, other = sides
            pairs = {}
            for r in mine:
                if r["side"] == base:
                    match = [o for o in mine if o["side"] == other and o["seed"] == r["seed"]
                             and o["pair"] == r["pair"]]
                    if match:
                        pairs[(r["seed"], r["pair"])] = (r, match[0])
            won = {}
            for metric, higher in METRICS.items():
                wins = total = 0
                for a, b in pairs.values():
                    va, vb = value(a, metric), value(b, metric)
                    if va is None or vb is None:
                        continue
                    total += 1
                    wins += (vb > va) if higher else (vb < va)
                won[metric] = f"{wins}/{total}"
            block[f"pairs_won_by_{other}"] = won
        summary[workload] = block
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True,
                        help="LABEL=PATH of a checkout; give two for pairs, the base first")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    sides = []
    for spec in args.side:
        label, _, path = spec.partition("=")
        sides.append((label, Path(path).resolve()))
    labels = [label for label, _ in sides]
    data = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    data["command"] = "python3 bench/run.py --seconds <BENCHMARK.json run_seconds> --trace 0"
    data["host"] = {"cpus": os.cpu_count(), "python": platform.python_version()}
    commits = {label: commit_of(path) for label, path in sides}
    # a commit hash alone does not name a checkout with uncommitted changes
    dirty = {label: {"dirty": True} if is_dirty(path) else {} for label, path in sides}

    for workload in args.workload:
        for n, seed in enumerate(parse_seeds(args.seeds)):
            pair = sum(r["workload"] == workload and r["seed"] == seed and r["side"] == labels[0]
                       for r in data["runs"])
            order = sides if n % 2 == 0 else sides[::-1]
            for label, path in order:
                record = run_once(path, workload, seed)
                data["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                     "side": label, "commit": commits[label],
                                     **dirty[label], **record})
                print(json.dumps(data["runs"][-1]), flush=True)
                data["summary"] = summarise(data["runs"], labels)
                args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
