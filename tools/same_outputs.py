"""Check that two checkouts print the same benchmark outputs.

    python3 tools/same_outputs.py --side parent=../parent --side change=. \\
        --seeds 1-2 --rounds 2

For each side, one subprocess imports that checkout's ``bench/workloads.py``
and ``bench/run.py`` (read-only: ``load_cli``, ``build_inputs``, ``call``,
``package_caches``) and replays rounds 0 .. R-1 of every workload for every
seed, as the benchmark builds them: a cold workload builds each round's
files and clears the package's caches before each request, a warm one
repeats the first round's requests. For each request it prints one JSON
line: the argv with the work directory replaced by a placeholder, the exit
status, and the records without ``wall_time_s``. A request fails when it
exits non-zero or its output fails the request's own check.

The two sides' lines are then compared. The summary gives the counts of
requests, records and failures per side; on a difference it prints the
first one and exits 1.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

PLACEHOLDER = "<work>"


def parse_seeds(text: str) -> list[int]:
    """'1-3' or '3,5,8' or a mix: '1-2,9'."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def replay(checkout: Path, seeds: list[int], rounds: int) -> None:
    """Print one line per request of the checkout's benchmark rounds."""
    sys.dont_write_bytecode = True  # leave the checkout's bench/ as it is
    sys.path.insert(0, str(checkout / "bench"))
    import run as bench
    import workloads

    cli = bench.load_cli()
    clear_caches = bench.package_caches()
    for name in sorted(workloads.WORKLOADS):
        for seed in seeds:
            workload = workloads.WORKLOADS[name]()
            with tempfile.TemporaryDirectory() as workdir:
                requests = None
                for round_no in range(rounds):
                    if requests is None or workload.cold:
                        requests = bench.build_inputs(cli, workload, seed, round_no, Path(workdir))
                    for request in requests:
                        if workload.cold:
                            for clear in clear_caches:
                                clear()
                        code, text, _ = bench.call(cli, request.argv)
                        lines = [line for line in text.splitlines() if line]
                        failed = code != 0
                        try:
                            records = [json.loads(line) for line in lines]
                        except ValueError:  # kept as text, and a failure
                            records, failed = lines, True
                        if not failed:
                            try:
                                request.check(records)
                            except Exception:  # a wrong output fails the request
                                failed = True
                        for record in records:
                            if isinstance(record, dict):
                                record.pop("wall_time_s", None)
                        line = json.dumps({
                            "workload": name, "seed": seed, "round": round_no,
                            "argv": request.argv, "exit": code, "failed": failed,
                            "records": records,
                        }, sort_keys=True)
                        print(line.replace(workdir, PLACEHOLDER), flush=True)


def outputs(checkout: Path, seeds: str, rounds: int) -> list[str]:
    """The replay lines of one checkout, from a subprocess run in it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--replay", str(checkout),
            "--seeds", seeds, "--rounds", str(rounds)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"same_outputs: replay in {checkout} failed:\n{done.stderr[-2000:]}")
    return done.stdout.splitlines()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", help="LABEL=PATH of a checkout; give two")
    parser.add_argument("--seeds", required=True, help="e.g. 1-3 or 3,5,8")
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--replay", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.replay is not None:
        replay(args.replay.resolve(), parse_seeds(args.seeds), args.rounds)
        return 0
    if not args.side or len(args.side) != 2:
        parser.error("give exactly two --side LABEL=PATH")

    lines = {}
    for spec in args.side:
        label, _, path = spec.partition("=")
        lines[label] = outputs(Path(path).resolve(), args.seeds, args.rounds)
        rows = [json.loads(line) for line in lines[label]]
        print(f"same_outputs: {label}: {len(rows)} requests, "
              f"{sum(len(r['records']) for r in rows)} records, "
              f"{sum(r['failed'] for r in rows)} failed")
    (a, left), (b, right) = lines.items()
    for i in range(max(len(left), len(right))):
        x = left[i] if i < len(left) else "<none>"
        y = right[i] if i < len(right) else "<none>"
        if x != y:
            print(f"same_outputs: first difference at request {i}:\n  {a}: {x[:2000]}\n"
                  f"  {b}: {y[:2000]}")
            return 1
    print(f"same_outputs: identical, {len(left)} requests (seeds {args.seeds}, "
          f"rounds 0-{args.rounds - 1})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
