"""opcqa benchmark: drives the CLI in-process, checks every output, and
prints one JSON result line.

    python3 bench/run.py --workload exact-blocks --seed 1 --seconds 15 --trace 0

Requests go through ``opcqa.cli.main(argv)`` one after another in a single
process and thread (a closed loop with one client), with stdout captured
and parsed. A run repeats whole rounds of its workload's request list
until the measured request time reaches ``--seconds``. With ``--trace 0``
it prints the end-to-end metrics; with ``--trace 1`` it wraps the
package's public functions in spans and prints the per-layer metrics.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "_runs"
SETUP_REPEATS = 12
MIN_REQUESTS = 100  # weight of kept latencies, so that ten lie beyond the 90th percentile


def load_cli():
    """The CLI module of the package in this checkout's src/."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import opcqa.cli
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import opcqa from {src}: {exc}")
    if not Path(opcqa.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"benchmark: opcqa was imported from {opcqa.cli.__file__}, not {src}")
    return opcqa.cli


def package_caches():
    """cache_clear of every module-level functools cache in the package."""
    return [
        value.cache_clear
        for name, module in list(sys.modules.items())
        if name == "opcqa" or name.startswith("opcqa.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]


def build_inputs(cli, workload, seed: int, round_no: int, workdir: Path):
    rng = random.Random(f"{workload.name}:{seed}:{round_no}")
    return workload.inputs(cli.main, rng, round_no, str(workdir))


def call(cli, argv: list[str]) -> tuple[int | str, str, float]:
    """Run one CLI request; (exit code or exception, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is one failed request, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0 and not isinstance(code, str):
        code = f"exit {code}: {err.getvalue().strip()[:200]}"
    return code, out.getvalue(), elapsed


def fastest_quarter(by_request: list[list[float]]) -> list[tuple[float, float]]:
    """(latency, weight) pairs: the fastest quarter of each request's
    repeats over the measured rounds, the repeat on the quarter's edge
    counting in part, so that every request keeps exactly a quarter of its
    repeats whatever their number.

    A shared host may run the process at full speed or at about half speed
    in stretches of a second to a minute (a fixed loop then reads about 45
    or about 90 ms). The fastest quarter of a request's repeats is the part
    least touched by slow stretches, unless they fill three quarters of the
    run."""
    kept = []
    for repeats in by_request:
        share = len(repeats) / 4
        kept += [(t, min(1.0, share - i)) for i, t in enumerate(sorted(repeats)[:math.ceil(share)])]
    return kept


def weighted_quantile(kept: list[tuple[float, float]], q: float) -> float:
    """The q-quantile of weighted latencies. Each latency stands at the
    middle of its share of the weight and the quantile is interpolated
    between them, so that a quantile on the edge between two requests'
    shares reads between the two rather than jumping to either."""
    kept = sorted(kept)
    total = sum(w for _, w in kept)
    below = 0.0
    last = None
    for t, w in kept:
        at = (below + w / 2) / total
        if at >= q:
            if last is None:
                return t
            return last[1] + (t - last[1]) * (q - last[0]) / (at - last[0])
        last = (at, t)
        below += w
    return kept[-1][0]


class SetupTimer:
    """Wall times of fresh processes that import the package and write the
    first round's instance and query files. One is taken after each round
    of the run, so that they spread over it like the requests do, and the
    rest at its end; set-up time is the median of their fastest quarter."""

    def __init__(self, args):
        self.argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                     "--seed", str(args.seed), "--setup-only"]
        self.times: list[float] = []

    def __call__(self) -> None:
        if len(self.times) < SETUP_REPEATS:
            start = time.perf_counter()
            subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
            self.times.append(time.perf_counter() - start)

    def seconds(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self()
        return weighted_quantile(fastest_quarter([self.times]), 0.5)


def run(cli, workload, seed: int, seconds: float, workdir: Path, tracer=None,
        after_round=lambda: None) -> dict:
    clear_caches = package_caches()
    by_request: list[list[float]] = []  # latencies of the i-th request of each measured round
    attempted = failed = rounds = builds = 0
    problems: list[str] = []
    wrong = False
    verified: set[tuple] = set()
    requests = None
    measured = 0.0
    # the warm workload's first round fills the package's memos and is
    # not measured; the cold workloads measure every round
    warmup = 0 if workload.cold else 1
    while rounds <= warmup or measured < seconds or len(by_request) * (rounds - warmup) / 4 < MIN_REQUESTS:
        if requests is None or workload.cold:
            requests = build_inputs(cli, workload, seed, rounds, workdir)
            builds += 1
        if tracer is not None:
            tracer.current_round = rounds
        # objects made before the round (the benchmark's own, and in the
        # warm workload the package's memos) are frozen out of the
        # collector's reach, and each request starts with no garbage
        # pending, so that collections the benchmark caused do not land in
        # request time
        gc.collect()
        gc.freeze()
        results = []
        round_time = 0.0
        for request in requests:
            if workload.cold:
                for clear in clear_caches:
                    clear()
            gc.collect()
            span = tracer.open(f"request.{request.argv[0]}") if tracer is not None else None
            code, text, elapsed = call(cli, request.argv)
            if tracer is not None:
                tracer.close(span)
            results.append((request, code, text, elapsed))
            round_time += elapsed
        gc.unfreeze()
        if rounds >= warmup:
            measured += round_time
            by_request += [[] for _ in results[len(by_request):]]
        for i, (request, code, text, elapsed) in enumerate(results):
            attempted += 1
            problem = None if code == 0 else str(code)
            key = (tuple(request.argv), text)
            if problem is None and key not in verified:
                try:
                    request.check([json.loads(line) for line in text.splitlines()])
                except Exception as exc:  # any malformed or wrong output fails the request
                    problem = f"wrong output: {type(exc).__name__}: {exc}"
                    wrong = True
                else:
                    if not workload.cold:
                        verified.add(key)  # the same output again needs no second check
            if problem is None:
                if rounds >= warmup:
                    by_request[i].append(elapsed)  # a failed request has no latency
            else:
                failed += 1
                problems.append(f"{' '.join(request.argv)}: {problem}")
        rounds += 1
        after_round()
    pooled = workload.finish()
    for line in (problems + pooled)[:20]:
        print(f"benchmark: {line}", file=sys.stderr)
    kept = fastest_quarter(by_request)
    if not kept:
        sys.exit(f"benchmark: {failed} of {attempted} requests failed, no latency to report")
    return {
        "correct": not wrong and not pooled,
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "builds": builds,
        "requests_per_s": sum(w for _, w in kept) / sum(t * w for t, w in kept),
        "request_p50_ms": 1000 * weighted_quantile(kept, 0.5),
        "request_p90_ms": 1000 * weighted_quantile(kept, 0.9),
        "samples": sum(len(repeats) for repeats in by_request),
    }


def main() -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli = load_cli()
    workload = workloads.WORKLOADS[args.workload]()
    workdir = RUNS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            build_inputs(cli, workload, args.seed, 0, workdir)
            return 0
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            result = run(cli, workload, args.seed, args.seconds, workdir, tracer)
        else:
            setup = SetupTimer(args)
            result = run(cli, workload, args.seed, args.seconds, workdir, after_round=setup)
            setup_s = setup.seconds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {k: result[k] for k in ("rounds", "samples", "requests_per_s", "request_p50_ms", "request_p90_ms")}
    print(f"benchmark: {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(info)}",
          file=sys.stderr)
    if tracer is not None:
        tracer.write(str(RUNS / f"{args.workload}.spans.tsv.gz"))
        layer = tracer.per_layer(result["rounds"], result["builds"])
        units = dict(spans.PER_LAYER)
        metrics = {name: {"value": layer[name], "unit": units[name]} for name in units}
    else:
        values = {
            "setup_s": (setup_s, "s"),
            "requests_per_s": (result["requests_per_s"], "req/s"),
            "request_p50_ms": (result["request_p50_ms"], "ms"),
            "request_p90_ms": (result["request_p90_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
