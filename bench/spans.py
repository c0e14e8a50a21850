"""Spans around the package's public functions, for the traced run.

Each traced function is replaced, in every module of the package that
refers to it, by a wrapper that records a span: name, parent, start and
end, the round it ran in, and for some calls a value (support size,
samples used). The request span opened by the benchmark is the parent of
the calls its CLI command makes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import resource
import statistics
import sys
from array import array
from time import perf_counter

from oracles import GENERATORS

TRACED = (
    "cli.load_instance",
    "cli.load_query",
    "relational.violations",
    "relational.blocks",
    "queries.entails",
    "repairs.repair_distribution",
    "repairs.sequence_count",
    "repairs.candidate_repairs",
    "counting.count_complete_sequences",
    "counting.count_complete_sequences_singleton",
    "counting.count_candidate_repairs",
    "sampling.sample_outcome",
    "estimation.estimate_probability",
    "estimation.lower_bound",
    "instances.gen_hcoloring_instance",
    "instances.gen_pos2dnf_instance",
    "instances.gen_fd_star",
)
RSS_LAYERS = ("repairs", "sampling")
VALUES = {
    "repairs.repair_distribution": len,
    "estimation.estimate_probability": lambda est: est.samples_used,
}
MODES = ("additive", "multiplicative_bound", "adaptive")

PER_LAYER = (
    [("cli.load_instance_ms", "ms"), ("cli.load_query_ms", "ms"),
     ("relational.violations_ms", "ms"), ("relational.blocks_ms", "ms"),
     ("queries.entails_s", "s"), ("queries.entails_calls", "count")]
    + [(f"repairs.repair_distribution_s.{g}", "s") for g in GENERATORS]
    + [("repairs.support_size", "count"), ("repairs.sequence_count_s", "s"),
       ("repairs.candidate_repairs_s", "s"), ("repairs.rss_growth_mb", "MB"),
       ("counting.count_complete_sequences_s", "s"),
       ("counting.count_complete_sequences_singleton_s", "s"),
       ("counting.count_candidate_repairs_s", "s")]
    + [(f"sampling.draws_per_s.{g}", "draws/s") for g in GENERATORS]
    + [("sampling.rss_growth_mb", "MB")]
    + [(f"estimation.samples_per_s.{g}", "samples/s") for g in GENERATORS]
    + [(f"estimation.estimate_ms.{m}", "ms") for m in MODES]
    + [("estimation.lower_bound_ms", "ms"), ("instances.generate_s", "s")]
)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _tag(args, kwargs) -> str | None:
    """Generator label and estimator mode among a call's arguments."""
    parts = []
    for arg in (*args, *kwargs.values()):
        if hasattr(arg, "family") and hasattr(arg, "label"):
            parts.append(arg.label)
        elif hasattr(arg, "mode") and hasattr(arg, "epsilon"):
            parts.append(arg.mode)
    return "/".join(parts) or None


class Tracer:
    def __init__(self):
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.key = array("i")
        self.parent = array("i")
        self.round = array("i")
        self.value = array("q")
        self.start = array("d")
        self.end = array("d")
        self.rss = array("d")  # rise of the peak RSS across the span, MB
        self._stack = [-1]
        self.current_round = 0

    def open(self, key: str, rss: bool = False) -> int:
        i = len(self.key)
        kid = self._key_ids.get(key)
        if kid is None:
            kid = self._key_ids[key] = len(self.keys)
            self.keys.append(key)
        self.key.append(kid)
        self.parent.append(self._stack[-1])
        self.round.append(self.current_round)
        self.value.append(-1)
        self.end.append(0.0)
        self.rss.append(-_max_rss_mb() if rss else 0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, rss: bool = False) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        if rss:
            self.rss[i] += _max_rss_mb()

    def _wrap(self, name: str, fn):
        rss = name.split(".")[0] in RSS_LAYERS
        value_of = VALUES.get(name)

        def traced(*args, **kwargs):
            tag = _tag(args, kwargs)
            i = self.open(name if tag is None else f"{name}|{tag}", rss)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i, rss)
            if value_of is not None:
                self.value[i] = value_of(result)
            return result

        return traced

    def install(self, package: str = "opcqa") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for name in TRACED:
            module, attr = name.rsplit(".", 1)
            fn = getattr(sys.modules.get(f"{package}.{module}"), attr, None)
            if fn is None:
                print(f"trace: {package}.{name} not found, its layer reads 0", file=sys.stderr)
                continue
            wrapped = self._wrap(name, fn)
            for m in modules:
                for attr_name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr_name, wrapped)

    # -- results

    def write(self, path: str) -> None:
        """Write every span as a gzip-compressed tab-separated line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tround\tname\tstart_s\tend_s\tvalue\n")
            for i in range(len(self.key)):
                out.write(f"{i}\t{self.parent[i]}\t{self.round[i]}\t{self.keys[self.key[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.value[i]}\n")

    def per_layer(self, rounds: int, builds: int) -> dict[str, float]:
        """Per-layer metrics. Times per round are self times (a span minus
        its traced children) summed over the run and divided by the rounds
        run; counts come from round 0, so they repeat for a given seed."""
        n = len(self.key)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        own = list(duration)
        for i in range(n):
            if self.parent[i] >= 0:
                own[self.parent[i]] -= duration[i]
        spans: dict[str, list[int]] = {}
        for i in range(n):
            key = self.keys[self.key[i]]
            spans.setdefault(key.split("|")[0], []).append(i)
            if "|" in key:
                for part in key.split("|")[1].split("/"):
                    spans.setdefault(f"{key.split('|')[0]}|{part}", []).append(i)

        def ids(name):
            return spans.get(name, [])

        def median_ms(name):
            d = [duration[i] for i in ids(name)]
            return 1000 * statistics.median(d) if d else 0.0

        def self_per_round(*names):
            return sum(own[i] for name in names for i in ids(name)) / max(rounds, 1)

        def rate(name, amount):
            chosen = ids(name)
            busy = sum(duration[i] for i in chosen)
            return sum(amount(i) for i in chosen) / busy if busy else 0.0

        def rss_growth(layer):
            return sum(self.rss[i] for name in TRACED if name.startswith(layer + ".")
                       for i in ids(name))

        first_round = lambda name: [i for i in ids(name) if self.round[i] == 0]
        out = {
            "cli.load_instance_ms": median_ms("cli.load_instance"),
            "cli.load_query_ms": median_ms("cli.load_query"),
            "relational.violations_ms": median_ms("relational.violations"),
            "relational.blocks_ms": median_ms("relational.blocks"),
            "queries.entails_s": self_per_round("queries.entails"),
            "queries.entails_calls": len(first_round("queries.entails")),
        }
        for g in GENERATORS:
            out[f"repairs.repair_distribution_s.{g}"] = self_per_round(f"repairs.repair_distribution|{g}")
        out["repairs.support_size"] = sum(self.value[i] for i in first_round("repairs.repair_distribution"))
        out["repairs.sequence_count_s"] = self_per_round("repairs.sequence_count")
        out["repairs.candidate_repairs_s"] = self_per_round("repairs.candidate_repairs")
        out["repairs.rss_growth_mb"] = rss_growth("repairs")
        for name in ("count_complete_sequences", "count_complete_sequences_singleton",
                     "count_candidate_repairs"):
            out[f"counting.{name}_s"] = self_per_round(f"counting.{name}")
        for g in GENERATORS:
            out[f"sampling.draws_per_s.{g}"] = rate(f"sampling.sample_outcome|{g}", lambda i: 1)
        out["sampling.rss_growth_mb"] = rss_growth("sampling")
        for g in GENERATORS:
            out[f"estimation.samples_per_s.{g}"] = rate(
                f"estimation.estimate_probability|{g}", lambda i: self.value[i])
        for m in MODES:
            out[f"estimation.estimate_ms.{m}"] = median_ms(f"estimation.estimate_probability|{m}")
        out["estimation.lower_bound_ms"] = median_ms("estimation.lower_bound")
        out["instances.generate_s"] = sum(
            duration[i] for name in TRACED if name.startswith("instances.") for i in ids(name)
        ) / max(builds, 1)
        return out
