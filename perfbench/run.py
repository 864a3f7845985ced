"""Stage-level query benchmark for conceptq.

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run measures one workload in this process, which imports ``conceptq``
from the ``src`` directory next to ``perfbench``:

1. A separate process generates the workload's taxonomy TSV and query stream
   from the seed (``gen.py``), so its memory is not counted here.
2. ``conceptq.load`` reads the TSV in two batches, before and after the
   query loop; ``setup_s`` is the median over both.
3. One client runs a closed loop on one thread: it calls ``run_query``
   (``holdout_experiment`` for ``holdout``) and sends the next query only
   after the reply. Each reply is checked outside the timed span. The loop
   runs for ``--seconds`` and, if needed, until ``MIN_SAMPLES`` queries
   completed, so that ``query_ms_p90`` has ten samples beyond it.
4. ``--trace 1`` runs every query twice, untraced and traced in alternating
   order, with spans around the package's module-level calls. It checks that
   both runs give identical rankings and reports per-layer metrics.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

WORKLOADS = ("interactive", "large_kb", "holdout")
# The client is one thread; BLAS must not start threads that compete with it.
THREAD_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# setup_s is the median of two batches of loads, one before and one after the
# query loop, so that a slow spell of the machine covers at most half of them.
# Each batch has at least SETUP_REPEATS loads taking at least SETUP_SECONDS.
SETUP_REPEATS = 2
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 10
WARMUP = 2
MIN_SAMPLES = 100
MAX_STRETCH = 3  # a loop never runs past this many times --seconds
K = 10
HOLDOUT_FRACTION = 0.5

E2E_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "recall_at_10": "ratio",
    "ratio_at_10": "ratio",
}

# Span name -> layer group whose self time it adds to.
SPAN_GROUP = {
    "pipeline": "pipeline.self",
    "evaluation": "evaluation.self",
    "query.parse": "query.self",
    "query.decompose": "query.self",
    "query.enumerate_subsets": "query.self",
    "baseline": "baseline",
    "expansion": "expansion",
    "aggregate": "aggregate",
    "taxonomy.ingest": "taxonomy.ingest",
    "taxonomy.entity_union": "taxonomy.union",
}
# Module-level names the package calls through, and the span each gets.
TRACED_CALLS = {
    "pipeline": {
        "parse": "query.parse",
        "decompose": "query.decompose",
        "enumerate_subsets": "query.enumerate_subsets",
        "baseline_rank": "baseline",
        "expand": "expansion",
        "optimize": "aggregate",
        "entity_union": "taxonomy.entity_union",
    },
    "evaluation": {
        "parse": "query.parse",
        "decompose": "query.decompose",
        "ingest": "taxonomy.ingest",
        "run_query": "pipeline",
    },
}
COUNTER_UNITS = {
    "query.subsets_enumerated": "count",
    "baseline.iterations": "count",
    "baseline.converged_ratio": "ratio",
    "expansion.seed_count": "count",
    "expansion.runs": "count",
    "expansion.retained_ratio": "ratio",
    "aggregate.universe_size": "count",
    "aggregate.constraints": "count",
    "aggregate.grad_norm": "norm",
}


def _stem_name(group: str, suffix: str) -> str:
    return f"{group}_{suffix}" if "." in group else f"{group}.{suffix}"


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"taxonomy.load_edges_per_s": "1/s"}
    for group in dict.fromkeys(SPAN_GROUP.values()):
        units[_stem_name(group, "ms")] = "ms"
        units[_stem_name(group, "share_pct")] = "%"
    units.update(COUNTER_UNITS)
    units["trace.overhead_pct"] = "%"
    return units


def reportable_percentile(n: int, candidates=(99.9, 99.0, 90.0)) -> float | None:
    """Highest candidate percentile with at least ten of ``n`` samples beyond it."""
    for p in candidates:
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            return p
    return None


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(p / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


# -- one query -----------------------------------------------------------


@dataclass
class Outcome:
    """A reply, unpacked outside the timed span."""

    taxonomy: object  # the taxonomy the ranking was computed on
    result: object  # the pipeline's QueryResult
    truth: frozenset
    intersection: frozenset
    report: object = None  # holdout's EvalReport

    def ranking(self) -> list:
        return [(r.entity, r.score, r.provenance) for r in self.result.ranking]


def check(cq, outcome: Outcome) -> str | None:
    """Return why the reply is wrong, or None when every check passes."""
    res = outcome.result
    names = [r.entity for r in res.ranking]
    if len(set(names)) != len(names) or set(names) != set(res.scores.universe):
        return "ranking is not a permutation of scores.universe"
    scores = [r.score for r in res.ranking]
    if not all(math.isfinite(s) for s in scores):
        return "non-finite score"
    if any(later > earlier for earlier, later in zip(scores, scores[1:])):
        return "scores are not in non-increasing order"
    if not res.expansion.seed_entities <= set(names):
        return "a seed entity is missing from the ranking"
    union = cq.entity_union(outcome.taxonomy, res.decomposition.short_concepts)
    for r in res.ranking:
        if r.entity in res.expansion.seed_entities:
            expected = "seed"
        elif r.entity not in union:
            expected = "expanded"
        else:
            expected = "baseline-only"
        if r.provenance != expected:
            return f"provenance of {r.entity!r} is {r.provenance!r}, expected {expected!r}"
    if outcome.report is not None:
        recall, ratio = quality(cq, outcome)
        averages = outcome.report.averages
        if averages[f"recall@{K}"] != recall or averages[f"ratio@{K}"] != ratio:
            return "holdout report disagrees with its ranking"
    return None


def quality(cq, outcome: Outcome) -> tuple[float, float]:
    """recall@K against the truth and ratio@K against the intersection."""
    ranked = outcome.result.entities()
    truth = cq.GroundTruth(query=outcome.result.query.raw, answers=outcome.truth)
    return cq.recall_at_k(ranked, truth, K), cq.ratio_at_k(ranked[:K], outcome.intersection)


def counters(cq, outcome: Outcome) -> dict[str, float]:
    """Per-layer work counts of one reply, computed outside every span."""
    res = outcome.result
    n = len(res.decomposition.short_concepts)
    sizes = [si.size for si in res.subsets]
    seeds = res.expansion.seed_entities
    candidates = set()
    for e in seeds:
        candidates.update(outcome.taxonomy.concepts_of(e))
    grad = cq.gradient(
        res.scores.scores, res.baseline.ordering, res.expansion.r_c, res.expansion.r_p,
        res.config.weights(),
    )
    iterations = res.baseline.iterations_run
    # The iteration cap is planned to go away; without one the solve always converges.
    max_iter = getattr(res.config, "baseline_max_iter", None)
    return {
        "query.subsets_enumerated": len(res.subsets),
        "baseline.iterations": iterations,
        "baseline.converged_ratio": float(max_iter is None or iterations < max_iter),
        "expansion.seed_count": len(seeds),
        "expansion.runs": 1 if n in sizes else sizes.count(max(sizes)),
        "expansion.retained_ratio": len(res.expansion.concepts) / max(1, len(candidates)),
        "aggregate.universe_size": len(res.scores.universe),
        "aggregate.constraints": len(res.expansion.r_p),
        "aggregate.grad_norm": math.sqrt(sum(g * g for g in grad.values())),
    }


class Client:
    """Issues one workload's queries against one loaded taxonomy."""

    def __init__(self, cq, workload: str, taxonomy):
        self.cq = cq
        self.holdout = workload == "holdout"
        self.taxonomy = taxonomy
        self.captured: list = []

    def capture(self, run_query):
        """Wrap ``evaluation.run_query`` so that holdout replies can be checked."""

        def capturing(taxonomy, *args, **kwargs):
            result = run_query(taxonomy, *args, **kwargs)
            self.captured.append((taxonomy, result))
            return result

        return capturing

    def call(self, qid: int, query: dict):
        if self.holdout:
            self.captured.clear()
            return self.cq.holdout_experiment(self.taxonomy, query["query"], HOLDOUT_FRACTION, qid, K)
        return self.cq.run_query(self.taxonomy, query["query"])

    def outcome(self, query: dict, reply) -> Outcome:
        if self.holdout:
            reduced, result = self.captured[-1]
            extras = reply.per_query[0].extras
            return Outcome(reduced, result, frozenset(extras["removed"]),
                           frozenset(extras["reduced_intersection"]), reply)
        intersection = self.cq.entity_intersection(self.taxonomy, reply.decomposition.short_concepts)
        return Outcome(self.taxonomy, reply, frozenset(query["answers"]), intersection)

    def execute(self, qid: int, query: dict, tracer=None) -> tuple[float, Outcome]:
        """Time one call, traced when ``tracer`` is given; unpack the reply after."""
        if tracer is None:
            t0 = time.perf_counter()
            reply = self.call(qid, query)
            latency = time.perf_counter() - t0
        else:
            tracer.qid = qid
            with tracing.patched(tracer_targets(self.cq, tracer)):
                t0 = time.perf_counter()
                with tracer.span("evaluation" if self.holdout else "pipeline"):
                    reply = self.call(qid, query)
                latency = time.perf_counter() - t0
        return latency, self.outcome(query, reply)


def tracer_targets(cq, tracer) -> list:
    """Wrappers for the traced names; a name the package no longer calls is skipped,
    so its layer reports 0 instead of the traced run failing."""
    targets = []
    for module_name, names in TRACED_CALLS.items():
        module = getattr(cq, module_name)
        for name, span in names.items():
            if hasattr(module, name):
                targets.append((module, name, lambda fn, span=span: tracer.traced(span, fn)))
    return targets


# -- the closed loop ---------------------------------------------------------


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)
    traced_latencies: list = field(default_factory=list)
    recalls: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    counters: list = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)
    attempted: int = 0


def closed_loop(client: Client, queries, seconds: float, min_samples: int, tracer=None) -> LoopResult:
    """Run queries one after another until time and sample count are both met.

    With a tracer every query runs twice, untraced and traced, in alternating
    order so that neither run always sees the other's warm state.
    """
    cq = client.cq
    out = LoopResult()
    start = time.perf_counter()
    for qid, query in enumerate(queries):
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(out.latencies) >= min_samples) or elapsed >= MAX_STRETCH * seconds:
            break
        out.attempted += 1
        try:
            if tracer is None:
                latency, outcome = client.execute(qid, query)
            else:
                order = (None, tracer) if qid % 2 == 0 else (tracer, None)
                runs = {t is not None: client.execute(qid, query, t) for t in order}
                latency, outcome = runs[False]
                traced_latency, traced = runs[True]
        except Exception as exc:  # a failed query is counted by class; the loop goes on
            out.errors[type(exc).__name__] += 1
            continue
        problem = check(cq, outcome)
        if problem is None and tracer is not None:
            problem = check(cq, traced)
            if problem is None and traced.ranking() != outcome.ranking():
                problem = "traced ranking differs from untraced ranking"
        if problem is not None:
            out.errors[f"CheckFailed: {problem}"] += 1
            continue
        out.latencies.append(latency)
        recall, ratio = quality(cq, outcome)
        out.recalls.append(recall)
        out.ratios.append(ratio)
        if tracer is not None:
            out.traced_latencies.append(traced_latency)
            out.counters.append(counters(cq, traced))
    return out


def timed_loads(load, path, times: list):
    """Load ``path`` several times, appending each wall time; return the last taxonomy.

    Small taxonomies load in well under a second, so they are loaded until
    ``SETUP_SECONDS`` have passed, which steadies their median.
    """
    taxonomy = None
    start = len(times)
    while (len(times) - start < SETUP_REPEATS
           or (sum(times[start:]) < SETUP_SECONDS and len(times) - start < SETUP_MAX_REPEATS)):
        taxonomy = None
        gc.collect()
        t0 = time.perf_counter()
        taxonomy = load(path)
        times.append(time.perf_counter() - t0)
    return taxonomy


def e2e_metrics(setup_times, loop: LoopResult) -> dict[str, float]:
    lat = loop.latencies or [0.0]
    return {
        "setup_s": statistics.median(setup_times),
        "queries_per_s": len(loop.latencies) / sum(lat) if loop.latencies else 0.0,
        "query_ms_p50": 1000.0 * statistics.median(lat),
        "query_ms_p90": 1000.0 * percentile(lat, 90.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": len(loop.latencies) / loop.attempted if loop.attempted else 0.0,
        "recall_at_10": statistics.fmean(loop.recalls or [0.0]),
        "ratio_at_10": statistics.fmean(loop.ratios or [0.0]),
    }


def layer_metrics(edges_per_s: float, spans, loop: LoopResult) -> dict[str, float]:
    totals = tracing.per_query_self(spans, SPAN_GROUP.__getitem__)
    query_time = sum(s.end - s.start for s in spans if s.parent < 0)
    metrics = {"taxonomy.load_edges_per_s": edges_per_s}
    for group in dict.fromkeys(SPAN_GROUP.values()):
        per_query = [totals[q].get(group, 0.0) for q in sorted(totals)] or [0.0]
        metrics[_stem_name(group, "ms")] = 1000.0 * statistics.median(per_query)
        metrics[_stem_name(group, "share_pct")] = 100.0 * sum(per_query) / query_time if query_time else 0.0
    for name in COUNTER_UNITS:
        metrics[name] = statistics.fmean([c[name] for c in loop.counters] or [0.0])
    plain, traced = sum(loop.latencies), sum(loop.traced_latencies)
    # Every query ran once each way, so the qps ratio is the ratio of summed times.
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - plain / traced) if traced else 0.0
    return metrics


# -- one workload in this process --------------------------------------------


def import_package():
    """Import conceptq from this checkout's ``src``, never from site-packages."""
    if not (SRC / "conceptq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no conceptq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conceptq

    if not Path(conceptq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported conceptq from {conceptq.__file__}, not {SRC}")
    return conceptq


def environment(cq, workload: str, seed: int) -> dict:
    import numpy

    import gen

    return {
        "workload": workload,
        "seed": seed,
        "generator_seed": gen.rng_seed(workload, seed),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "conceptq": getattr(cq, "__version__", "unknown"),
        "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
        "platform": platform.platform(),
    }


def measure(cq, workload: str, tsv: Path, queries: list, seconds: float, trace: bool,
            min_samples: int = MIN_SAMPLES) -> dict:
    """Set up and run one workload in this process; return metrics and raw figures."""
    setup_times: list = []
    taxonomy = timed_loads(cq.load, tsv, setup_times)
    edges = taxonomy.n_edges
    client = Client(cq, workload, taxonomy)
    timed, warmup = queries[:-WARMUP], queries[-WARMUP:]
    tracer = tracing.Tracer() if trace else None
    with tracing.patched([(cq.evaluation, "run_query", client.capture)]):
        for i, query in enumerate(warmup):
            client.execute(len(timed) + i, query)
        loop = closed_loop(client, timed, seconds, 0 if trace else min_samples, tracer)
    client = taxonomy = None
    timed_loads(cq.load, tsv, setup_times)
    if trace:
        metrics = layer_metrics(edges / statistics.median(setup_times), tracer.spans, loop)
    else:
        metrics = e2e_metrics(setup_times, loop)
    return {"metrics": metrics, "loop": loop, "setup_times": setup_times, "edges": edges,
            "tracer": tracer}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    os.environ.update(THREAD_PIN)
    cq = import_package()
    work = WORK_DIR / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(work)],
            check=True, timeout=300,
        )
        with open(work / "queries.json", encoding="utf-8") as fh:
            queries = json.load(fh)["queries"]
        result = measure(cq, workload, work / "taxonomy.tsv", queries, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    loop = result["loop"]
    samples = len(loop.latencies)
    failed = loop.attempted - samples
    units = layer_units() if trace else E2E_UNITS
    env = environment(cq, workload, seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        result["tracer"].write(OUT_DIR / f"{stem}-spans.jsonl", env)

    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"edges={result['edges']} samples={samples} attempted={loop.attempted}")
    for name, unit in units.items():
        print(f"  {name:32s} {result['metrics'][name]:14.6f} {unit}")
    print(f"  error_rate {failed / max(1, loop.attempted):.6f}, by class {dict(loop.errors)}")
    if trace:
        shares = {n[: -len("share_pct")].rstrip("._"): v
                  for n, v in result["metrics"].items() if n.endswith("share_pct")}
        print(f"  dominant layer: {max(shares, key=shares.get)} ({max(shares.values()):.1f}% of query time)")
    else:
        tail = reportable_percentile(samples)
        print(f"  highest percentile with ten samples beyond it: {tail} of {samples} samples")
        print(f"  setup repeats (s): {result['setup_times']}")
    print("env: " + json.dumps(env, sort_keys=True))
    summary = {
        "correct": failed == 0 and (trace or samples >= MIN_SAMPLES),
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {n: {"value": result["metrics"][n], "unit": u} for n, u in units.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "errors": dict(loop.errors), "samples": samples,
                   "setup_times": result["setup_times"], **summary}, fh, indent=1)
    print(json.dumps(summary))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Stage-level query benchmark for conceptq.")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
