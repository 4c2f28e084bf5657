"""Seeded query benchmark for rtenergy.

Run from the repository root:

    python3 perfbench/run.py --workload reach_random --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload reach_random --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

One client in one process runs a closed loop of queries, each from its raw
input to verdicts.  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped; ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics.  Every answer is checked, untimed, against an
independent reference.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--smoke`` runs every workload at its smallest size in a few
seconds and exits 1 if any answer is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPANS_DIR = Path(__file__).resolve().parent / "out"
QUERY_LIMIT_S = 20  # a query running longer is stopped and counted as failed
SETUP_RUNS = 11
TAIL_BEYOND = 10  # query_tail_ms is the highest percentile with this many samples beyond it
PER_SIZE_SPANS = ("matrix.mat_star", "omega.omega_of", "algebra.star", "algebra.leq_linear", "linear2d.feasible_point")

# Host speed.  On a shared host the speed this process gets drifts by up to 2x
# within minutes, and query times drift with it.  A fixed pure-Python loop is
# timed before and after every query.  Each query time is scaled by REF_S over
# the median of the loop's timings around it and REF_WINDOW queries either
# side, which gives the time the query would take on a host where the loop
# takes REF_S.  The loop is benchmark code, so no change to rtenergy can alter
# it.
REF_S = 1.0e-3  # the loop's time on an idle 2-vCPU x86-64 sandbox, Python 3.11
REF_WINDOW = 3


def reference_loop() -> float:
    """Seconds taken by a fixed piece of exact-fraction and dict work, with
    the garbage collector paused so the program's heap cannot slow it."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        seen = {}
        for i in range(1, 400):
            acc += Fraction(i, i + 3)
            seen[(i, acc.numerator % 97)] = acc
        return perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()


class QueryTimeout(Exception):
    pass


def _alarm(_signum, _frame):
    raise QueryTimeout


def setup_seconds() -> float:
    """Median scaled wall time of a fresh interpreter importing
    ``rtenergy.cli``, which every ``rtenergy`` command pays before any work."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    cmd = [sys.executable, "-c", "import rtenergy.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):  # the first import may write bytecode caches
        refs = [reference_loop() for _ in range(3)]
        t0 = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        spawn = perf_counter() - t0
        refs += [reference_loop() for _ in range(3)]
        if i:
            times.append(spawn * REF_S / statistics.median(refs))
    return statistics.median(times)


class Pass:
    """Outcome of running queries: answers by query id, the successful runs
    as (query id, seconds, reference loop seconds just before and just
    after), and failures."""

    def __init__(self, n: int):
        self.answers: list = [None] * n
        self.runs: list[tuple[int, float, float, float]] = []
        self.ok_runs = [0] * n
        self.errors: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.first_pass_rss_kb = 0

    def scaled(self) -> list[tuple[int, float]]:
        """(query id, seconds scaled to the reference host) of each successful run."""
        refs = [r for run in self.runs for r in run[2:]]
        return [
            (qid, dt * REF_S / statistics.median(refs[2 * max(0, i - REF_WINDOW) : 2 * (i + REF_WINDOW + 1)]))
            for i, (qid, dt, _, _) in enumerate(self.runs)
        ]

    def per_query(self) -> dict[int, float]:
        """Median scaled seconds of each query that ran."""
        samples: dict[int, list[float]] = {}
        for qid, dt in self.scaled():
            samples.setdefault(qid, []).append(dt)
        return {qid: statistics.median(v) for qid, v in samples.items()}


def run_passes(corpus, runner, seconds: float) -> Pass:
    """Closed loop over the corpus with the caches emptied before each pass.
    Passes repeat until ``seconds`` of wall time have gone by; the first one
    always completes.  An answer that differs from an earlier pass is a
    failure."""
    import tracing

    out = Pass(len(corpus))
    start = perf_counter()
    first = True
    while first or perf_counter() - start < seconds:
        tracing.clear_caches()
        for q in corpus:
            if not first and perf_counter() - start >= seconds:
                break
            out.attempted += 1
            ref = reference_loop()
            signal.setitimer(signal.ITIMER_REAL, QUERY_LIMIT_S)
            try:
                t0 = perf_counter()
                answer = runner(q)
                dt = perf_counter() - t0
            except QueryTimeout:
                out.failed += 1
                out.errors[q.qid] = f"exceeded {QUERY_LIMIT_S} s"
                continue
            except Exception as exc:  # a query that raises is failed; the run goes on
                out.failed += 1
                out.errors[q.qid] = f"raised {exc!r}"
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if out.ok_runs[q.qid] and answer != out.answers[q.qid]:
                out.failed += 1
                out.errors[q.qid] = "answer changed between passes"
                continue
            out.answers[q.qid] = answer
            out.ok_runs[q.qid] += 1
            out.runs.append((q.qid, dt, ref, reference_loop()))
        if first:
            # later passes refill emptied caches into a fragmented heap, and
            # how many of them fit in a run depends on the host's speed
            out.first_pass_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        first = False
    return out


def check_answers(w, corpus, done: Pass) -> set[int]:
    """Untimed reference checks; every run of a query whose answer fails one
    counts as failed.  Returns the ids of those queries."""
    bad = set()
    for q in corpus:
        if not done.ok_runs[q.qid]:
            continue
        problems = w.check(q.payload, done.answers[q.qid])
        if problems:
            bad.add(q.qid)
            done.failed += done.ok_runs[q.qid]
            done.errors[q.qid] = "; ".join(problems)
    return bad


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _header(w, seed, corpus, done: Pass, digest: str) -> list[str]:
    sizes = ",".join(str(s) for s in sorted({q.size for q in corpus}))
    raw = sum(run[1] for run in done.runs)
    scaled = sum(dt for _, dt in done.scaled())
    ref_ms = 1e3 * statistics.median(r for run in done.runs for r in run[2:]) if done.runs else float("nan")
    lines = [
        f"workload {w.name}  seed {seed}  sizes {sizes}  queries {len(corpus)}"
        f"  runs {done.attempted} ({done.attempted / len(corpus):.2f} passes)",
        f"query time {raw:.2f} s, scaled {scaled:.2f} s; reference loop median {ref_ms:.3f} ms",
        f"answers digest {digest}  failed {done.failed}/{done.attempted}"
        f"  failed_frac {done.failed / max(1, done.attempted):.4f}",
    ]
    for qid, msg in sorted(done.errors.items())[:5]:
        lines.append(f"  query {qid}: {msg}")
    return lines


def measure(w, seed: int, corpus, seconds: float):
    """End-to-end metrics, nothing wrapped."""
    import workloads

    setup_s = setup_seconds()
    signal.signal(signal.SIGALRM, _alarm)
    done = run_passes(corpus, lambda q: w.run(q.payload), seconds)
    peak_rss_mb = done.first_pass_rss_kb / 1024
    check_answers(w, corpus, done)
    lines = _header(w, seed, corpus, done, workloads.digest(done.answers))
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    per_query_ms = [1e3 * v for v in done.per_query().values()]
    if per_query_ms:
        tail, pct = _tail(per_query_ms)
        lines.append(f"query_tail_ms is p{pct:.2f} of {len(per_query_ms)} per-query medians")
        metrics.update(
            query_p50_ms=(statistics.median(per_query_ms), "ms"),
            query_tail_ms=(tail, "ms"),
            queries_per_s=(1e3 * len(per_query_ms) / sum(per_query_ms), "1/s"),
        )
    return _result(done.attempted, done.failed, metrics, END_TO_END), lines


def trace(w, seed: int, corpus, spans_path: Path | None):
    """One untraced and one traced pass; per-layer metrics from the spans."""
    import tracing
    import workloads

    signal.signal(signal.SIGALRM, _alarm)
    plain = run_passes(corpus, lambda q: w.run(q.payload), 0)
    rec = tracing.Recorder()
    rec.install()
    try:
        traced = run_passes(corpus, lambda q: rec.run_query(q.qid, w.run, q.payload), 0)
    finally:
        rec.uninstall()
    caches = tracing.cache_counts()
    for qid, answer in enumerate(traced.answers):
        if plain.ok_runs[qid] and traced.ok_runs[qid] and answer != plain.answers[qid]:
            traced.failed += 1
            traced.errors[qid] = "traced answer differs from the untraced one"
    for qid in check_answers(w, corpus, plain):
        traced.failed += traced.ok_runs[qid]
    plain_s = sum(dt for _, dt in plain.scaled())
    traced_s = sum(dt for _, dt in traced.scaled())
    overhead = traced_s / plain_s - 1 if plain_s else 0.0
    scale = {run[0]: scaled / run[1] for run, (_, scaled) in zip(traced.runs, traced.scaled())}
    agg = rec.aggregate()
    values = tracing.layer_metrics(rec, agg, caches, len(corpus), overhead, scale)
    metrics = {name: (values[name], tracing.PER_LAYER[name]) for name in values}
    lines = _header(w, seed, corpus, plain, workloads.digest(plain.answers))
    lines.append(
        f"traced pass: failed {traced.failed}/{traced.attempted}, scaled {traced_s:.2f} s against {plain_s:.2f} s"
        f" untraced, overhead {overhead:.1%}, {len(rec.name)} spans"
    )
    for qid, msg in sorted(traced.errors.items())[:5]:
        lines.append(f"  query {qid}: {msg}")
    per_size = tracing.per_size_calls(agg, {q.qid: q.size for q in corpus}, PER_SIZE_SPANS)
    lines.append("calls per query by size: size " + " ".join(PER_SIZE_SPANS))
    for size, calls in per_size.items():
        lines.append(f"  {size:>4} " + " ".join(f"{calls[n]:.1f}" for n in PER_SIZE_SPANS))
    if spans_path is not None:
        rec.write(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    attempted = plain.attempted + traced.attempted
    return _result(attempted, plain.failed + traced.failed, metrics, list(tracing.PER_LAYER)), lines


END_TO_END = ["query_p50_ms", "query_tail_ms", "queries_per_s", "setup_s", "peak_rss_mb"]


def _result(attempted: int, failed: int, metrics: dict, names: list[str]) -> dict:
    return {
        "correct": failed == 0 and all(n in metrics for n in names),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names if n in metrics},
    }


def smoke() -> int:
    """Every workload at its smallest size, measured and traced."""
    import workloads

    ok = True
    for w in workloads.WORKLOADS.values():
        corpus = w.corpus(1, sizes=(min(w.sizes),), rounds=2)
        t0 = perf_counter()
        for result, lines in (measure(w, 1, corpus, 0), trace(w, 1, corpus, None)):
            ok = ok and result["correct"]
            print("\n".join(lines))
        print(f"smoke {w.name}: {perf_counter() - t0:.1f} s")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at its smallest size, a few seconds")
    args = parser.parse_args(argv)
    if not (SRC / "rtenergy" / "__init__.py").is_file():
        print(f"error: no rtenergy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # imports rtenergy, so only after SRC is on the path

    if args.smoke:
        return smoke()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    corpus = w.corpus(args.seed)
    if args.trace:
        result, lines = trace(w, args.seed, corpus, SPANS_DIR / f"spans-{w.name}-{args.seed}.csv.gz")
    else:
        result, lines = measure(w, args.seed, corpus, args.seconds)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
