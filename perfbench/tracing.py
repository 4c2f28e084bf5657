"""Span recorder for the traced run, wrapped around rtenergy from outside.

``Recorder.install`` replaces each public entry point named in ``TARGETS``
with a wrapper that records one span per call: name, start, end, parent span
and query id.  Module globals are replaced in every ``rtenergy`` module that
holds them (``matrix`` imports ``omega_of``, ``algebra`` imports
``feasible_point``), so internal calls are caught too; ``Rtef`` methods are
replaced on the class.  Spans stay in memory until ``write``.

A span's self time is its duration minus the durations of its direct
children; spans of one query nest strictly, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from rtenergy import algebra, linear2d, matrix, model, omega, regions
from rtenergy.algebra import Rtef

# span name -> (owner, attribute); the owner is a module or the Rtef class
TARGETS = {
    "model.parse_model": (model, "parse_model"),
    "model.to_matrix_rep": (model, "to_matrix_rep"),
    "matrix.finite_behavior": (matrix, "finite_behavior"),
    "matrix.buchi_behavior": (matrix, "buchi_behavior"),
    "matrix.mat_star": (matrix, "mat_star"),
    "matrix.mat_mul": (matrix, "mat_mul"),
    "matrix.mat_omega_accepting": (matrix, "mat_omega_accepting"),
    "omega.omega_of": (omega, "omega_of"),
    "omega.act": (omega, "act"),
    "algebra.compose": (Rtef, "compose"),
    "algebra.sup": (Rtef, "sup"),
    "algebra.prune": (Rtef, "prune"),
    "algebra.star": (Rtef, "star"),
    "algebra.normalize": (algebra, "normalize"),
    "algebra.leq_linear": (algebra, "leq_linear"),
    "algebra.component_cells": (algebra, "component_cells"),
    "algebra.order_witness": (algebra, "order_witness"),
    "linear2d.feasible_point": (linear2d, "feasible_point"),
    "regions.function_json": (regions, "function_json"),
}

QUERY = "query"

# per-layer metric -> unit, in report order; BENCHMARK.json gives each one's better direction
PER_LAYER = {
    "model.parse_ms": "ms",
    "model.to_matrix_rep_ms": "ms",
    "matrix.mat_star_calls": "count",
    "matrix.mat_star_self_ms": "ms",
    "matrix.mat_mul_self_ms": "ms",
    "matrix.mat_omega_accepting_ms": "ms",
    "omega.omega_of_calls": "count",
    "omega.omega_of_self_ms": "ms",
    "omega.act_calls": "count",
    "omega.act_self_ms": "ms",
    "algebra.compose_calls": "count",
    "algebra.compose_self_ms": "ms",
    "algebra.sup_self_ms": "ms",
    "algebra.normalize_calls": "count",
    "algebra.prune_calls": "count",
    "algebra.prune_self_ms": "ms",
    "algebra.prune_in": "count",
    "algebra.prune_kept_ratio": "ratio",
    "algebra.leq_linear_calls": "count",
    "algebra.leq_linear_hit_ratio": "ratio",
    "algebra.leq_linear_cache_size": "count",
    "algebra.component_cells_hit_ratio": "ratio",
    "algebra.star_calls": "count",
    "algebra.star_self_ms": "ms",
    "algebra.star_max_in": "count",
    "algebra.order_witness_ms": "ms",
    "linear2d.feasible_point_calls": "count",
    "linear2d.feasible_point_self_ms": "ms",
    "linear2d.sat_ratio": "ratio",
    "regions.function_json_ms": "ms",
    "regions.pieces": "count",
    "trace.overhead_ratio": "ratio",
}

# the lru-cached functions themselves, taken before any wrapper replaces them
CACHED = {"leq_linear": algebra.leq_linear, "component_cells": algebra.component_cells}


def clear_caches() -> None:
    """Empty the library's lru caches and zero their counters, so every pass
    starts from the same state."""
    for fn in CACHED.values():
        fn.cache_clear()


def cache_counts() -> dict[str, tuple[int, int, int]]:
    """(hits, misses, current size) of each cache."""
    out = {}
    for name, fn in CACHED.items():
        info = fn.cache_info()
        out[name] = (info.hits, info.misses, info.currsize)
    return out


class Recorder:
    """Spans of one traced pass, kept in flat arrays."""

    def __init__(self):
        self.names = [QUERY, *TARGETS]
        self.name = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.qid = -1
        # boundary counts that spans alone do not carry
        self.prune_in = 0
        self.prune_out = 0
        self.star_max_in = 0
        self.fm_sat = 0
        self.pieces = 0
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.qid)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def run_query(self, qid: int, fn, payload):
        """Run one query under a root span."""
        self.qid = qid
        idx = self._open(0)
        try:
            return fn(payload)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = self.names.index(name)
        after = {
            "algebra.prune": self._after_prune,
            "algebra.star": self._star_input,
            "linear2d.feasible_point": self._after_feasible,
            "regions.function_json": self._after_export,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_prune(self, args, result) -> None:
        self.prune_in += len(args[0].components)
        self.prune_out += len(result.components)

    def _star_input(self, args, _result) -> None:
        loops = sum(1 for c in args[0].components if c.atoms)
        self.star_max_in = max(self.star_max_in, loops)

    def _after_feasible(self, _args, result) -> None:
        self.fm_sat += result is not None

    def _after_export(self, _args, result) -> None:
        self.pieces += sum(len(c["pieces"]) for c in result["components"])

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "rtenergy" or n.startswith("rtenergy.")]
        for name, (owner, attr) in TARGETS.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            holders = [owner] if owner is Rtef else [m for m in modules if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def aggregate(self):
        """Per (name, query): calls, inclusive seconds, self seconds."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            key = (self.names[self.name[i]], self.query[i])
            dur = self.end[i] - self.start[i]
            calls[key] += 1
            incl[key] += dur
            self_s[key] += dur - child[i]
        return calls, incl, self_s

    def write(self, path: Path) -> None:
        """All spans as gzip CSV: id, name, parent, query, start, end (s)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, newline="") as out:
            out.write("id,name,parent,query,start_s,end_s\n")
            for i in range(len(self.name)):
                out.write(
                    f"{i},{self.names[self.name[i]]},{self.parent[i]},{self.query[i]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, agg, caches, n_queries: int, overhead: float, scale) -> dict[str, float]:
    """Per-layer metrics from ``rec.aggregate()`` and ``cache_counts()``
    taken after a pass that started with ``clear_caches()``, which also
    zeroes the counters.  Counts and milliseconds are means per query, ratios
    are taken over the whole pass.  Times are multiplied by ``scale[query id]``,
    the host-speed factor of that query's run."""
    calls, incl, self_s = agg
    tot_calls = defaultdict(int)
    tot_incl = defaultdict(float)
    tot_self = defaultdict(float)
    for (name, _q), v in calls.items():
        tot_calls[name] += v
    for (name, q), v in incl.items():
        tot_incl[name] += v * scale.get(q, 1.0)
    for (name, q), v in self_s.items():
        tot_self[name] += v * scale.get(q, 1.0)

    def per_q(x):
        return x / n_queries

    def ms(x):
        return 1e3 * x / n_queries

    leq_hits, leq_misses, leq_size = caches["leq_linear"]
    cells_hits, cells_misses, _ = caches["component_cells"]
    fm_calls = tot_calls["linear2d.feasible_point"]
    out = {
        "model.parse_ms": ms(tot_incl["model.parse_model"]),
        "model.to_matrix_rep_ms": ms(tot_incl["model.to_matrix_rep"]),
        "matrix.mat_star_calls": per_q(tot_calls["matrix.mat_star"]),
        "matrix.mat_star_self_ms": ms(tot_self["matrix.mat_star"]),
        "matrix.mat_mul_self_ms": ms(tot_self["matrix.mat_mul"]),
        "matrix.mat_omega_accepting_ms": ms(tot_incl["matrix.mat_omega_accepting"]),
        "omega.omega_of_calls": per_q(tot_calls["omega.omega_of"]),
        "omega.omega_of_self_ms": ms(tot_self["omega.omega_of"]),
        "omega.act_calls": per_q(tot_calls["omega.act"]),
        "omega.act_self_ms": ms(tot_self["omega.act"]),
        "algebra.compose_calls": per_q(tot_calls["algebra.compose"]),
        "algebra.compose_self_ms": ms(tot_self["algebra.compose"]),
        "algebra.sup_self_ms": ms(tot_self["algebra.sup"]),
        "algebra.normalize_calls": per_q(tot_calls["algebra.normalize"]),
        "algebra.prune_calls": per_q(tot_calls["algebra.prune"]),
        "algebra.prune_self_ms": ms(tot_self["algebra.prune"]),
        "algebra.prune_in": per_q(rec.prune_in),
        "algebra.prune_kept_ratio": _ratio(rec.prune_out, rec.prune_in),
        "algebra.leq_linear_calls": per_q(tot_calls["algebra.leq_linear"]),
        "algebra.leq_linear_hit_ratio": _ratio(leq_hits, leq_hits + leq_misses),
        "algebra.leq_linear_cache_size": leq_size,
        "algebra.component_cells_hit_ratio": _ratio(cells_hits, cells_hits + cells_misses),
        "algebra.star_calls": per_q(tot_calls["algebra.star"]),
        "algebra.star_self_ms": ms(tot_self["algebra.star"]),
        "algebra.star_max_in": rec.star_max_in,
        "algebra.order_witness_ms": ms(tot_incl["algebra.order_witness"]),
        "linear2d.feasible_point_calls": per_q(fm_calls),
        "linear2d.feasible_point_self_ms": ms(tot_self["linear2d.feasible_point"]),
        "linear2d.sat_ratio": _ratio(rec.fm_sat, fm_calls),
        "regions.function_json_ms": ms(tot_incl["regions.function_json"]),
        "regions.pieces": per_q(rec.pieces),
        "trace.overhead_ratio": overhead,
    }
    assert list(out) == list(PER_LAYER)
    return out


def per_size_calls(agg, sizes_by_qid: dict[int, int], names) -> dict[int, dict[str, float]]:
    """Mean calls per query of each size, for the named spans."""
    calls = agg[0]
    count = defaultdict(int)
    for size in sizes_by_qid.values():
        count[size] += 1
    out: dict[int, dict[str, float]] = {s: {n: 0.0 for n in names} for s in sorted(count)}
    for (name, qid), v in calls.items():
        if name in names and qid >= 0:
            size = sizes_by_qid[qid]
            out[size][name] += v / count[size]
    return out
