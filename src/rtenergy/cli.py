"""Command line: reachability/coverability/endless-run checks and JSON export.

Exit codes: 0 for a positive answer, 1 for a negative one, 2 for usage,
parse or validation errors.  All output is deterministic JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .algebra import Atom, Energy, Rtef, Time, normalize
from .matrix import buchi_behavior, finite_behavior, mat_star
from .model import RteaModel, parse_model, to_matrix_rep
from .regions import atoms_json, component_json, function_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtenergy",
        description="Decide energy-feasibility questions on real-time energy automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide reach, cover or buchi")
    check.add_argument("kind", choices=("reach", "cover", "buchi"))
    _query_flags(check)

    ev = sub.add_parser("eval", help="evaluate the finite behavior at a point")
    _query_flags(ev)
    ev.set_defaults(kind="eval")

    dump = sub.add_parser("dump", help="export behavior functions as JSON")
    dump.add_argument("--model", required=True)
    dump.add_argument("--what", choices=("behavior", "star"), default="behavior")
    dump.set_defaults(run=_run_dump)

    norm = sub.add_parser("normalize", help="normal form of a single-path model")
    norm.add_argument("--model", required=True)
    norm.set_defaults(run=_run_normalize)
    return parser


def _query_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True)
    p.add_argument("--x0", required=True, help="initial energy (decimal or p/q)")
    p.add_argument("--time", required=True, help="time budget (decimal, p/q, or inf)")
    p.add_argument("--target", help="coverability target energy")
    p.add_argument("--verify", action="store_true", help="cross-run the brute-force oracle")
    p.set_defaults(run=_run_check)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _load(path: str) -> RteaModel:
    return parse_model(Path(path).read_text(encoding="utf-8-sig"))


def _run_check(args) -> int:
    x0 = Energy.of(args.x0)
    horizon = Time.of(args.time)
    target = None if args.target is None else Energy.of(args.target)
    if args.kind == "cover" and target is None:
        raise ValueError("cover requires --target")
    model = _load(args.model)
    rep = to_matrix_rep(model)
    report: dict = {}
    if args.kind == "buchi":
        answer = buchi_behavior(rep).eval(x0, horizon)
        report["answer"] = answer
        if not horizon.is_infinite:
            report["note"] = "zeno: finite-horizon query asks for infinitely many jumps in bounded time"
    else:
        value = finite_behavior(rep).eval(x0, horizon)
        if args.kind == "cover":
            answer = value >= target
        else:
            answer = not value.is_bottom
        report["answer"] = answer
        report["value"] = value.text()
    if args.verify:
        report["oracle"] = _oracle_report(args.kind, model, x0.value, horizon)
    query = {"kind": args.kind, "model": args.model, "x0": x0.text(), "time": horizon.text()}
    if target is not None:
        query["target"] = target.text()
    report["query"] = query
    print(json.dumps(report))
    return 0 if report["answer"] else 1


def _oracle_report(kind: str, model: RteaModel, x0: Fraction, horizon: Time) -> dict:
    # imported here, so that starting the command line does not load it
    from .oracles import DpConfig, buchi_unroll, dp_lower_bound

    method = "buchi_unroll" if kind == "buchi" else "dp_lower_bound"
    if horizon.is_infinite:
        return {"method": method, "skipped": "unbounded horizon"}
    if kind == "buchi":
        return {
            "method": method,
            "repetitions": 32,
            "value": buchi_unroll(model, x0, horizon.value, 32),
        }
    cfg = DpConfig.over(horizon.value, 16)
    value = dp_lower_bound(model, x0, horizon.value, cfg)
    return {"method": method, "delta": str(cfg.delta), "value": value.text()}


def _run_dump(args) -> int:
    rep = to_matrix_rep(_load(args.model))
    if args.what == "behavior":
        print(json.dumps(function_json(finite_behavior(rep))))
        return 0
    star = mat_star(rep.matrix)
    out = {
        "states": list(rep.state_names),
        "entries": [[function_json(row.get(j, Rtef.bottom())) for j in range(star.n_cols)] for row in star.succ],
    }
    print(json.dumps(out))
    return 0


def _run_normalize(args) -> int:
    atoms = _chain_atoms(_load(args.model))
    out = {"input": {"atoms": atoms_json(atoms)}, "normalized": component_json(normalize(atoms))}
    print(json.dumps(out))
    return 0


def _chain_atoms(model: RteaModel):
    """Atoms along the unique path of a linear model, initial to accepting."""
    outgoing: dict[str, list] = {}
    for tr in model.transitions:
        outgoing.setdefault(tr.src, []).append(tr)
    rates = dict(model.states)
    path = []
    current = model.initial
    visited = {current}
    while current not in model.accepting:
        nexts = outgoing.get(current, [])
        if len(nexts) != 1:
            raise ValueError(f"model is not a single chain: state {current!r} has {len(nexts)} outgoing transitions")
        path.append(nexts[0])
        current = nexts[0].dst
        if current in visited:
            raise ValueError("model is not a single chain: cycle detected")
        visited.add(current)
    on_path = set(path)
    for tr in model.transitions:
        if tr not in on_path:
            raise ValueError(f"model is not a single chain: transition {tr.src!r} -> {tr.dst!r} is off the path")
    return tuple(Atom(rates[tr.src], tr.price, tr.bound) for tr in path)


if __name__ == "__main__":
    raise SystemExit(main())
