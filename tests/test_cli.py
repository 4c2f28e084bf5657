"""Command-line surface: answers, exit codes, JSON determinism, exports."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import pytest

from rtenergy import Rtef, finite_behavior, parse_model, to_matrix_rep
from rtenergy.cli import main
from rtenergy.regions import function_json

from helpers import MODELS, lin
from references import dense, mat_star_blocks

SAT = str(MODELS / "satellite.rtea")
PUMP = str(MODELS / "pump.rtea")
LOOPS = str(MODELS / "two_loops.rtea")
CHAIN = str(MODELS / "satellite_top_path.rtea")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python(*argv):
    """A fresh interpreter that imports this checkout's ``src``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)


class TestCheck:
    def test_reach_yes(self, capsys):
        code, out, _ = run(capsys, "check", "reach", "--model", SAT, "--x0", "50", "--time", "0")
        report = json.loads(out)
        assert code == 0
        assert report["answer"] is True
        assert report["value"] == "0"
        assert report["query"] == {"kind": "reach", "model": SAT, "x0": "50", "time": "0"}

    def test_reach_no(self, capsys):
        code, out, _ = run(capsys, "check", "reach", "--model", SAT, "--x0", "19", "--time", "1000000")
        report = json.loads(out)
        assert code == 1
        assert report["answer"] is False
        assert report["value"] == "bot"

    def test_cover(self, capsys):
        code, out, _ = run(
            capsys, "check", "cover", "--model", SAT, "--x0", "50", "--time", "2", "--target", "10"
        )
        report = json.loads(out)
        assert code == 0
        assert report["answer"] is True
        assert report["value"] == "10"
        code, out, _ = run(
            capsys, "check", "cover", "--model", SAT, "--x0", "50", "--time", "2", "--target", "21/2"
        )
        assert code == 1

    def test_cover_requires_target(self, capsys):
        code, _, err = run(capsys, "check", "cover", "--model", SAT, "--x0", "50", "--time", "2")
        assert code == 2
        assert "target" in err

    def test_buchi_infinite(self, capsys):
        code, out, _ = run(capsys, "check", "buchi", "--model", PUMP, "--x0", "3", "--time", "inf")
        report = json.loads(out)
        assert code == 0
        assert report["answer"] is True
        assert "note" not in report

    def test_buchi_finite_marks_zeno(self, capsys):
        code, out, _ = run(capsys, "check", "buchi", "--model", PUMP, "--x0", "3", "--time", "1")
        report = json.loads(out)
        assert code == 1
        assert "zeno" in report["note"]

    def test_fractional_inputs(self, capsys):
        code, out, _ = run(capsys, "check", "reach", "--model", SAT, "--x0", "20", "--time", "39/4")
        assert code == 1
        code, out, _ = run(capsys, "check", "reach", "--model", SAT, "--x0", "20.0", "--time", "10")
        assert code == 0

    def test_verify_oracle_agrees(self, capsys):
        code, out, _ = run(
            capsys, "check", "reach", "--model", SAT, "--x0", "40", "--time", "2", "--verify"
        )
        report = json.loads(out)
        assert report["oracle"]["method"] == "dp_lower_bound"
        assert report["oracle"]["value"] == report["value"] == "0"
        code, out, _ = run(
            capsys, "check", "buchi", "--model", PUMP, "--x0", "3", "--time", "2", "--verify"
        )
        report = json.loads(out)
        assert report["oracle"] == {"method": "buchi_unroll", "repetitions": 32, "value": True}
        code, out, _ = run(
            capsys, "check", "buchi", "--model", PUMP, "--x0", "3", "--time", "inf", "--verify"
        )
        report = json.loads(out)
        assert report["oracle"] == {"method": "buchi_unroll", "skipped": "unbounded horizon"}


def write_chain(tmp_path, *extra: str, n: int = 1200) -> str:
    """An ``n``-state chain, one state per step; at the default 1,200 states
    a solver recursing once per state would exceed Python's default
    recursion limit."""
    lines = ["rtea {"]
    for i in range(n):
        flags = " initial" if i == 0 else " accepting" if i == n - 1 else ""
        lines.append(f"  state s{i} rate 1{flags};")
    lines += [f"  trans s{i} -> s{i + 1} price -1 bound 1;" for i in range(n - 1)]
    path = tmp_path / "chain.rtea"
    path.write_text("\n".join([*lines, *extra, "}"]))
    return str(path)


def check_chain_reach(tmp_path, capsys, n: int):
    path = write_chain(tmp_path, n=n)
    t0 = perf_counter()
    code, out, _ = run(capsys, "check", "reach", "--model", path, "--x0", str(n - 1), "--time", "0")
    assert perf_counter() - t0 < 30
    assert code == 0
    assert json.loads(out)["value"] == "0"
    code, _, _ = run(capsys, "check", "reach", "--model", path, "--x0", str(n - 2), "--time", "0")
    assert code == 1


def check_chain_buchi(tmp_path, capsys, n: int):
    # a free self-loop on the last state: an endless run needs exactly
    # the n - 1 units the chain consumes at time 0
    path = write_chain(tmp_path, f"  trans s{n - 1} -> s{n - 1} price 0 bound 0;", n=n)
    t0 = perf_counter()
    code, out, _ = run(capsys, "check", "buchi", "--model", path, "--x0", str(n - 1), "--time", "0")
    assert code == 0
    assert json.loads(out)["answer"] is True
    code, _, _ = run(capsys, "check", "buchi", "--model", path, "--x0", str(n - 2), "--time", "0")
    assert code == 1
    assert perf_counter() - t0 < 30


class TestDeepModel:
    def test_long_chain_reach(self, tmp_path, capsys):
        check_chain_reach(tmp_path, capsys, 1200)

    def test_long_chain_buchi(self, tmp_path, capsys):
        check_chain_buchi(tmp_path, capsys, 1200)

    # the transitions are stored as successor maps: an n x n grid would
    # hold 10^8 entries here
    def test_huge_chain_reach(self, tmp_path, capsys):
        check_chain_reach(tmp_path, capsys, 10_000)

    def test_huge_chain_buchi(self, tmp_path, capsys):
        check_chain_buchi(tmp_path, capsys, 10_000)

    def test_chain_memory_linear(self, tmp_path):
        # a dense 2,400 x 2,400 grid of entries alone would take ~46 MB
        model = parse_model(Path(write_chain(tmp_path, n=2400)).read_text())
        tracemalloc.start()
        try:
            assert finite_behavior(to_matrix_rep(model)) == Rtef.of([lin((1, -2399, 2399))])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_long_chain_normalize(self, tmp_path, capsys):
        # equal rates merge into one step paying the whole chain
        code, out, _ = run(capsys, "normalize", "--model", write_chain(tmp_path))
        assert code == 0
        assert json.loads(out)["normalized"]["atoms"] == [["1", "-1199", "1199"]]


class TestEval:
    def test_eval_reports_value(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", SAT, "--x0", "60", "--time", "0")
        report = json.loads(out)
        assert code == 0
        assert report["value"] == "10"
        assert report["query"]["kind"] == "eval"

    def test_eval_infinite_time(self, capsys):
        code, out, _ = run(capsys, "eval", "--model", SAT, "--x0", "20", "--time", "inf")
        assert json.loads(out)["value"] == "inf"
        code, out, _ = run(capsys, "eval", "--model", SAT, "--x0", "19", "--time", "inf")
        assert json.loads(out)["value"] == "bot"
        assert code == 1


class TestDump:
    def test_mixed_literal_behavior_golden(self, capsys):
        # pump_ratio's bytes were written when every value was a Fraction:
        # storing integral values as ints must not change them; flower's
        # before the dominance scan ran in tail order; the other models'
        # bytes were written before the late rule became part of the
        # elimination order's heap key
        for path in sorted(MODELS.glob("*.rtea")):
            golden = Path(__file__).resolve().parent / "golden" / f"{path.stem}_behavior.json"
            code, out, _ = run(capsys, "dump", "--model", str(path), "--what", "behavior")
            assert code == 0
            assert out == golden.read_text(encoding="utf-8"), path.name

    def test_closure_golden(self, capsys):
        # two_loops' and satellite's bytes were written when the closure ran
        # one elimination per column: one factorization for all columns must
        # not change them; flower's before the dominance scan ran in tail
        # order; the other models' bytes were written before the late rule
        # became part of the elimination order's heap key
        for path in sorted(MODELS.glob("*.rtea")):
            golden = Path(__file__).resolve().parent / "golden" / f"{path.stem}_star.json"
            code, out, _ = run(capsys, "dump", "--model", str(path), "--what", "star")
            assert code == 0
            assert out == golden.read_text(encoding="utf-8"), path.name

    def test_behavior_contains_golden_piece(self, capsys):
        _, out, _ = run(capsys, "dump", "--model", SAT)
        report = json.loads(out)
        pieces = [p for comp in report["components"] for p in comp["pieces"]]
        assert {"t": "5", "x": "5/2", "c": "-110"} in [p.get("value") for p in pieces]

    def test_star_dump_diagonal_has_identity(self, capsys):
        _, out, _ = run(capsys, "dump", "--model", PUMP, "--what", "star")
        report = json.loads(out)
        diag = report["entries"][0][0]
        assert {"atoms": [], "pieces": diag["components"][0]["pieces"]} == diag["components"][0]

    def test_star_dump_two_loops_has_four_components(self, capsys):
        _, out, _ = run(capsys, "dump", "--model", LOOPS, "--what", "star")
        report = json.loads(out)
        hub = report["states"].index("hub")
        assert len(report["entries"][hub][hub]["components"]) == 4

    def test_bytes_match_block_closure(self, capsys):
        # the closure and the closure-row reading of behavior, both from the
        # block recursion, give the exact bytes of both exports
        for path in sorted(MODELS.glob("*.rtea")):
            rep = to_matrix_rep(parse_model(path.read_text(encoding="utf-8")))
            star = dense(mat_star_blocks(rep.matrix))
            entries = [[function_json(f) for f in row] for row in star]
            want_star = json.dumps({"states": list(rep.state_names), "entries": entries})
            behavior = Rtef.bottom()
            for i, init in enumerate(rep.alpha):
                for j in range(rep.accepting_count if init else 0):
                    behavior = behavior.sup(star[i][j])
            want_behavior = json.dumps(function_json(behavior))
            _, out, _ = run(capsys, "dump", "--model", str(path), "--what", "star")
            assert out == want_star + "\n", path.name
            _, out, _ = run(capsys, "dump", "--model", str(path), "--what", "behavior")
            assert out == want_behavior + "\n", path.name


class TestNormalize:
    def test_chain_normal_form(self, capsys):
        code, out, _ = run(capsys, "normalize", "--model", CHAIN)
        report = json.loads(out)
        assert code == 0
        assert report["input"]["atoms"] == [["0", "-20", "20"], ["2", "-20", "20"], ["5", "-10", "10"]]
        assert report["normalized"]["atoms"] == [["0", "0", "20"], ["2", "0", "40"], ["5", "-50", "50"]]
        slopes = [p["boundary"]["slope"] for p in report["normalized"]["pieces"] if "boundary" in p]
        assert slopes == ["-1/2", "-1/5"]

    def test_chain_golden(self, capsys):
        # the bytes were written while normalize still ran two passes over
        # the raw steps: splicing one step at a time must not change them
        golden = Path(__file__).resolve().parent / "golden" / "satellite_top_path_normalize.json"
        code, out, _ = run(capsys, "normalize", "--model", CHAIN)
        assert code == 0
        assert out == golden.read_text(encoding="utf-8")

    def test_branching_model_rejected(self, capsys):
        code, _, err = run(capsys, "normalize", "--model", SAT)
        assert code == 2
        assert "chain" in err

    def test_cycle_rejected(self, capsys, tmp_path):
        # a -> b -> a comes back to a before it meets the accepting c
        model = tmp_path / "cycle.rtea"
        model.write_text(
            "rtea {\n  state a rate 0 initial;\n  state b rate 0;\n  state c rate 0 accepting;\n"
            "  trans a -> b price 0 bound 0;\n  trans b -> a price 0 bound 0;\n}\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "normalize", "--model", str(model))
        assert code == 2 and out == ""
        assert err == "error: model is not a single chain: cycle detected\n"


class TestContract:
    def test_deterministic_output(self, capsys):
        args = ("dump", "--model", SAT)
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        args = ("check", "cover", "--model", SAT, "--x0", "50", "--time", "2", "--target", "10", "--verify")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_start_does_not_load_the_oracles(self):
        # only --verify uses them; a fresh interpreter, so no other test has
        # imported them already
        code = "import sys, rtenergy.cli; print('rtenergy.oracles' in sys.modules)"
        proc = python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_module_cli_runs_its_command(self):
        # `python -m rtenergy.cli` runs main through the module's own guard:
        # without it the command would exit 0 having printed nothing
        proc = python("-m", "rtenergy.cli", "check", "reach", "--model", SAT, "--x0", "0", "--time", "inf")
        assert proc.returncode == 1, proc.stderr
        assert json.loads(proc.stdout)["answer"] is False

    @pytest.mark.parametrize("module", ["rtenergy.cli", "rtenergy.oracles"])
    def test_import_generates_no_code(self, module):
        # no dataclasses (nor the inspect it loads) at start-up; against a
        # bare interpreter, as a site hook may load either one itself
        def loaded(code: str) -> set[str]:
            code += "; import sys; print(' '.join(sys.modules))"
            proc = python("-c", code)
            assert proc.returncode == 0, proc.stderr
            return set(proc.stdout.split())

        new = loaded(f"import {module}") - loaded("pass")
        assert module in new
        assert not new & {"dataclasses", "inspect"}

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.rtea"
        bad.write_text("rtea { state a rate -3 initial; }")
        code, out, err = run(capsys, "check", "reach", "--model", str(bad), "--x0", "1", "--time", "1")
        assert code == 2
        assert out == ""
        assert "negative-rate" in err

    def test_byte_order_mark_is_skipped(self, capsys, monkeypatch, tmp_path):
        (tmp_path / "satellite.rtea").write_bytes(b"\xef\xbb\xbf" + (MODELS / "satellite.rtea").read_bytes())
        for argv in (
            ("check", "reach", "--model", "satellite.rtea", "--x0", "50", "--time", "0"),
            ("check", "reach", "--model", "satellite.rtea", "--x0", "0", "--time", "inf"),
            ("dump", "--model", "satellite.rtea", "--what", "behavior"),
        ):
            monkeypatch.chdir(MODELS)
            want = run(capsys, *argv)
            monkeypatch.chdir(tmp_path)
            assert run(capsys, *argv) == want, argv
            assert want[0] in (0, 1), argv

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "reach", "--model", "nope.rtea", "--x0", "1", "--time", "1")
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        assert main(["check", "reach", "--model", SAT]) == 2
        assert main(["frobnicate"]) == 2

    def test_bad_number_exit_2(self, capsys):
        code, _, err = run(capsys, "check", "reach", "--model", SAT, "--x0", "wat", "--time", "1")
        assert code == 2
        code, _, err = run(capsys, "check", "reach", "--model", SAT, "--x0", "-5", "--time", "1")
        assert code == 2

    def test_negative_target_exit_2(self, capsys):
        # a target is an energy, read as --x0 is
        for kind in (("check", "cover"), ("eval",)):
            code, out, err = run(capsys, *kind, "--model", SAT, "--x0", "50", "--time", "2", "--target", "-1")
            assert (code, out, err) == (2, "", "error: energy must be non-negative: -1\n"), kind

    def test_exponent_and_separator_literals_exit_2(self, capsys):
        # Fraction would accept these; the first would build a billion-digit integer
        for numbers in (
            ("--x0", "5", "--time", "1e999999999"),
            ("--x0", "1_000", "--time", "1"),
            ("--x0", "5e0", "--time", "1"),
        ):
            code, out, err = run(capsys, "check", "reach", "--model", SAT, *numbers)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")

    def test_non_ascii_digits_exit_2(self, capsys):
        for numbers in (
            ("--x0", "\u0665\u0660", "--time", "0"),  # Arabic-Indic 50
            ("--x0", "50", "--time", "\uff11"),  # fullwidth 1
        ):
            code, out, err = run(capsys, "check", "reach", "--model", SAT, *numbers)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")

    def test_exit_codes_over_corpus(self, capsys, tmp_path):
        broken = tmp_path / "broken.rtea"
        broken.write_text("rtea { state a rate 0; }")  # missing initial
        yes = [
            ("check", "reach", "--model", SAT, "--x0", "50", "--time", "0"),
            ("check", "cover", "--model", SAT, "--x0", "40", "--time", "2", "--target", "0"),
            ("check", "buchi", "--model", PUMP, "--x0", "5", "--time", "inf"),
            ("eval", "--model", SAT, "--x0", "50", "--time", "0"),
            ("dump", "--model", SAT),
            ("normalize", "--model", CHAIN),
        ]
        no = [
            ("check", "reach", "--model", SAT, "--x0", "0", "--time", "inf"),
            ("check", "cover", "--model", SAT, "--x0", "50", "--time", "0", "--target", "1/2"),
            ("check", "buchi", "--model", SAT, "--x0", "100", "--time", "inf"),
            ("eval", "--model", SAT, "--x0", "19", "--time", "5"),
        ]
        error = [
            ("check", "reach", "--model", str(broken), "--x0", "1", "--time", "1"),
            ("check", "reach", "--model", SAT, "--x0", "1"),
            ("check", "cover", "--model", SAT, "--x0", "1", "--time", "1"),
            ("check", "reach", "--model", SAT, "--x0", "1", "--time", "-3"),
            ("dump", "--model", SAT, "--what", "everything"),
        ]
        for args in yes:
            assert run(capsys, *args)[0] == 0, args
        for args in no:
            assert run(capsys, *args)[0] == 1, args
        for args in error:
            assert run(capsys, *args)[0] == 2, args


# Exact stdout bytes and exit codes; model paths are relative to models/ so
# the `query` echo does not depend on where the repository lives.
GOLDEN = [
    (
        ("check", "reach", "--model", "satellite.rtea", "--x0", "50", "--time", "0"),
        0,
        '{"answer": true, "value": "0", "query": {"kind": "reach", "model": "satellite.rtea", "x0": "50", "time": "0"}}\n',
    ),
    (
        ("check", "reach", "--model", "satellite.rtea", "--x0", "81/2", "--time", "1.5"),
        1,
        '{"answer": false, "value": "bot", "query": {"kind": "reach", "model": "satellite.rtea", "x0": "81/2", "time": "3/2"}}\n',
    ),
    (
        ("check", "cover", "--model", "satellite.rtea", "--x0", "50", "--time", "2", "--target", "10"),
        0,
        '{"answer": true, "value": "10", "query": {"kind": "cover", "model": "satellite.rtea", "x0": "50", "time": "2", "target": "10"}}\n',
    ),
    (
        ("check", "cover", "--model", "satellite.rtea", "--x0", "50", "--time", "2", "--target", "21/2"),
        1,
        '{"answer": false, "value": "10", "query": {"kind": "cover", "model": "satellite.rtea", "x0": "50", "time": "2", "target": "21/2"}}\n',
    ),
    (
        ("check", "cover", "--model", "satellite.rtea", "--x0", "50", "--time", "2"),
        2,
        "",
    ),
    (
        ("check", "buchi", "--model", "pump.rtea", "--x0", "3", "--time", "inf"),
        0,
        '{"answer": true, "query": {"kind": "buchi", "model": "pump.rtea", "x0": "3", "time": "inf"}}\n',
    ),
    (
        ("check", "buchi", "--model", "pump.rtea", "--x0", "3", "--time", "5", "--verify"),
        0,
        '{"answer": true, "note": "zeno: finite-horizon query asks for infinitely many jumps in bounded time", '
        '"oracle": {"method": "buchi_unroll", "repetitions": 32, "value": true}, '
        '"query": {"kind": "buchi", "model": "pump.rtea", "x0": "3", "time": "5"}}\n',
    ),
    (
        ("check", "buchi", "--model", "keeper.rtea", "--x0", "4", "--time", "0"),
        1,
        '{"answer": false, "note": "zeno: finite-horizon query asks for infinitely many jumps in bounded time", '
        '"query": {"kind": "buchi", "model": "keeper.rtea", "x0": "4", "time": "0"}}\n',
    ),
    (
        ("check", "buchi", "--model", "keeper.rtea", "--x0", "4", "--time", "inf"),
        1,
        '{"answer": false, "query": {"kind": "buchi", "model": "keeper.rtea", "x0": "4", "time": "inf"}}\n',
    ),
    (
        ("check", "buchi", "--model", "keeper.rtea", "--x0", "5", "--time", "0"),
        0,
        '{"answer": true, "note": "zeno: finite-horizon query asks for infinitely many jumps in bounded time", '
        '"query": {"kind": "buchi", "model": "keeper.rtea", "x0": "5", "time": "0"}}\n',
    ),
    (
        ("check", "buchi", "--model", "keeper.rtea", "--x0", "5", "--time", "inf"),
        0,
        '{"answer": true, "query": {"kind": "buchi", "model": "keeper.rtea", "x0": "5", "time": "inf"}}\n',
    ),
    (
        ("check", "reach", "--model", "satellite.rtea", "--x0", "40", "--time", "2", "--verify"),
        0,
        '{"answer": true, "value": "0", "oracle": {"method": "dp_lower_bound", "delta": "1/8", "value": "0"}, '
        '"query": {"kind": "reach", "model": "satellite.rtea", "x0": "40", "time": "2"}}\n',
    ),
    (
        ("eval", "--model", "satellite.rtea", "--x0", "20", "--time", "39/4"),
        1,
        '{"answer": false, "value": "bot", "query": {"kind": "eval", "model": "satellite.rtea", "x0": "20", "time": "39/4"}}\n',
    ),
    (
        ("eval", "--model", "two_loops.rtea", "--x0", "60", "--time", "3", "--target", "7/2"),
        0,
        '{"answer": true, "value": "62", "query": {"kind": "eval", "model": "two_loops.rtea", "x0": "60", "time": "3", "target": "7/2"}}\n',
    ),
    (
        ("normalize", "--model", "satellite_top_path.rtea"),
        0,
        '{"input": {"atoms": [["0", "-20", "20"], ["2", "-20", "20"], ["5", "-10", "10"]]}, '
        '"normalized": {"atoms": [["0", "0", "20"], ["2", "0", "40"], ["5", "-50", "50"]], "pieces": ['
        '{"x_low": "0", "x_high": "20", "infeasible": true}, '
        '{"x_low": "20", "x_high": "40", "boundary": {"slope": "-1/2", "t_at_x_low": "12"}, '
        '"value": {"t": "5", "x": "5/2", "c": "-110"}}, '
        '{"x_low": "40", "x_high": "inf", "boundary": {"slope": "-1/5", "t_at_x_low": "2"}, '
        '"value": {"t": "5", "x": "1", "c": "-50"}}]}}\n',
    ),
    (
        ("normalize", "--model", "satellite.rtea"),
        2,
        "",
    ),
]


class TestGoldenOutput:
    def test_stdout_bytes_and_exit_codes(self, capsys, monkeypatch):
        monkeypatch.chdir(MODELS)
        for argv, want_code, want_out in GOLDEN:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (want_code, want_out), argv
            assert (err == "") == (code != 2), argv

    def test_error_messages(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(MODELS)
        _, _, err = run(capsys, "check", "cover", "--model", "satellite.rtea", "--x0", "50", "--time", "2")
        assert err == "error: cover requires --target\n"
        _, _, err = run(capsys, "normalize", "--model", "satellite.rtea")
        assert err == "error: model is not a single chain: state 'closed' has 2 outgoing transitions\n"
        # the loop at the accepting state is reachable, but off the path
        loop = tmp_path / "loop.rtea"
        loop.write_text("""rtea {
          state a rate 1 initial;
          state b rate 0 accepting;
          trans a -> b price 0 bound 0;
          trans b -> b price 0 bound 0;
        }""")
        code, out, err = run(capsys, "normalize", "--model", str(loop))
        assert (code, out) == (2, "")
        assert err == "error: model is not a single chain: transition 'b' -> 'b' is off the path\n"
