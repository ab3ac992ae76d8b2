import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from hyperweave import cegar, cli, lia, proofdb
from hyperweave.antichain import check
from hyperweave.automata import LazyDfa, determinize
from hyperweave.cli import _print_text, formula_to_json, main, run_benchmark
from hyperweave.frontend import DependenceRel, load_program
from hyperweave.reduction import PARTITION
from tests.conftest import child_env
from tests.oracles import formula_from_json

SAFE_SRC = """
var x, y;
assume(x = y);
{ x := x + 1; } || { x := x + 1; }
y := y + 1;
y := y + 1;
assume(x != y);
"""
UNSAFE_SRC = "var x; x := 1; assume(x = 1);"


@pytest.fixture
def tmpfiles(tmp_path):
    safe = tmp_path / "safe.imp"
    safe.write_text(SAFE_SRC)
    unsafe = tmp_path / "unsafe.imp"
    unsafe.write_text(UNSAFE_SRC)
    return tmp_path, str(safe), str(unsafe)


def test_exit_codes(tmpfiles, capsys):
    _, safe, unsafe = tmpfiles
    assert main(["verify", safe, "--timeout", "60"]) == 0
    assert main(["verify", unsafe, "--timeout", "60"]) == 1
    assert main(["verify", "/missing.imp"]) == 64
    capsys.readouterr()
    assert main(["verify", safe, "--strategy", "bpe-l0"]) == 64
    assert "N >= 1" in capsys.readouterr().err
    # the strategy is rejected before the program is read
    assert main(["verify", "/missing.imp", "--strategy", "bpe-l0"]) == 64
    assert "N >= 1" in capsys.readouterr().err


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.imp"
    bad.write_text("var x; x := ;")
    assert main(["verify", str(bad)]) == 64
    capsys.readouterr()


def test_unknown_exit(tmpfiles, capsys, monkeypatch):
    _, safe, _ = tmpfiles
    monkeypatch.setattr(lia, "solve_formula", lambda f: ("unknown", None))
    assert main(["verify", safe]) == 2
    assert "solver" in capsys.readouterr().out


def test_no_solver_flag(tmpfiles, capsys):
    _, safe, _ = tmpfiles
    assert main(["verify", safe, "--solver", "z3"]) == 64
    assert "--solver" in capsys.readouterr().err


def test_cli_import_loads_no_subprocess():
    code = "import sys, hyperweave.cli; print('subprocess' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.stdout.strip() == "False", proc.stderr


def _full_reproof(dfa, proof):
    """The proof NFA builder after deciding every triple over proof with a
    fresh solver and cache."""
    with proofdb.SolverClient() as fresh:
        builder = proofdb.ProofNfaBuilder(dfa.alphabet, fresh,
                                          proofdb.EntailmentCache())
        nfa = builder.extend(proofdb.Proof(proof))
    return builder, nfa


def test_json_output_roundtrips(tmpfiles, capsys):
    _, safe, _ = tmpfiles
    assert main(["verify", safe, "--format", "json", "--timeout", "60"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "safe"
    # reparse the emitted proof and re-run the checker from scratch
    proof = proofdb.Proof([formula_from_json(a["formula"]) for a in data["proof"]])
    dfa, dep, _ = load_program(SAFE_SRC)
    builder, nfa = _full_reproof(dfa, proof)
    api = determinize(nfa, dfa.alphabet)
    assert check(dfa, api, dep, PARTITION).covered
    # the emitted edges: sorted, none into true or out of false (proof_nfa
    # adds those), each re-proved by a fresh solver, covering on their own,
    # and exactly the valid triples of the full re-proof
    edges = [tuple(e) for e in data["edges"]]
    assert edges == sorted(set(edges))
    assert not [e for e in edges if e[2] == 0 or e[0] == 1]
    fs, stmts = proof.assertions, {s.id: s for s in dfa.alphabet}
    with proofdb.SolverClient() as fresh:
        assert all(proofdb.hoare_verdicts(
            [(fs[i], stmts[sid], fs[j]) for i, sid, j in edges], fresh))
    nfa = proofdb.proof_nfa(len(proof), dfa.alphabet, edges)
    assert check(dfa, determinize(nfa, dfa.alphabet), dep, PARTITION).covered
    assert set(edges) == builder.edges


def test_json_output_of_an_unsafe_verdict(tmpfiles, capsys):
    _, _, unsafe = tmpfiles
    assert main(["verify", unsafe, "--format", "json", "--timeout", "60"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "unsafe"
    dfa, _, _ = load_program(UNSAFE_SRC)
    trace = [dfa.alphabet[i] for i in data["trace_ids"]]
    assert data["trace"] == [s.display for s in trace]
    assert proofdb.replay(trace, data["model"]) is not None


def test_json_output_of_an_unknown_verdict(tmpfiles, capsys, monkeypatch):
    _, safe, _ = tmpfiles
    monkeypatch.setattr(lia, "solve_formula", lambda f: ("unknown", None))
    assert main(["verify", safe, "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "unknown"
    assert data["reason"].startswith("solver failure: ")
    assert "proof" not in data and "trace" not in data


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_no_solver_call_after_verify(tmpfiles, capsys, monkeypatch, fmt):
    _, safe, _ = tmpfiles
    verify = cegar.verify

    def verify_then_break_solver(*args):
        verdict = verify(*args)

        def broken(f):
            raise ValueError("solver called after verify")
        monkeypatch.setattr(lia, "solve_formula", broken)
        return verdict
    monkeypatch.setattr(cegar, "verify", verify_then_break_solver)
    assert main(["verify", safe, "--format", fmt, "--timeout", "60"]) == 0
    out = capsys.readouterr().out
    if fmt == "text":
        assert "proof automaton (determinized):" in out
        assert " -> " in out
        assert re.search(r"^solver_queries: \d+ \(pool hits: \d+\)$", out,
                         re.MULTILINE)
    else:
        assert json.loads(out)["edges"]


@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
def test_timeout_must_be_finite_and_positive(tmp_path, capsys, timeout):
    (tmp_path / "p.imp").write_text(UNSAFE_SRC)
    assert main(["verify", str(tmp_path / "p.imp"),
                 "--timeout", timeout]) == 64
    assert "timeout" in capsys.readouterr().err
    # the same value in a .expect makes the bench row an error
    (tmp_path / "p.expect").write_text(json.dumps(
        {"verdict": "unsafe", "timeout": float(timeout)}))
    out_prefix = str(tmp_path / "report")
    assert main(["bench", str(tmp_path), "--out", out_prefix]) == 1
    capsys.readouterr()
    [row] = json.loads(Path(out_prefix + ".json").read_text())["rows"]
    assert row["verdict"].startswith("error: timeout")


def test_cli_closes_the_files_it_reads(tmp_path, capsys):
    bench = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                         "parallel")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", os.path.join(bench, "simpleinc.imp")]) == 0
        assert main(["bench", bench,
                     "--stats", str(tmp_path / "rounds.jsonl")]) == 0
    capsys.readouterr()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


@pytest.mark.parametrize("command, flag", [
    ("verify", "--stats"), ("verify", "--dump-program"),
    ("bench", "--out"), ("bench", "--stats")])
def test_unwritable_output_path_is_a_usage_error(tmpfiles, capsys, monkeypatch,
                                                 command, flag):
    tmp, _, unsafe = tmpfiles
    verified = []
    real_verify = cegar.verify
    monkeypatch.setattr(cegar, "verify",
                        lambda *a: verified.append(1) or real_verify(*a))
    target = unsafe if command == "verify" else str(tmp)
    missing = str(tmp / "no" / "such" / "dir" / "out")
    assert main([command, target, flag, missing]) == 64
    assert capsys.readouterr().err.startswith("error: ")
    # output files are opened before the run, so a bad path costs no run
    assert verified == []


def test_bench_prints_error_rows_with_their_name_and_group(tmp_path, capsys):
    group = tmp_path / "grp"
    group.mkdir()
    (group / "a.imp").write_text(UNSAFE_SRC)
    (group / "a.expect").write_text('{"verdict": "unsafe", "timeout": NaN}')
    (group / "b.imp").write_text(UNSAFE_SRC)
    (group / "b.expect").write_text('{"verdict": "unsafe"}')
    out_prefix = str(tmp_path / "report")
    assert main(["bench", str(group), "--out", out_prefix]) == 1
    printed = capsys.readouterr().out.splitlines()
    [line] = [l for l in printed if l.startswith("a ")]
    assert "error: timeout" in line and line.endswith("<-- MISMATCH")
    report = json.loads(Path(out_prefix + ".json").read_text())
    assert [(r["name"], r["group"]) for r in report["rows"]] == [
        ("a", "grp"), ("b", "grp")]
    [summary] = report["groups"]
    assert summary["group"] == "grp" and summary["count"] == 2


def test_bench_refuses_unknown_expect_keys(tmp_path, capsys):
    # a misspelt key would otherwise be ignored: atomic-blocks for
    # atomic_blocks ran non-atomic and matched
    (tmp_path / "p.imp").write_text(UNSAFE_SRC)
    (tmp_path / "p.expect").write_text(
        '{"verdict": "unsafe", "atomic-blocks": true}')
    with pytest.raises(ValueError, match="atomic-blocks"):
        run_benchmark(str(tmp_path / "p.imp"))
    assert main(["bench", str(tmp_path)]) == 1
    [line] = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("p ")]
    assert "error: unknown .expect keys" in line and "MISMATCH" in line


@pytest.mark.parametrize("key, value, msg", [
    ("antichain", "yes", "antichain must be one of on, off, not 'yes'"),
    ("orders", "linaer", "orders must be one of partition, linear"),
    ("strategy", "bpe-lx", "unknown strategy 'bpe-lx'")],
    ids=["antichain", "orders", "strategy"])
def test_misspelt_option_values_are_refused(tmp_path, capsys, key, value, msg):
    # each of the first two ran another engine: the explicit-LTA
    # baseline, partition orders
    with pytest.raises(ValueError, match=msg):
        cli._build_config({key: value})
    (tmp_path / "p.imp").write_text(UNSAFE_SRC)
    (tmp_path / "p.expect").write_text(json.dumps({"verdict": "unsafe", key: value}))
    assert main(["bench", str(tmp_path)]) == 1
    [line] = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("p ")]
    assert f"error: {msg}" in line and "MISMATCH" in line


@pytest.mark.parametrize("key, value, msg", [
    ("timeout", True, "timeout must be a number, not True"),
    ("timeout", "30", "timeout must be a number, not '30'"),
    ("strategy", 5, "strategy must be a string, not 5")],
    ids=["timeout-bool", "timeout-string", "strategy-int"])
def test_option_values_of_the_wrong_json_type_are_refused(tmp_path, capsys,
                                                          key, value, msg):
    # true ran with a 1 s budget, "30" with 30 s, and 5 raised an
    # AttributeError that named no key
    with pytest.raises(ValueError, match=msg):
        cli._build_config({key: value})
    (tmp_path / "p.imp").write_text(UNSAFE_SRC)
    (tmp_path / "p.expect").write_text(json.dumps({"verdict": "unsafe", key: value}))
    assert main(["bench", str(tmp_path)]) == 1
    [line] = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("p ")]
    assert f"error: {msg}" in line and "MISMATCH" in line


def test_an_integer_timeout_is_a_number():
    assert cli._build_config({"timeout": 5}).timeout == 5.0


def test_defaults_are_those_of_verify_config():
    # a .expect without options and verify without flags both run with
    # VerifyConfig's defaults
    assert cli._build_config({}) == cegar.VerifyConfig()
    args = cli.make_parser().parse_args(["verify", "p.imp"])
    assert cli._build_config(vars(args)) == cegar.VerifyConfig()


def test_interpolation_option_is_gone(tmpfiles, capsys):
    # interpolation has one path (Farkas, then wp), so the option is refused
    tmp_path, safe, unsafe = tmpfiles
    assert main(["verify", safe, "--interpolation", "wp"]) == 64
    (tmp_path / "unsafe.expect").write_text(
        '{"verdict": "unsafe", "interpolation": "farkas"}')
    with pytest.raises(ValueError, match=r"unknown .expect keys \['interpolation'\]"):
        run_benchmark(unsafe)
    capsys.readouterr()
    assert main(["bench", str(tmp_path)]) == 1
    [line] = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("unsafe ")]
    assert "error: unknown .expect keys" in line and "MISMATCH" in line


def test_atomic_blocks_must_be_a_boolean(tmp_path, capsys):
    # a JSON string is no boolean: "false" is a true value in Python
    (tmp_path / "p.imp").write_text(UNSAFE_SRC)
    (tmp_path / "p.expect").write_text(
        '{"verdict": "unsafe", "atomic_blocks": "false"}')
    msg = "atomic_blocks must be true or false, not 'false'"
    with pytest.raises(ValueError, match=msg):
        run_benchmark(str(tmp_path / "p.imp"))
    assert main(["bench", str(tmp_path)]) == 1
    [line] = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("p ")]
    assert f"error: {msg}" in line and "MISMATCH" in line


def test_misspelt_flag_values_are_refused(tmpfiles, capsys):
    tmp_path, safe, _ = tmpfiles
    assert main(["verify", safe, "--strategy", "bpe-lx"]) == 64
    assert "unknown strategy 'bpe-lx'" in capsys.readouterr().err
    (tmp_path / "safe.expect").write_text('{"verdict": "safe"}')
    (tmp_path / "unsafe.expect").write_text('{"verdict": "unsafe"}')
    assert main(["bench", str(tmp_path), "--antichain-matrix", "on,yes"]) == 1
    rows = [l for l in capsys.readouterr().out.splitlines() if "[" in l]
    assert len(rows) == 4
    assert all(("error: antichain" in l) == ("antichain=yes" in l) for l in rows)


def _full_dfa_lines(dfa, proof) -> list:
    """The text printout's automaton lines, by the full subset construction
    of a full re-proof."""
    _, nfa = _full_reproof(dfa, proof)
    api = determinize(nfa, dfa.alphabet)
    live = api.live_states()
    lines = []
    for q, row in enumerate(api.delta):
        for j, t in enumerate(row):
            if t in live:
                mark = " (accepting)" if t in api.finals else ""
                lines.append(f"  {q} -> {t} "
                             f"[label=\"{api.alphabet[j].display}\"]{mark}")
    return lines[:200] + (["  ... (truncated)"] if len(lines) >= 200 else [])


MULT_DIST = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                         "sequential", "mult_dist.imp")


@pytest.mark.parametrize("source, atomic", [
    (SAFE_SRC, False), (Path(MULT_DIST).read_text(), True)],
    ids=["simpleinc", "mult_dist-atomic"])
def test_text_proof_automaton_equals_full_determinization(
        capsys, monkeypatch, source, atomic):
    dfa, dep, _ = load_program(source, atomic=atomic)
    verdict = cegar.verify(dfa, dep, cegar.VerifyConfig(timeout=60))
    assert verdict.verdict == "safe"
    built = []
    monkeypatch.setattr(cli, "LazyDfa",
                        lambda *a: built.append(LazyDfa(*a)) or built[-1])
    _print_text(verdict, dfa.alphabet)
    out = capsys.readouterr().out.splitlines()
    start = out.index("proof automaton (determinized):") + 1
    end = next(i for i, line in enumerate(out) if line.startswith("rounds:"))
    assert out[start:end] == _full_dfa_lines(dfa, verdict.proof)
    assert len(built) == 1 and built[0].rows_built <= 200


def test_formula_json_identity():
    from hyperweave.exprs import atom_from_cmp, c_and, c_or, negate, var
    from tests.oracles import num
    f = c_or([c_and([atom_from_cmp("<", var("x"), num(3)),
                     atom_from_cmp("!=", var("y"), var("x"))]),
              negate(atom_from_cmp("=", var("z"), num(0)))])
    assert formula_from_json(json.loads(json.dumps(formula_to_json(f)))) == f


def test_stats_file(tmpfiles, capsys):
    tmp, safe, _ = tmpfiles
    stats = os.path.join(str(tmp), "rounds.jsonl")
    assert main(["verify", safe, "--stats", stats, "--timeout", "60"]) == 0
    lines = [json.loads(l) for l in Path(stats).read_text().splitlines()]
    assert lines and all("proof_size" in l for l in lines)
    assert all(l["cells"] > 0 and l["api_rows"] > 0 for l in lines)
    assert all({"memo_hits", "solver_queries", "cache_hits", "extract_time",
                "refine_time"} <= set(l) for l in lines)
    assert sum(l["solver_queries"] for l in lines) > 0
    capsys.readouterr()


def test_dump_program(tmpfiles, capsys):
    tmp, safe, _ = tmpfiles
    dot = os.path.join(str(tmp), "prog.dot")
    assert main(["verify", safe, "--dump-program", dot, "--timeout", "60"]) == 0
    text = Path(dot).read_text()
    assert "->" in text and "label=" in text
    capsys.readouterr()


def test_check_dependence_flag(tmpfiles, capsys):
    _, safe, _ = tmpfiles
    assert main(["verify", safe, "--check-dependence", "--timeout", "60"]) == 0
    capsys.readouterr()


def test_check_dependence_sees_an_order_that_blocks(solver):
    # from x = 1 the assume runs before the decrement but not after it
    dfa, _, _ = load_program("var x; { assume(x > 0); } || { x := x - 1; }")
    free = DependenceRel(tuple(1 << i for i in range(len(dfa.alphabet))))
    assert cli.check_dependence_soundness(dfa, free, solver) == [
        tuple(sorted(s.id for s in dfa.alphabet))]


def test_check_dependence_flag_refuses_an_unsound_relation(
        tmpfiles, capsys, monkeypatch):
    # compute_dependence never declares a non-commuting pair independent, so
    # load_program is made to return a relation that does
    _, safe, _ = tmpfiles
    dfa, _, ast = load_program("var x; { assume(x > 0); } || { x := x - 1; }")
    free = DependenceRel(tuple(1 << i for i in range(len(dfa.alphabet))))
    monkeypatch.setattr(cli, "load_program", lambda *a, **k: (dfa, free, ast))
    assert main(["verify", safe, "--check-dependence"]) == 2
    captured = capsys.readouterr()
    pair = tuple(sorted(s.id for s in dfa.alphabet))
    assert f"dependence unsound for pairs: {[pair]}" in captured.err
    assert "verdict" not in captured.out


def test_readme_lists_every_verify_flag_and_expect_key():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("Useful flags for `verify`:")[1].split("\n\n")[1]
    documented = set(re.findall(r"`(--[a-z][a-z-]*)", table))
    [verify] = [a.choices["verify"] for a in cli.make_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    flags = {o for a in verify._actions
             if not isinstance(a, argparse._HelpAction)
             for o in a.option_strings}
    assert documented == flags
    sentence = re.search(r"Its keys are (.*?);", readme, re.S).group(1)
    assert set(re.findall(r"`(\w+)`", sentence)) == cli.EXPECT_KEYS


def test_bench_empty_dir(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 benchmarks" in out


def test_bench_runs_and_flags_mismatches(tmp_path, capsys):
    (tmp_path / "good.imp").write_text(UNSAFE_SRC)
    (tmp_path / "good.expect").write_text('{"verdict": "unsafe"}')
    (tmp_path / "liar.imp").write_text(UNSAFE_SRC)
    (tmp_path / "liar.expect").write_text('{"verdict": "safe"}')
    out_prefix = str(tmp_path / "report")
    assert main(["bench", str(tmp_path), "--out", out_prefix]) == 1
    printed = capsys.readouterr().out
    assert "MISMATCH" in printed
    report = json.loads(Path(out_prefix + ".json").read_text())
    by_name = {r["name"]: r for r in report["rows"]}
    assert by_name["good"]["ok"] and not by_name["liar"]["ok"]
    assert os.path.exists(out_prefix + ".csv")


def test_bench_strategies_give_one_row_per_strategy(tmp_path, capsys):
    (tmp_path / "b.imp").write_text(UNSAFE_SRC)
    (tmp_path / "b.expect").write_text('{"verdict": "unsafe"}')
    out_prefix = str(tmp_path / "report")
    assert main(["bench", str(tmp_path), "--strategies", "bpe-rr,bpe-l1",
                 "--out", out_prefix]) == 0
    printed = capsys.readouterr().out
    assert "b[strategy=bpe-rr]" in printed and "b[strategy=bpe-l1]" in printed
    rows = json.loads(Path(out_prefix + ".json").read_text())["rows"]
    assert [(r["name"], r["config"], r["ok"]) for r in rows] == [
        ("b", "strategy=bpe-rr", True), ("b", "strategy=bpe-l1", True)]


def test_run_benchmark_helper(tmp_path):
    p = tmp_path / "b.imp"
    p.write_text(UNSAFE_SRC)
    (tmp_path / "b.expect").write_text('{"verdict": "unsafe", "timeout": 30}')
    row, verdict = run_benchmark(str(p))
    assert row["ok"] and row["verdict"] == "unsafe"


def test_console_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "hyperweave.cli", "verify",
                           "--help"], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode in (0, 64)
    assert "strategy" in proc.stdout + proc.stderr
