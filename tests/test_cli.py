import json
import os
import subprocess
import sys

import pytest

from hyperweave import cegar, lia, proofdb
from hyperweave.antichain import check
from hyperweave.automata import determinize
from hyperweave.cli import (_final_proof_dfa, _print_text, formula_from_json,
                            formula_to_json, main, run_benchmark)
from hyperweave.frontend import load_program
from hyperweave.reduction import PARTITION
from tests.conftest import child_env

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


def test_json_output_roundtrips(tmpfiles, capsys, solver):
    _, safe, _ = tmpfiles
    assert main(["verify", safe, "--format", "json", "--timeout", "60"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["verdict"] == "safe"
    # reparse the emitted proof and re-run the checker from scratch
    proof = proofdb.Proof([formula_from_json(a["formula"]) for a in data["proof"]])
    dfa, dep, _ = load_program(SAFE_SRC)
    nfa = proofdb.build_proof_nfa(proof, dfa.alphabet, solver)
    api = determinize(nfa, dfa.alphabet)
    assert check(dfa, api, dep, PARTITION).covered


def _full_dfa_lines(dfa, proof, solver) -> list:
    """The text printout's automaton lines, by the full subset construction."""
    nfa = proofdb.build_proof_nfa(proofdb.Proof(proof), dfa.alphabet, solver)
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
    (SAFE_SRC, False), (open(MULT_DIST).read(), True)],
    ids=["simpleinc", "mult_dist-atomic"])
def test_text_proof_automaton_equals_full_determinization(
        capsys, solver, source, atomic):
    dfa, dep, _ = load_program(source, atomic=atomic)
    verdict = cegar.verify(dfa, dep, cegar.VerifyConfig(timeout=60))
    assert verdict.verdict == "safe"
    api = _final_proof_dfa(verdict, dfa)
    _print_text(verdict, api)
    out = capsys.readouterr().out.splitlines()
    start = out.index("proof automaton (determinized):") + 1
    end = next(i for i, line in enumerate(out) if line.startswith("rounds:"))
    assert out[start:end] == _full_dfa_lines(dfa, verdict.proof, solver)
    assert api.rows_built <= 200


def test_formula_json_identity():
    from hyperweave.exprs import atom_from_cmp, c_and, c_or, negate, num, var
    f = c_or([c_and([atom_from_cmp("<", var("x"), num(3)),
                     atom_from_cmp("!=", var("y"), var("x"))]),
              negate(atom_from_cmp("=", var("z"), num(0)))])
    assert formula_from_json(json.loads(json.dumps(formula_to_json(f)))) == f


def test_stats_file(tmpfiles, capsys):
    tmp, safe, _ = tmpfiles
    stats = os.path.join(str(tmp), "rounds.jsonl")
    assert main(["verify", safe, "--stats", stats, "--timeout", "60"]) == 0
    lines = [json.loads(l) for l in open(stats)]
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
    text = open(dot).read()
    assert "->" in text and "label=" in text
    capsys.readouterr()


def test_check_dependence_flag(tmpfiles, capsys):
    _, safe, _ = tmpfiles
    assert main(["verify", safe, "--check-dependence", "--timeout", "60"]) == 0
    capsys.readouterr()


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
    report = json.loads(open(out_prefix + ".json").read())
    by_name = {r["name"]: r for r in report["rows"]}
    assert by_name["good"]["ok"] and not by_name["liar"]["ok"]
    assert os.path.exists(out_prefix + ".csv")


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
