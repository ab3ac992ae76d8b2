import os
import random
import subprocess
import sys

import pytest

from hyperweave import proofdb
from hyperweave.cli import run_benchmark
from hyperweave.exprs import atom_from_cmp, num, var
from hyperweave.smtserver import parse_sexprs
from tests.conftest import child_env

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
SMTSERVER = [sys.executable, "-m", "hyperweave.smtserver"]


def run_server(script: str) -> list:
    proc = subprocess.run(SMTSERVER, input=script, capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_parse_sexprs():
    assert parse_sexprs("(a (b 1) c)") == [["a", ["b", "1"], "c"]]
    assert parse_sexprs("(a) (b)") == [["a"], ["b"]]


def test_basic_protocol():
    out = run_server("""
(set-logic QF_LIA)
(declare-const x Int)
(push 1)
(assert (and (<= 3 x) (< x 5)))
(check-sat)
(pop 1)
(assert (< x 0))
(assert (> x 0))
(check-sat)
(exit)
""")
    assert out == ["sat", "unsat"]


def test_model_shape():
    out = run_server("""
(set-logic QF_LIA)
(declare-const x Int)
(assert (= x (- 7)))
(check-sat)
(get-model)
(exit)
""")
    assert out[0] == "sat"
    model = parse_sexprs("\n".join(out[1:]))[0]
    entry = model[0]
    assert entry[0] == "define-fun" and entry[1] == "x"
    assert entry[4] == ["-", "7"]


def test_push_pop_scoping():
    out = run_server("""
(declare-const x Int)
(push 1)
(assert (= x 1))
(check-sat)
(push 1)
(assert (= x 2))
(check-sat)
(pop 2)
(assert (= x 2))
(check-sat)
(exit)
""")
    assert out == ["sat", "unsat", "sat"]


def test_implication_and_distinct():
    out = run_server("""
(declare-const a Int)
(declare-const b Int)
(assert (=> (< a b) (distinct a b)))
(check-sat)
(assert (< a b))
(assert (= a b))
(check-sat)
(exit)
""")
    assert out == ["sat", "unsat"]


def test_error_reply_keeps_session_alive():
    out = run_server("""
(frobnicate)
(declare-const x Int)
(assert (= x 0))
(check-sat)
(exit)
""")
    assert out[0].startswith("(error")
    assert out[1] == "sat"


@pytest.mark.parametrize("name", ["parallel/simpleinc", "unsafe/mult_dist_unsafe"])
def test_smtlib_child_matches_in_process(name):
    path = os.path.join(BENCH_DIR, name + ".imp")
    _, default = run_benchmark(path)
    _, child = run_benchmark(path, {"solver": SMTSERVER})
    assert child.verdict == default.verdict == (
        "unsafe" if name.startswith("unsafe/") else "safe")
    assert len(child.rounds) == len(default.rounds)
    for key in ("proof_size", "solver_queries"):
        assert child.stats[key] == default.stats[key], key
    if default.verdict == "unsafe":
        assert proofdb.replay(default.trace, default.model) is not None
        assert proofdb.replay(child.trace, child.model) is not None


def test_smtlib_client_agrees_with_in_process():
    rng = random.Random(5)
    queries = []
    for _ in range(30):
        x, y = var("x"), var("y")
        queries.append([atom_from_cmp(rng.choice(["<=", ">=", "=", "!="]),
                                      ("add", x, y), num(rng.randint(-3, 3))),
                        atom_from_cmp(rng.choice(["<", ">", "="]), x,
                                      num(rng.randint(-3, 3)))])
    with proofdb.SolverClient() as local, proofdb.SolverClient(SMTSERVER) as child:
        assert child.proc is not None and local.proc is None
        assert child.check_sat_batch(queries) == local.check_sat_batch(queries)
        for q in queries:
            res, model = child.check_sat(q, get_model=True)
            assert res == local.check_sat(q)[0]
            if res == "sat":
                assert proofdb.exprs.eval_formula(proofdb.exprs.c_and(q), model)
        assert child.num_queries == local.num_queries == 2 * len(queries)
