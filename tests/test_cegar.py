import pytest

from hyperweave import cegar, exprs, lia, proofdb
from hyperweave.antichain import Strategy
from hyperweave.automata import determinize
from hyperweave.cegar import RoundRecord, VerifyConfig, progress_audit, verify
from hyperweave.frontend import load_program
from hyperweave.reduction import LINEAR, PARTITION

SIMPLEINC = """
var x, y;
assume(x = y);
{ x := x + 1; } || { x := x + 1; }
y := y + 1;
y := y + 1;
assume(x != y);
"""


def test_trivially_safe_one_round():
    dfa, dep, _ = load_program("var x; assume(x != x);")
    v = verify(dfa, dep, VerifyConfig(timeout=30))
    assert v.verdict == "safe"
    assert len(v.proof) == 2  # just true and false
    assert len(v.rounds) == 1 and v.rounds[0].new_assertions == []
    assert v.stats["rounds"] == 1


def test_trivially_unsafe_with_replayable_model():
    dfa, dep, _ = load_program("var x; x := 1; assume(x = 1);")
    v = verify(dfa, dep, VerifyConfig(timeout=30))
    assert v.verdict == "unsafe"
    assert proofdb.replay(v.trace, v.model) is not None


def test_safe_parallel_program_all_engines():
    dfa, dep, _ = load_program(SIMPLEINC)
    for use_antichain in (True, False):
        for orders in (PARTITION, LINEAR):
            v = verify(dfa, dep, VerifyConfig(use_antichain=use_antichain,
                                              orders=orders, timeout=60))
            assert v.verdict == "safe", (use_antichain, orders.kind)
            assert progress_audit(v.rounds)


def test_naive_strategy():
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(strategy=Strategy("naive"), timeout=60))
    assert v.verdict == "safe"


def test_unsafe_with_wp_engine():
    dfa, dep, _ = load_program(
        "var x, y; { x := x + 1; } || { y := y + 1; } assume(x = y);")
    v = verify(dfa, dep, VerifyConfig(interpolation="wp", timeout=60))
    assert v.verdict == "unsafe"
    assert proofdb.replay(v.trace, v.model)[
        "x"] == proofdb.replay(v.trace, v.model)["y"]


def test_safe_proof_revalidates(solver):
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "safe"
    # the final proof re-passes an independent check from scratch
    proof = proofdb.Proof(v.proof)
    nfa = proofdb.build_proof_nfa(proof, dfa.alphabet, solver)
    api = determinize(nfa, dfa.alphabet)
    from hyperweave.antichain import check
    assert check(dfa, api, dep, PARTITION).covered


def test_progress_audit_accepts_real_runs():
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert progress_audit(v.rounds)


def test_progress_audit_rejects_repeats_and_stalls():
    good = [RoundRecord(1, [(0, 1)], ["a"], 3, 0, 0),
            RoundRecord(2, [(1, 0)], ["b"], 4, 0, 0)]
    assert progress_audit(good)
    repeat = [RoundRecord(1, [(0, 1)], ["a"], 3, 0, 0),
              RoundRecord(2, [(0, 1)], ["b"], 4, 0, 0)]
    assert not progress_audit(repeat)
    stall = [RoundRecord(1, [(0, 1)], ["a"], 3, 0, 0),
             RoundRecord(2, [(1, 0)], ["b"], 3, 0, 0),
             RoundRecord(3, [(1, 1)], ["c"], 4, 0, 0)]
    assert not progress_audit(stall)


def test_timeout_returns_unknown():
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=0.0))
    assert v.verdict == "unknown"
    assert "timeout" in v.reason


def test_proof_cap_returns_unknown():
    # a program needing more than one assertion against a proof cap of 3
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60, max_proof=3))
    assert v.verdict in ("unknown", "safe")
    if v.verdict == "unknown":
        assert "proof size" in v.reason


def test_stats_rounds_match_round_records():
    dfa, dep, _ = load_program(SIMPLEINC)
    safe = verify(dfa, dep, VerifyConfig(timeout=60))
    assert safe.verdict == "safe"
    assert safe.stats["rounds"] == len(safe.rounds)
    assert safe.rounds[-1].counterexamples == []
    assert progress_audit(safe.rounds)
    dfa, dep, _ = load_program("var x; x := 1; assume(x = 1);")
    unsafe = verify(dfa, dep, VerifyConfig(timeout=30))
    assert unsafe.verdict == "unsafe"
    assert unsafe.stats["rounds"] == len(unsafe.rounds)


def test_cache_counters_reported():
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.stats["cache_misses"] > 0 and v.stats["cache_hits"] >= 0
    assert v.stats["cache_misses"] >= v.stats["cache_entries"]


def test_solver_failure_is_unknown():
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=30,
                                      solver_command="/does/not/exist"))
    assert v.verdict == "unknown"
    assert "solver" in v.reason


def test_multi_counterexample_round():
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(strategy=Strategy("pe"), timeout=60))
    assert v.verdict == "safe"
    v2 = verify(dfa, dep, VerifyConfig(strategy=Strategy("bpe", "l", 3),
                                       timeout=60))
    assert v2.verdict == "safe"


@pytest.mark.parametrize("fault", [ValueError("bad formula"),
                                   exprs.NonlinearError("x * y"),
                                   OverflowError("too big"),
                                   RecursionError("too deep"),
                                   ("unknown", None)])
def test_in_process_solver_fault_is_unknown(monkeypatch, fault):
    def solve_formula(f, want_model=True):
        if isinstance(fault, Exception):
            raise fault
        return fault

    monkeypatch.setattr(lia, "solve_formula", solve_formula)
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=30))
    assert v.verdict == "unknown"
    assert "solver" in v.reason
