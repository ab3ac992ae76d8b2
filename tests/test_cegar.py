import json
import os
import subprocess
import sys
import time
import types

import pytest

from hyperweave import antichain as ac
from hyperweave import cegar, exprs, lia, proofdb
from hyperweave.antichain import Strategy
from hyperweave.automata import determinize
from hyperweave.cegar import RoundRecord, VerifyConfig, progress_audit, verify
from hyperweave.frontend import load_program
from hyperweave.reduction import LINEAR, PARTITION
from tests.conftest import child_env

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


def test_round_records_carry_check_counters():
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "safe"
    for rec in v.rounds:
        assert rec.cells > 0 and rec.fmax_calls >= rec.cells
        assert rec.api_rows > 0 and rec.births >= 0
        assert {"cells", "fmax_calls", "births", "api_rows"} <= set(rec.as_dict())
    last = v.rounds[-1]
    assert (last.cells, last.fmax_calls, last.births, last.api_rows) == tuple(
        v.stats["check"][k] for k in ("cells", "fmax_calls", "births",
                                      "api_rows"))
    base = verify(dfa, dep, VerifyConfig(use_antichain=False, timeout=60))
    assert all(rec.cells == rec.api_rows == 0 for rec in base.rounds)


def test_round_record_dict_keeps_its_key_order():
    rec = RoundRecord(3, [(0, 1)], ["a"], 4, 0.5, 0.25)
    d = rec.as_dict()
    assert list(d) == ["round", "counterexamples", "new_assertions",
                       "proof_size", "construction_time", "checking_time",
                       "extract_time", "refine_time", "cells", "fmax_calls",
                       "births", "api_rows", "memo_hits", "solver_queries",
                       "pool_hits", "cache_hits"]
    assert d["round"] == 3 and d["counterexamples"] == [[0, 1]]
    assert list(ac.Stats().as_dict()) == ["cells", "fmax_calls", "joins",
                                          "meets", "peak_width", "births",
                                          "memo_hits"]


def test_round_counters_add_up_to_the_run():
    dfa, dep, _ = load_program(SIMPLEINC)
    for cfg in (VerifyConfig(timeout=60),
                VerifyConfig(use_antichain=False, timeout=60)):
        v = verify(dfa, dep, cfg)
        assert v.verdict == "safe"
        assert sum(r.solver_queries for r in v.rounds) == \
            v.stats["solver_queries"] > 0
        assert sum(r.cache_hits for r in v.rounds) == v.stats["cache_hits"]
        assert {"solver_queries", "cache_hits",
                "memo_hits"} <= set(v.rounds[0].as_dict())
    assert v.rounds[0].memo_hits == 0        # the baseline has no memo
    dfa, dep, _ = load_program(UNSAFE)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "unsafe"
    assert sum(r.solver_queries for r in v.rounds) == v.stats["solver_queries"]


def test_loop_checks_share_one_memo_and_revalidation_gets_its_own(
        monkeypatch):
    memos = []
    real = ac.check

    def check(*args, **kwargs):
        memos.append(kwargs.get("memo", args[6] if len(args) > 6 else None))
        return real(*args, **kwargs)
    monkeypatch.setattr(ac, "check", check)
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "safe"
    assert len(memos) == len(v.rounds) + 1    # the last check revalidates
    *loop, revalidation = memos
    assert all(m is loop[0] for m in loop)
    assert isinstance(revalidation, ac.SurvivorMemo)
    assert revalidation is not loop[0]
    assert v.rounds[-1].memo_hits > 0


# benchmarks/nonatomic/mult_dist_flipped with a fourth copy: it runs for
# far longer than either budget (unknown after 20 s on a 2-vCPU VM), while
# the three-copy program ends safe in about 3 s
MULT_DIST_4 = """var a, b, d, c, x1, i1, x2, i2, x3, i3, x4, i4;
assume(a >= 0); assume(b >= 0); assume(d >= 0);
{ x1 := 0; i1 := 0; while (i1 < a + b + d) { x1 := x1 + c; i1 := i1 + 1; } }
|| { x2 := 0; i2 := 0; while (i2 < a) { x2 := x2 + c; i2 := i2 + 1; } }
|| { x3 := 0; i3 := 0; while (i3 < b) { x3 := x3 + c; i3 := i3 + 1; } }
|| { x4 := 0; i4 := 0; while (i4 < d) { x4 := x4 + c; i4 := i4 + 1; } }
assume(x1 != x2 + x3 + x4);
"""
NONATOMIC_MULT = open(os.path.join(os.path.dirname(__file__), "..",
                                   "benchmarks", "nonatomic",
                                   "mult_dist.imp")).read()
STATS_KEYS = {"engine", "strategy", "orders", "proof_size", "rounds",
              "cache_entries", "solver_queries", "cache_hits", "cache_misses"}


@pytest.mark.parametrize("budget", [1.0, 3.0])
def test_deadline_overshoot_is_bounded(budget):
    dfa, dep, _ = load_program(MULT_DIST_4)
    t0 = time.monotonic()
    v = verify(dfa, dep, VerifyConfig(timeout=budget))
    took = time.monotonic() - t0
    assert (v.verdict, v.reason) == ("unknown", "timeout")
    assert took <= 1.1 * budget + 1.0, took
    assert {"engine", "strategy", "orders", "check", "proof_size", "rounds",
            "cache_entries", "solver_queries", "cache_hits",
            "cache_misses"} <= set(v.stats)
    assert v.stats["rounds"] == len(v.rounds)


def test_baseline_deadline_is_honoured():
    # the explicit reduction LTA of a 19-letter program under partition
    # orders takes far longer than the budget to build
    budget = 2.0
    dfa, dep, _ = load_program(NONATOMIC_MULT)
    t0 = time.monotonic()
    v = verify(dfa, dep, VerifyConfig(use_antichain=False, timeout=budget))
    took = time.monotonic() - t0
    assert (v.verdict, v.reason) == ("unknown", "timeout")
    assert took <= 1.1 * budget + 1.0, took
    assert STATS_KEYS <= set(v.stats)
    assert v.stats["engine"] == "baseline"


def test_pe_on_nonatomic_mult_dist_is_a_known_limit():
    # pe enumerates the partition subsets of more than 14 enabled letters
    dfa, dep, _ = load_program(NONATOMIC_MULT)
    v = verify(dfa, dep, VerifyConfig(strategy=Strategy("pe"), timeout=60))
    assert (v.verdict, v.reason) == (
        "unknown", "too many partition subsets in witness search")
    assert STATS_KEYS | {"check"} <= set(v.stats)
    assert v.stats["rounds"] == len(v.rounds)


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


def test_unsafe_with_wp_engine(monkeypatch):
    # every chain comes from the wp fallback; the rounds before the
    # violation interpolate infeasible traces
    wp_chains = []
    real_wp = proofdb._interpolate_wp

    def wp(trace, solver):
        wp_chains.append(real_wp(trace, solver))
        return wp_chains[-1]
    monkeypatch.setattr(proofdb, "_interpolate_farkas", lambda trace: None)
    monkeypatch.setattr(proofdb, "_interpolate_wp", wp)
    dfa, dep, _ = load_program(
        "var x, y; assume(x = 0); assume(y = 0); { x := x + 1; } || "
        "{ if (x = 0) { y := 1; } else { y := 2; } } assume(y = 2);")
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "unsafe"
    assert wp_chains
    assert proofdb.replay(v.trace, v.model)["y"] == 2


def test_safe_proof_revalidates(solver):
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "safe"
    # the final proof re-passes an independent check from scratch
    proof = proofdb.Proof(v.proof)
    nfa = proofdb.ProofNfaBuilder(dfa.alphabet, solver,
                                  proofdb.EntailmentCache()).extend(proof)
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


def test_proof_cap_returns_unknown(monkeypatch):
    # a program needing more than one assertion against a proof cap of 3
    monkeypatch.setattr(cegar, "MAX_PROOF", 3)
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "unknown"
    assert v.reason == "proof size exceeded 3"


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


def test_solver_failure_is_unknown(monkeypatch):
    calls = []

    def solve_formula(f):
        calls.append(f)
        raise ValueError("solver down")

    monkeypatch.setattr(lia, "solve_formula", solve_formula)
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=30))
    assert v.verdict == "unknown"
    assert "solver" in v.reason
    # the run stops at the first formula the solver sees, before any round
    assert len(calls) == 1
    assert v.stats["rounds"] == 0 and v.stats["proof_size"] == 2
    assert (v.stats["solver_queries"], v.stats["pool_hits"]) == (1, 0)
    # each cache miss is decided and cached in turn, up to the first one
    # that needs the solver, whose failure leaves it out of the cache
    assert v.stats["cache_entries"] == v.stats["cache_misses"] - 1


def test_solver_env_var_is_ignored(monkeypatch):
    dfa, dep, _ = load_program(SIMPLEINC)
    safe = verify(dfa, dep, VerifyConfig(timeout=60))
    monkeypatch.setenv("HYPERWEAVE_SOLVER", "/does/not/exist")
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert (safe.verdict, v.verdict) == ("safe", "safe")
    assert v.stats["solver_queries"] == safe.stats["solver_queries"]


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
    def solve_formula(f):
        if isinstance(fault, Exception):
            raise fault
        return fault

    dfa, dep, _ = load_program(SIMPLEINC)
    safe = verify(dfa, dep, VerifyConfig(timeout=30))
    assert safe.verdict == "safe"
    monkeypatch.setattr(lia, "solve_formula", solve_formula)
    v = verify(dfa, dep, VerifyConfig(timeout=30))
    assert v.verdict == "unknown"
    assert "solver" in v.reason
    assert set(v.stats) == set(safe.stats)
    assert v.stats["rounds"] == len(v.rounds) == 0
    assert v.stats["proof_size"] == 2


UNSAFE = "var x, y; { x := x + 1; } || { y := y + 1; } assume(x = y);"


def _extract_twice(monkeypatch):
    real = ac.extract_counterexamples
    monkeypatch.setattr(ac, "extract_counterexamples",
                        lambda *args: real(*args) * 2)


@pytest.mark.parametrize("program, patch, reason", [
    (UNSAFE, lambda mp: mp.setattr(proofdb, "replay", lambda t, m: None),
     "model does not replay"),
    (SIMPLEINC, lambda mp: mp.setattr(ac, "extract_counterexamples",
                                      lambda *a: []),
     "no counterexample extracted"),
    (SIMPLEINC, _extract_twice, "counterexample repeated across rounds"),
    (SIMPLEINC, lambda mp: mp.setattr(cegar, "first_difference_trace",
                                      lambda p, pi, deadline: None),
     "naive strategy found no difference trace"),
], ids=["replay", "no-cex", "repeated-cex", "naive"])
def test_broken_invariant_is_unknown(monkeypatch, program, patch, reason):
    patch(monkeypatch)
    dfa, dep, _ = load_program(program)
    strategy = Strategy("naive") if "naive" in reason else Strategy("bpe", "rr")
    v = verify(dfa, dep, VerifyConfig(strategy=strategy, timeout=60))
    assert v.verdict == "unknown"
    assert v.reason == reason


def test_failed_revalidation_is_unknown(monkeypatch):
    monkeypatch.setattr(cegar, "_revalidate", lambda *a: None)
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "unknown"
    assert v.reason == "revalidation failed"


def _verify_under_optimize(patch: str, program: str, config: str) -> str:
    """Verdict and reason of verify in a python -O child, after patch."""
    # invariant checks must not be assert statements, which -O strips
    code = ("from hyperweave import antichain, lta, proofdb\n"
            "from hyperweave.cegar import VerifyConfig, verify\n"
            "from hyperweave.frontend import load_program\n"
            f"{patch}\n"
            f"dfa, dep, _ = load_program({program!r})\n"
            f"v = verify(dfa, dep, VerifyConfig({config}))\n"
            "print(v.verdict, getattr(v, 'reason', ''))\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=child_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_non_replaying_model_is_unknown_under_optimize():
    out = _verify_under_optimize("proofdb.replay = lambda trace, model: None",
                                 UNSAFE, "timeout=60")
    assert out.split()[0] == "unknown"


FLAT_ORDER = """
real = lta.inactive_baseline
def inactive_baseline(m, deadline=None):
    inact = real(m, deadline)
    inact.order = dict.fromkeys(inact.order, 0)
    return inact
lta.inactive_baseline = inactive_baseline
"""


@pytest.mark.parametrize("patch, config, reason", [
    ("antichain.CheckEngine.rank = lambda self, cell, s: None", "timeout=60",
     "children requested for an active state"),
    (FLAT_ORDER, "use_antichain=False, timeout=60",
     "witness not proved inactive earlier"),
], ids=["antichain-forest", "baseline-tree"])
def test_broken_witness_is_unknown_under_optimize(patch, config, reason):
    assert _verify_under_optimize(patch, SIMPLEINC, config) == \
        f"unknown {reason}"


def _fake_clock(monkeypatch):
    """Run verify on a clock that the first emptiness check exhausts."""
    clock = types.SimpleNamespace(now=0.0)
    monkeypatch.setattr(cegar, "time",
                        types.SimpleNamespace(monotonic=lambda: clock.now))
    real = ac.check

    def check(*args, **kwargs):
        clock.now += 1e6
        return real(*args, **kwargs)
    monkeypatch.setattr(ac, "check", check)


def _no_new_assertion(monkeypatch):
    monkeypatch.setattr(proofdb, "interpolate",
                        lambda trace, solver, cache:
                        [exprs.TRUE] * len(trace) + [exprs.FALSE])


@pytest.mark.parametrize("patch, reason, strategy", [
    (_fake_clock, "timeout", Strategy("pe")),
    (_no_new_assertion, "stagnation: no new assertion", Strategy("pe")),
    (_no_new_assertion, "stagnation: no new assertion",
     Strategy("bpe", "rr")),
    (lambda mp: mp.setattr(ac, "extract_counterexamples", lambda *a: []),
     "no counterexample extracted", Strategy("pe")),
], ids=["timeout", "stagnation", "stagnation-bpe-rr", "invariant"])
def test_unknown_carries_the_stats_of_safe(monkeypatch, patch, reason,
                                           strategy):
    dfa, dep, _ = load_program(SIMPLEINC)
    cfg = VerifyConfig(strategy=strategy, timeout=60)
    safe = verify(dfa, dep, cfg)
    assert safe.verdict == "safe"
    patch(monkeypatch)
    v = verify(dfa, dep, cfg)
    assert (v.verdict, v.reason) == ("unknown", reason)
    assert set(v.stats) == set(safe.stats)
    assert v.stats["rounds"] == len(v.rounds)


def test_lying_loop_solver_fails_revalidation(monkeypatch):
    # the first SolverClient made (the loop's) answers unsat to every query
    made = []
    real_init = proofdb.SolverClient.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if not made:
            self.check_sat = lambda formulas: ("unsat", None)
        made.append(self)
    monkeypatch.setattr(proofdb.SolverClient, "__init__", init)
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert len(made) == 2
    assert v.verdict == "unknown"
    assert v.reason == "revalidation failed"


def test_revalidation_redecides_only_the_loop_edges(monkeypatch):
    builders, calls = [], []
    real_extend = proofdb.ProofNfaBuilder.extend
    real_verdicts = proofdb.hoare_verdicts

    def extend(self, proof):
        builders.append(self)
        return real_extend(self, proof)

    def hoare_verdicts(triples, solver, cache=None, deadline=None):
        calls.append((len(triples), solver, cache))
        return real_verdicts(triples, solver, cache, deadline)
    monkeypatch.setattr(proofdb.ProofNfaBuilder, "extend", extend)
    monkeypatch.setattr(proofdb, "hoare_verdicts", hoare_verdicts)
    dfa, dep, _ = load_program(SIMPLEINC)
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "safe"
    decided, solver, cache = calls[-1]
    loop = builders[-1]
    assert decided == len(loop.edges)
    assert cache is None and solver is not loop.solver
    assert decided < len(v.proof) ** 2 * len(dfa.alphabet)


@pytest.mark.parametrize("name", ["sequential/arrayeq_symm",
                                  "unsafe/mult_dist_unsafe"])
def test_round_times_fit_in_the_run(name):
    # construction, check, extraction and refinement are disjoint parts of
    # a round, and revalidation follows the last round, so together they
    # add up to at most the verify time
    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks", name)
    expect = json.load(open(path + ".expect"))
    dfa, dep, _ = load_program(open(path + ".imp").read(),
                               atomic=expect.get("atomic_blocks", False))
    t0 = time.monotonic()
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    wall = time.monotonic() - t0
    assert v.verdict == expect["verdict"]
    times = [(r.construction_time, r.checking_time, r.extract_time,
              r.refine_time) for r in v.rounds]
    assert all(t >= 0 for ts in times for t in ts)
    revalidate = v.stats["revalidate_time"]
    assert sum(map(sum, times)) + revalidate <= wall
    assert revalidate > 0 if v.verdict == "safe" else revalidate == 0.0
    assert any(r.extract_time > 0 and r.refine_time > 0 for r in v.rounds)
    assert {"extract_time", "refine_time"} <= set(v.rounds[0].as_dict())


def test_work_does_not_depend_on_state_numbers():
    # renumbering the program's states keeps its language; every round
    # must then find the same counterexamples and do the same check work
    from hyperweave.automata import Dfa
    from hyperweave.cli import _build_config
    path = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "sequential", "mult_dist")
    with open(path + ".expect") as fh:
        expect = json.load(fh)
    with open(path + ".imp") as fh:
        dfa, dep, _ = load_program(fh.read(), atomic=True)
    last = dfa.n - 1
    reversed_dfa = Dfa(dfa.alphabet, [[last - t for t in row]
                                      for row in reversed(dfa.delta)],
                       last - dfa.initial,
                       frozenset(last - q for q in dfa.finals))
    times = {"construction_time", "checking_time", "extract_time",
             "refine_time"}
    runs = []
    for program in (dfa, reversed_dfa):
        v = verify(program, dep, _build_config(expect))
        assert v.verdict == "safe"
        runs.append([{k: x for k, x in r.as_dict().items() if k not in times}
                     for r in v.rounds])
    assert runs[0] == runs[1]


def test_safe_repr_leaves_out_the_packed_edges():
    # the packed edges of non-atomic mult_dist_flipped have 40,656 bits,
    # more decimal digits than int.__str__ converts
    verdict = cegar.Safe([], [], {}, 1 << 40000)
    assert "edges" not in repr(verdict)
