"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines and measurements.
"""

import itertools
import os
import random
import time

import pytest

from hyperweave import proofdb
from hyperweave.antichain import Strategy, check, extract_counterexamples
from hyperweave.automata import LazyDfa, determinize
from hyperweave.cegar import VerifyConfig, progress_audit, verify
from hyperweave.cli import run_benchmark
from hyperweave.frontend import load_program
from hyperweave.lta import inactive_baseline, lta_intersect, lta_powerset
from hyperweave.reduction import (LINEAR, PARTITION, ReductionTooLarge,
                                  sleep_reduction_lta)
from tests.conftest import (random_closed_language, random_dep, random_dfa,
                            random_nfa)
from tests.oracles import (accepts, cache_items, classes_of, closure,
                           enumerate_reductions_bruteforce, from_words,
                           is_empty, lta_accepts_language)

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")

MULT = open(os.path.join(BENCH_DIR, "sequential", "mult_dist.imp")).read()
MULT_BAD = open(os.path.join(BENCH_DIR, "unsafe", "mult_dist_unsafe.imp")).read()
STRESS = open(os.path.join(BENCH_DIR, "stress", "exp1x3.imp")).read()


def _report(num, text):
    print(f"\ncriterion {num}: PASS - {text}")


def test_criterion_1_antichain_baseline_equivalence():
    rng = random.Random(2026)
    t0 = time.monotonic()
    agree = 0
    for _ in range(300):
        # the engine reads the proof NFA lazily, the baseline eagerly
        k = rng.randint(1, 3)
        alphabet = tuple(range(k))
        ap = random_dfa(rng, 6, k)
        nfa = random_nfa(rng, rng.randint(1, 4), alphabet)
        dep = random_dep(rng, k)
        res = check(ap, LazyDfa(nfa, alphabet), dep, LINEAR)
        m = lta_intersect(sleep_reduction_lta(ap, dep, LINEAR),
                          lta_powerset(determinize(nfa, alphabet)))
        assert res.covered == (not is_empty(m))
        agree += 1
    took = time.monotonic() - t0
    assert agree == 300 and took < 60
    _report(1, f"300/300 verdicts agree with the explicit-LTA baseline "
               f"({took:.1f}s)")


def _closed_language_pool(count=100):
    rng = random.Random(424242)
    pool = []
    while len(pool) < count:
        k = rng.randint(2, 4)
        dep = random_dep(rng, k, p=0.75 if k == 4 else 0.5)
        lang = random_closed_language(rng, k, 5 if k < 4 else 4, dep,
                                      max_words=4 if k < 4 else 3)
        if any(len(w) > 5 for w in lang) or len(lang) > 30:
            continue
        try:
            reds = enumerate_reductions_bruteforce(
                lang, dep, k, max_langs=400, max_nodes=600)
        except ReductionTooLarge:
            continue
        pool.append((k, dep, lang, reds))
    return pool


POOL = _closed_language_pool()


def test_criterion_2_sleep_set_laws():
    t0 = time.monotonic()
    violations = 0
    membership_checked = 0
    for k, dep, lang, reds in POOL:
        alphabet = tuple(range(k))
        classes = classes_of(lang, dep)
        for red in reds:
            if closure(red, dep) != lang:
                violations += 1
            for cls in classes_of(red, dep):
                if len(cls) != 1:
                    violations += 1
        m = sleep_reduction_lta(from_words(lang, alphabet), dep, LINEAR)
        for red in reds:
            if not lta_accepts_language(m, red, alphabet):
                violations += 1
        # the accepted set equals the brute-forced set: every one-per-class
        # pick is accepted iff brute-forced (reductions are exactly such picks)
        npicks = 1
        for c in classes:
            npicks *= len(c)
        if 0 < npicks <= 64:
            for pick in itertools.product(*[sorted(c) for c in classes]):
                cand = frozenset(pick)
                membership_checked += 1
                if lta_accepts_language(m, cand, alphabet) != (cand in reds):
                    violations += 1
        if len(classes) > 1 or any(len(c) > 1 for c in classes):
            if lang and lta_accepts_language(m, frozenset(), alphabet):
                violations += 1
    took = time.monotonic() - t0
    assert violations == 0 and took < 120
    _report(2, f"{len(POOL)} closed languages, zero violations of the "
               f"reduction laws; {membership_checked} membership "
               f"comparisons ({took:.1f}s)")


def test_criterion_3_counterexample_adequacy():
    rng = random.Random(77)
    t0 = time.monotonic()
    instances = 0
    misses = 0
    for k, dep, lang, reds in POOL:
        alphabet = tuple(range(k))
        ap = from_words(lang, alphabet)
        api = random_dfa(rng, 4, k)
        res = check(ap, api, dep, LINEAR)
        if res.covered:
            continue
        instances += 1
        cexs = extract_counterexamples(res.forest, alphabet, Strategy("pe"),
                                       cap=100000)
        cex_set = {tuple(w) for w in cexs}
        assert len(cex_set) < 100000  # finite and materialized
        for red in reds:
            if not any(w in red and not accepts(api, w) for w in cex_set):
                misses += 1
    took = time.monotonic() - t0
    assert instances > 20, "pool produced too few NotCovered instances"
    assert misses == 0
    _report(3, f"{instances} NotCovered instances, PE set hits every "
               f"brute-forced reduction, zero misses ({took:.1f}s)")


@pytest.mark.parametrize("mode,n", [("rr", 1), ("m", 1)])
def test_criterion_4_mult_distributivity_safe(mode, n):
    dfa, dep, _ = load_program(MULT, atomic=True)
    t0 = time.monotonic()
    v = verify(dfa, dep, VerifyConfig(strategy=Strategy("bpe", mode, n),
                                      timeout=120))
    took = time.monotonic() - t0
    assert v.verdict == "safe", getattr(v, "reason", "")
    assert took < 120
    # verify() only reports safe after the independent revalidation pass
    _report(4, f"bpe-{mode}{n if mode != 'rr' else ''}: safe in "
               f"{len(v.rounds)} rounds, proof size "
               f"{v.stats['proof_size']}, {took:.1f}s (revalidated)")


def test_criterion_5_mutated_mult_unsafe():
    dfa, dep, _ = load_program(MULT_BAD, atomic=True)
    t0 = time.monotonic()
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    took = time.monotonic() - t0
    assert v.verdict == "unsafe" and took < 60
    final = proofdb.replay(v.trace, v.model)
    assert final is not None, "countermodel must replay concretely"
    _report(5, f"unsafe with replayable model {v.model} ({took:.1f}s)")


def test_criterion_6_antichain_speedup():
    dfa, dep, _ = load_program(STRESS)
    v = verify(dfa, dep, VerifyConfig(timeout=120))
    assert v.verdict == "safe"
    with proofdb.SolverClient() as solver:
        builder = proofdb.ProofNfaBuilder(dfa.alphabet, solver,
                                          proofdb.EntailmentCache())
        nfa = builder.extend(proofdb.Proof(v.proof))
    # the engine builds the proof DFA lazily, inside its timing
    assert check(dfa, LazyDfa(nfa, dfa.alphabet), dep, PARTITION).covered
    best_ac = min(_timed(lambda: check(dfa, LazyDfa(nfa, dfa.alphabet), dep,
                                       PARTITION))
                  for _ in range(3))
    api = determinize(nfa, dfa.alphabet)
    t0 = time.monotonic()
    m = lta_intersect(sleep_reduction_lta(dfa, dep, PARTITION),
                      lta_powerset(api))
    covered_base = m.initial not in inactive_baseline(m).inactive
    t_base = time.monotonic() - t0
    assert covered_base
    ratio = t_base / max(best_ac, 1e-6)
    assert ratio >= 1.5, f"speedup only {ratio:.2f}x"
    _report(6, f"final-round check: antichain {best_ac * 1000:.1f}ms vs "
               f"baseline {t_base * 1000:.0f}ms ({ratio:.0f}x)")


def _timed(f):
    t0 = time.monotonic()
    f()
    return time.monotonic() - t0


def test_criterion_7_weak_progress_across_harness():
    ran = 0
    for root, _, files in os.walk(BENCH_DIR):
        for name in sorted(files):
            if not name.endswith(".imp"):
                continue
            row, verdict = run_benchmark(os.path.join(root, name))
            assert row["ok"], f"{name}: got {row['verdict']}"
            assert progress_audit(verdict.rounds), f"{name}: progress violated"
            ran += 1
    assert ran >= 10
    _report(7, f"progress audit clean on all {ran} harness runs")


def test_criterion_8_proof_nfa_integrity():
    dfa, dep, _ = load_program(MULT, atomic=True)
    cache = proofdb.EntailmentCache()
    with proofdb.SolverClient() as solver:
        v = verify(dfa, dep, VerifyConfig(timeout=120))
        assert v.verdict == "safe"
        builder = proofdb.ProofNfaBuilder(dfa.alphabet, solver, cache)
        builder.extend(proofdb.Proof(v.proof))
    stmts = {s.id: s for s in dfa.alphabet}
    triples = cache_items(cache)
    rng = random.Random(8)
    sample = rng.sample(triples, min(100, len(triples)))
    agree = 0
    with proofdb.SolverClient() as fresh:
        for (pre, sid, post), cached in sample:
            got = proofdb.hoare_verdicts([(pre, stmts[sid], post)], fresh,
                                         None)[0]
            assert got == cached
            agree += 1
    _report(8, f"{agree}/{len(sample)} cached triples re-confirmed by a "
               f"fresh solver process")
