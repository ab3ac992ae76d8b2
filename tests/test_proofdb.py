import os
import random
import time

import pytest

from hyperweave import exprs, proofdb
from hyperweave.automata import determinize
from hyperweave.cegar import VerifyConfig, verify
from hyperweave.exprs import FALSE, TRUE, atom_from_cmp, num, var
from hyperweave.frontend import load_program
from hyperweave.limits import ResourceLimit

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def cmp(op, l, r):
    return atom_from_cmp(op, l, r)


def single_trace(src, length):
    dfa, dep, _ = load_program(src)
    words = [w for w in dfa.words_upto(length) if len(w) == length]
    assert words
    return dfa, list(words[0])


def test_hoare_examples(solver):
    cache = proofdb.EntailmentCache()
    dfa, trace = single_trace("var x; assume(x = 0); x := x + 1; assume(x = 0);", 3)
    assume0, incr, _ = trace
    x0 = cmp("=", var("x"), num(0))
    x1 = cmp("=", var("x"), num(1))
    assert proofdb.hoare_verdicts([(x0, incr, x1)], solver, cache)[0]
    assert not proofdb.hoare_verdicts([(x1, incr, x1)], solver, cache)[0]
    assert proofdb.hoare_verdicts([(TRUE, assume0, x0)], solver, cache)[0]
    lt = cmp("<", var("x"), num(0))
    dfa2, trace2 = single_trace("var x; assume(x < 0);", 1)
    assert proofdb.hoare_verdicts([(TRUE, trace2[0], lt)], solver, cache)[0]


def test_hoare_cache_agrees_with_fresh_queries(solver):
    cache = proofdb.EntailmentCache()
    dfa, trace = single_trace("var x, y; x := x + y; assume(y > 0); y := 0;", 3)
    rng = random.Random(1)
    atoms = [TRUE, FALSE,
             cmp(">", var("x"), num(0)), cmp("=", var("y"), num(0)),
             cmp("<=", ("add", var("x"), var("y")), num(5))]
    triples, verdicts = [], []
    for _ in range(60):
        pre, post = rng.choice(atoms), rng.choice(atoms)
        stmt = rng.choice(trace)
        v1 = proofdb.hoare_verdicts([(pre, stmt, post)], solver, cache)[0]
        v2 = proofdb.hoare_verdicts([(pre, stmt, post)], solver, cache)[0]
        assert v1 == v2
        assert proofdb.hoare_verdicts([(pre, stmt, post)], solver,
                                      None)[0] == v1
        triples.append((pre, stmt, post))
        verdicts.append(v1)
    # one call decides them all, with at most one solver query per triple
    before = solver.num_queries
    assert proofdb.hoare_verdicts(triples, solver) == verdicts
    assert solver.num_queries - before <= len(triples)


def test_hoare_verdicts_stop_between_batches_at_the_deadline():
    _, trace = single_trace("var x, y; x := x + y; assume(y > 0); y := 0;", 3)
    bounds = [cmp("<=", var("x"), num(i)) for i in range(25)]
    triples = [(pre, trace[0], post) for pre in bounds for post in bounds]
    solver = proofdb.SolverClient()
    with pytest.raises(ResourceLimit, match="timeout"):
        proofdb.hoare_verdicts(triples, solver, deadline=time.monotonic() - 1)
    assert solver.num_queries == proofdb.SolverClient.BATCH
    verdicts = proofdb.hoare_verdicts(triples, solver)
    assert solver.num_queries > 2 * proofdb.SolverClient.BATCH
    assert verdicts == [proofdb.hoare_verdicts([t], solver, None)[0]
                        for t in triples]


def test_proof_nfa_trivial_pi(solver):
    # with only {true,false} an always-false assume is the one route to false
    dfa, dep, _ = load_program("var x; assume(x != x); x := 1;")
    proof = proofdb.Proof()
    nfa = proofdb.ProofNfaBuilder(dfa.alphabet, solver,
                                  proofdb.EntailmentCache()).extend(proof)
    contradiction = [s for s in dfa.alphabet if s.kind == "assume"][0]
    assign = [s for s in dfa.alphabet if s.kind == "assign"][0]
    ti, fi = 0, 1
    assert fi in nfa.successors(ti, contradiction)
    assert fi not in nfa.successors(ti, assign)
    # false self-loops on every statement, true self-loops on every statement
    for s in dfa.alphabet:
        assert fi in nfa.successors(fi, s)
        assert ti in nfa.successors(ti, s)


def test_proof_nfa_true_never_final(solver):
    dfa, dep, _ = load_program("var x; x := 1;")
    builder = proofdb.ProofNfaBuilder(dfa.alphabet, solver,
                                      proofdb.EntailmentCache())
    nfa = builder.extend(proofdb.Proof())
    assert nfa.finals == {1}
    assert 0 not in nfa.finals


def test_edges_pack_and_unpack():
    dfa, _, _ = load_program("var x, y; x := 1; y := x; assume(x = y);")
    rng = random.Random(7)
    n, ids = 5, [s.id for s in dfa.alphabet]
    every = [(i, sid, j) for i in range(n) for sid in ids for j in range(n)]
    for size in (0, 1, len(every) // 2, len(every)):
        edges = rng.sample(every, size)
        bits = proofdb.pack_edges(edges, dfa.alphabet, n)
        assert bits.bit_length() <= len(every)
        assert sorted(proofdb.unpack_edges(bits, dfa.alphabet, n)) == \
            sorted(edges)


def test_proof_language_monotone(solver):
    dfa, dep, _ = load_program(
        "var x; assume(x = 0); x := x + 1; assume(x = 0);")
    cache = proofdb.EntailmentCache()
    trace = [w for w in dfa.words_upto(3) if len(w) == 3][0]
    chain = proofdb.interpolate(list(trace), solver, engine="wp", cache=cache)
    small = proofdb.Proof()
    big = proofdb.Proof(chain[1:-1])
    nfa_small = proofdb.ProofNfaBuilder(dfa.alphabet, solver,
                                        cache).extend(small)
    nfa_big = proofdb.ProofNfaBuilder(dfa.alphabet, solver, cache).extend(big)
    d_small = determinize(nfa_small, dfa.alphabet)
    d_big = determinize(nfa_big, dfa.alphabet)
    for w in dfa.words_upto(3):
        if d_small.accepts(w):
            assert d_big.accepts(w)
    assert d_big.accepts(trace)


def test_feasible_and_model(solver):
    dfa, trace = single_trace("var x; x := 0; assume(x = 0);", 2)
    model = proofdb.feasible(trace, solver)
    assert model is not None
    assert proofdb.replay(trace, model) is not None
    dfa2, trace2 = single_trace("var x; assume(x > 0); assume(x < 0);", 2)
    assert proofdb.feasible(trace2, solver) is None


def test_interpolate_wp_spec_examples(solver):
    cache = proofdb.EntailmentCache()
    _, trace = single_trace("var x; assume(x = 0); x := x + 1; assume(x = 0);", 3)
    chain = proofdb.interpolate(trace, solver, engine="wp", cache=cache)
    assert chain[0] == TRUE and chain[-1] == FALSE
    assert chain[1] == cmp("!=", var("x"), num(-1))
    assert chain[2] == cmp("!=", var("x"), num(0))

    _, t1 = single_trace("var x; assume(x != x);", 1)
    assert proofdb.interpolate(t1, solver, engine="wp", cache=cache) == [TRUE, FALSE]

    _, t2 = single_trace("var x; assume(x > 0); assume(x < 0);", 2)
    chain2 = proofdb.interpolate(t2, solver, engine="wp", cache=cache)
    # middle assertion is x >= 0 or anything triple-valid
    assert len(chain2) == 3
    for i in range(2):
        assert proofdb.hoare_verdicts([(chain2[i], t2[i], chain2[i + 1])],
                                      solver, cache)[0]


def test_interpolate_farkas_chain_valid(solver):
    cache = proofdb.EntailmentCache()
    src = """
    var x, y;
    assume(x = y);
    x := x + 2;
    y := y + 2;
    assume(x != y);
    """
    dfa, dep, _ = load_program(src)
    trace = [w for w in dfa.words_upto(4) if len(w) == 4][0]
    chain = proofdb.interpolate(list(trace), solver, engine="farkas", cache=cache)
    assert chain[0] == TRUE and chain[-1] == FALSE
    for i in range(len(trace)):
        assert proofdb.hoare_verdicts([(chain[i], trace[i], chain[i + 1])],
                                      solver, cache)[0]


def test_interpolate_on_feasible_trace_raises(solver):
    _, trace = single_trace("var x; x := 1; assume(x = 1);", 2)
    with pytest.raises(proofdb.InterpolationError):
        proofdb.interpolate(trace, solver, engine="wp")


def test_batch_matches_single(solver):
    rng = random.Random(9)
    queries = []
    singles = []
    for _ in range(40):
        k = rng.randint(-3, 3)
        f = [cmp("<=", var("x"), num(k)), cmp(">=", var("x"), num(rng.randint(-3, 3)))]
        queries.append(f)
        singles.append(solver.check_sat(f)[0])
    assert solver.check_sat_batch(queries) == singles


def test_in_process_faults_raise_solver_error(solver):
    x = var("x")
    too_many_ne = [cmp("!=", x, num(k)) for k in range(proofdb.lia.MAX_NE_SPLIT + 1)]
    with pytest.raises(proofdb.SolverError, match="unknown"):
        solver.check_sat(too_many_ne)
    with pytest.raises(proofdb.SolverError):
        solver.check_sat_batch([[("bogus",)]])
    # the client stays usable after a fault
    assert solver.check_sat([cmp("=", x, num(1))])[0] == "sat"


def test_cache_counts_hits_and_misses():
    cache = proofdb.EntailmentCache()
    assert cache.get("k") is None
    cache.put("k", True)
    assert cache.get("k") is True
    assert (cache.hits, cache.misses) == (1, 1)


def _safe_run(name, atomic):
    dfa, dep, _ = load_program(
        open(os.path.join(BENCH_DIR, name + ".imp")).read(), atomic=atomic)
    v = verify(dfa, dep, VerifyConfig(timeout=120))
    assert v.verdict == "safe"
    return dfa, v


@pytest.mark.parametrize("name, atomic", [("parallel/simpleinc", False),
                                          ("sequential/mult_dist", True)])
def test_frame_triples_are_decided_by_implication(name, atomic):
    # {f} s {f} with s writing no variable of f needs no rule of its own:
    # wp(s, f) is f, or f inside a disjunction with negated guards
    dfa, v = _safe_run(name, atomic)
    framed = [(f, s) for f in v.proof for s in dfa.alphabet
              if not s.writes & exprs.vars_of(f)]
    assert len(framed) > len(dfa.alphabet)
    for f, s in framed:
        wp = proofdb.wp_stmt(s, f)
        assert proofdb.syntactic_verdict(f, s, f, wp) is True, (f, s)


@pytest.mark.parametrize("engine", ["farkas", "wp"])
def test_interpolate_validates_a_chain_in_one_batch(monkeypatch, engine):
    chains, batches = [], []
    real_ok = proofdb._chain_ok
    real_batch = proofdb.SolverClient.check_sat_batch

    def chain_ok(chain, *args):
        chains.append(chain)
        return real_ok(chain, *args)

    def check_sat_batch(self, queries, deadline=None):
        batches.append(len(queries))
        return real_batch(self, queries, deadline)
    dfa, v = _safe_run("sequential/mult_dist", True)
    monkeypatch.setattr(proofdb, "_chain_ok", chain_ok)
    monkeypatch.setattr(proofdb.SolverClient, "check_sat_batch",
                        check_sat_batch)
    traces = [[dfa.alphabet[a] for a in w]
              for r in v.rounds for w in r.counterexamples]
    assert traces
    with proofdb.SolverClient() as solver:
        for trace in traces:
            chains.clear()
            batches.clear()
            proofdb.interpolate(trace, solver, engine=engine)
            assert len(batches) == len(chains) >= 1
            assert max(batches) <= len(trace)
