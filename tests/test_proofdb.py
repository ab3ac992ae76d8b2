import random

import pytest

from hyperweave import exprs, proofdb
from hyperweave.automata import determinize
from hyperweave.exprs import FALSE, TRUE, atom_from_cmp, num, var
from hyperweave.frontend import load_program


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
    assert proofdb.hoare_valid(x0, incr, x1, solver, cache)
    assert not proofdb.hoare_valid(x1, incr, x1, solver, cache)
    assert proofdb.hoare_valid(TRUE, assume0, x0, solver, cache)
    lt = cmp("<", var("x"), num(0))
    dfa2, trace2 = single_trace("var x; assume(x < 0);", 1)
    assert proofdb.hoare_valid(TRUE, trace2[0], lt, solver, cache)


def test_hoare_cache_agrees_with_fresh_queries(solver):
    cache = proofdb.EntailmentCache()
    dfa, trace = single_trace("var x, y; x := x + y; assume(y > 0); y := 0;", 3)
    rng = random.Random(1)
    atoms = [TRUE, FALSE,
             cmp(">", var("x"), num(0)), cmp("=", var("y"), num(0)),
             cmp("<=", ("add", var("x"), var("y")), num(5))]
    for _ in range(60):
        pre, post = rng.choice(atoms), rng.choice(atoms)
        stmt = rng.choice(trace)
        v1 = proofdb.hoare_valid(pre, stmt, post, solver, cache)
        v2 = proofdb.hoare_valid(pre, stmt, post, solver, cache)
        assert v1 == v2
        assert proofdb.hoare_valid(pre, stmt, post, solver, None) == v1


def test_proof_nfa_trivial_pi(solver):
    # with only {true,false} an always-false assume is the one route to false
    dfa, dep, _ = load_program("var x; assume(x != x); x := 1;")
    proof = proofdb.Proof()
    nfa = proofdb.build_proof_nfa(proof, dfa.alphabet, solver)
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
    nfa = proofdb.build_proof_nfa(proofdb.Proof(), dfa.alphabet, solver)
    assert nfa.finals == {1}
    assert 0 not in nfa.finals


def test_proof_language_monotone(solver):
    dfa, dep, _ = load_program(
        "var x; assume(x = 0); x := x + 1; assume(x = 0);")
    cache = proofdb.EntailmentCache()
    trace = [w for w in dfa.words_upto(3) if len(w) == 3][0]
    chain = proofdb.interpolate(list(trace), solver, engine="wp", cache=cache)
    small = proofdb.Proof()
    big = proofdb.Proof(chain[1:-1])
    nfa_small = proofdb.build_proof_nfa(small, dfa.alphabet, solver, cache)
    nfa_big = proofdb.build_proof_nfa(big, dfa.alphabet, solver, cache)
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
        assert proofdb.hoare_valid(chain2[i], t2[i], chain2[i + 1], solver, cache)


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
        assert proofdb.hoare_valid(chain[i], trace[i], chain[i + 1], solver, cache)


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
