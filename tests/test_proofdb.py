import os
import random
import time

import pytest

from hyperweave import exprs, limits, proofdb
from hyperweave.automata import determinize
from hyperweave.cegar import VerifyConfig, verify
from hyperweave.exprs import FALSE, TRUE, atom_from_cmp, var
from hyperweave.frontend import load_program
from hyperweave.limits import ResourceLimit
from tests.conftest import random_program
from tests.oracles import (accepts, cache_items, num, successors,
                           words_upto)

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def cmp(op, l, r):
    return atom_from_cmp(op, l, r)


@pytest.fixture
def wp_only(monkeypatch):
    """interpolate without a Farkas chain: it takes the wp fallback."""
    monkeypatch.setattr(proofdb, "_interpolate_farkas", lambda trace: None)


def single_trace(src, length):
    dfa, dep, _ = load_program(src)
    words = [w for w in words_upto(dfa, length) if len(w) == length]
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


def test_hoare_verdicts_stop_between_batches_at_the_deadline(monkeypatch):
    # the clock is read before the first triple and then every 1024 triples
    _, trace = single_trace("var x, y; x := x + y; assume(y > 0); y := 0;", 3)
    bounds = [cmp("<=", var("x"), num(i)) for i in range(25)]
    triples = [(pre, trace[0], post) for pre in bounds for post in bounds] * 4
    solver, cache = proofdb.SolverClient(), proofdb.EntailmentCache()
    with pytest.raises(ResourceLimit, match="timeout"):
        proofdb.hoare_verdicts(triples, solver, cache, time.monotonic() - 1)
    assert (solver.num_queries, solver.pool_hits, len(cache)) == (0, 0, 0)
    # a deadline that passes after the first read stops the call at 1024
    clock = iter([0.0, 2.0])
    monkeypatch.setattr(limits.time, "monotonic", lambda: next(clock))
    with pytest.raises(ResourceLimit, match="timeout"):
        proofdb.hoare_verdicts(triples, solver, cache, deadline=1.0)
    assert cache.hits + cache.misses == 1024
    monkeypatch.undo()
    verdicts = proofdb.hoare_verdicts(triples, solver)
    assert verdicts == [proofdb.hoare_verdicts([t], solver, None)[0]
                        for t in triples[:625]] * 4


def _random_formula(rng, names, depth=2):
    if depth == 0 or rng.random() < 0.4:
        lhs = ("add", ("mul", num(rng.randint(-2, 2)), var(rng.choice(names))),
               var(rng.choice(names)))
        return cmp(rng.choice(["<", "<=", "=", "!=", ">", ">="]), lhs,
                   num(rng.randint(-3, 3)))
    parts = [_random_formula(rng, names, depth - 1)
             for _ in range(rng.randint(2, 3))]
    return (exprs.c_and if rng.random() < 0.5 else exprs.c_or)(parts)


def test_a_warm_pool_gives_the_verdicts_of_fresh_solvers():
    _, trace = single_trace(
        "var x, y, z; x := x + y; assume(y > z); y := 2 * z - x; z := 0;", 4)
    rng = random.Random(3)
    formulas = [_random_formula(rng, ["x", "y", "z"]) for _ in range(40)]
    warm = proofdb.SolverClient()
    for _ in range(6):
        triples = [(rng.choice(formulas), rng.choice(trace),
                    rng.choice(formulas)) for _ in range(50)]
        fresh = [proofdb.hoare_verdicts([t], proofdb.SolverClient())[0]
                 for t in triples]
        assert proofdb.hoare_verdicts(triples, warm) == fresh
    assert warm.pool_hits > warm.num_queries > 0


def _planted(*models):
    """A new client whose pool holds models."""
    solver = proofdb.SolverClient()
    solver.pool[:] = models
    return solver


def test_the_pool_answers_only_queries_its_models_satisfy():
    # a model refutes {pre} s {post} only when pre holds in it, s runs from
    # it and post fails after s
    _, [guard, step] = single_trace("var x, y; assume(y > 0); x := x + y;", 2)
    x, y = var("x"), var("y")
    # invalid, but pre holds in no planted model: lia decides it
    solver = _planted({"x": 0, "y": 7}, {"y": 1})
    assert proofdb.hoare_verdicts(
        [(cmp(">", x, num(0)), step, cmp("<=", x, num(0)))], solver) == [False]
    assert (solver.num_queries, solver.pool_hits) == (1, 0)
    # an absent variable reads as 0: x + y is 1 after the step
    solver = _planted({"y": 1})
    assert proofdb.hoare_verdicts(
        [(cmp("=", x, num(0)), step, cmp("!=", x, num(1)))], solver) == [False]
    assert (solver.num_queries, solver.pool_hits) == (0, 1)
    # post fails in y = 0, but the assume blocks the run from it
    solver = _planted({"x": 0, "y": 0})
    assert proofdb.hoare_verdicts(
        [(cmp("=", x, num(0)), guard, cmp(">", y, num(5)))], solver) == [False]
    assert (solver.num_queries, solver.pool_hits) == (1, 0)
    # valid triples never meet a refuting model
    solver = _planted({"x": 0, "y": 1})
    pre = exprs.c_and([cmp("=", x, num(0)), cmp("=", y, num(1))])
    assert proofdb.hoare_verdicts([(pre, step, cmp("=", x, num(1)))],
                                  solver) == [True]
    assert (solver.num_queries, solver.pool_hits) == (1, 0)


def test_a_model_found_in_a_batch_serves_the_rest_of_it():
    _, [step] = single_trace("var x, y; y := 1;", 1)
    x5, x_ge5 = cmp("=", var("x"), num(5)), cmp(">=", var("x"), num(5))
    x_ne5, x_lt5 = cmp("!=", var("x"), num(5)), cmp("<", var("x"), num(5))
    solver = proofdb.SolverClient()
    triples = [(x5, step, x_ne5), (x_ge5, step, x_ne5), (x_ge5, step, x_lt5)]
    assert proofdb.hoare_verdicts(triples, solver) == [False] * 3
    assert (solver.num_queries, solver.pool_hits) == (1, 2)
    assert solver.pool == [{"x": 5}]


def test_a_model_solved_inside_a_run_refutes_the_rest_of_it():
    # consecutive triples share (stmt, post); each solve grows the pool in
    # the middle of the run, and its model must refute the later triples
    # that only it refutes, as it does when each triple has its own call
    _, [step] = single_trace("var x, y; y := 1;", 1)
    x, y = var("x"), var("y")
    post = cmp("!=", x, num(5))
    x5_y3 = [cmp("=", x, num(5)), cmp("=", y, num(3))]
    triples = [(pre, step, post) for pre in (
        cmp(">=", x, num(5)),              # lia: x = 5
        cmp("<=", x, num(5)),              # refuted by x = 5
        exprs.c_and(x5_y3),                # y = 0 in x = 5: lia, y = 3
        exprs.c_and([x5_y3[0], cmp(">=", y, num(3))]))]  # refuted by y = 3
    triples.append((cmp("<=", x, num(5)), step, cmp("!=", x, num(6))))
    solver = proofdb.SolverClient()
    assert proofdb.hoare_verdicts(triples, solver) == [False] * 4 + [True]
    assert (solver.num_queries, solver.pool_hits) == (2, 2)
    alone, cache = proofdb.SolverClient(), proofdb.EntailmentCache()
    assert [proofdb.hoare_verdicts([t], alone, cache)[0]
            for t in triples] == [False] * 4 + [True]
    assert (alone.num_queries, alone.pool_hits) == (2, 2)
    # random runs: one call does the work of one call per triple
    _, trace = single_trace(
        "var x, y, z; x := x + y; assume(y > z); y := 2 * z - x; z := 0;", 4)
    rng = random.Random(5)
    formulas = [_random_formula(rng, ["x", "y", "z"]) for _ in range(12)]
    for _ in range(4):
        triples = [(pre, s, post) for s in rng.sample(trace, 2)
                   for post in rng.sample(formulas, 4)
                   for pre in rng.sample(formulas, 6)]
        one, alone = proofdb.SolverClient(), proofdb.SolverClient()
        cache = proofdb.EntailmentCache()
        assert proofdb.hoare_verdicts(triples, one) == [
            proofdb.hoare_verdicts([t], alone, cache)[0] for t in triples]
        assert (one.num_queries, one.pool_hits) == (alone.num_queries,
                                                    alone.pool_hits)
        assert one.num_queries > 0 and one.pool_hits > 0


def test_an_equal_pre_object_hits_the_cached_verdict():
    # the cache numbers formulas by value, not by object
    _, [step] = single_trace("var x, y; x := x + y;", 1)

    def pre():                     # a new object each call
        return exprs.c_and([cmp("=", var("x"), num(0)),
                            cmp("=", var("y"), num(1))])
    post = cmp("=", var("x"), num(1))
    solver, cache = proofdb.SolverClient(), proofdb.EntailmentCache()
    first, again = pre(), pre()
    assert first == again and first is not again
    assert proofdb.hoare_verdicts([(first, step, post)], solver,
                                  cache) == [True]
    assert (solver.num_queries, cache.hits, len(cache)) == (1, 0, 1)
    assert proofdb.hoare_verdicts([(again, step, post)], solver,
                                  cache) == [True]
    assert (solver.num_queries, cache.hits, len(cache)) == (1, 1, 1)
    assert cache_items(cache) == [((first, step.id, post), True)]


def test_the_pool_keeps_every_model():
    _, [step] = single_trace("var x, y; y := 1;", 1)
    x = var("x")

    def at(i):
        return cmp("=", x, num(i))

    def off(i):                    # {x = i} y := 1 {x != i}: x = i refutes
        return cmp("!=", x, num(i))
    solver = proofdb.SolverClient()
    assert proofdb.hoare_verdicts([(at(i), step, off(i)) for i in range(100)],
                                  solver) == [False] * 100
    # x = 0, the first of 101 models, still refutes the triples only it
    # refutes
    triples = [(at(100), step, off(100)), (at(0), step, off(0)),
               (cmp("<=", x, num(0)), step, cmp(">", x, num(0)))]
    assert proofdb.hoare_verdicts(triples, solver) == [False] * 3
    assert (solver.num_queries, solver.pool_hits) == (101, 2)
    assert solver.pool == [{"x": i} for i in range(101)]
    [runs] = solver._runs.values()
    assert len(runs.models) == len(solver.pool)


def test_a_memoized_run_mask_is_extended_over_new_models():
    _, [step] = single_trace("var x, y; y := 1;", 1)
    x = var("x")
    x_ne0 = cmp("!=", x, num(0))
    solver = _planted({"x": 1})
    # the run from x = 1 ends satisfying x != 0: nothing refutes, and the
    # triple is valid
    assert proofdb.hoare_verdicts([(cmp(">=", x, num(1)), step, x_ne0)],
                                  solver) == [True]
    runs = solver._runs[step.ops]
    assert runs.memo[x_ne0] == (0b1, 1)
    queries = solver.num_queries
    # lia's model x = 0 joins the pool; the memoized mask of x != 0 over
    # the runs is extended to it, and it refutes a triple of the same pair
    assert solver.check_sat([cmp("=", x, num(0))]) == ("sat", {"x": 0})
    assert proofdb.hoare_verdicts([(cmp("=", x, num(0)), step, x_ne0)],
                                  solver) == [False]
    assert runs.memo[x_ne0] == (0b01, 2)
    assert (solver.num_queries, solver.pool_hits) == (queries + 1, 1)


def test_statements_with_one_id_and_other_ops_get_their_own_verdicts():
    # a client may serve several programs: it keys runs by ops, not by id
    _, [inc] = single_trace("var x; x := x + 1;", 1)
    _, [dec] = single_trace("var x; x := x - 1;", 1)
    assert inc.id == dec.id and inc.ops != dec.ops
    x0, x1, x_1 = (cmp("=", var("x"), num(k)) for k in (0, 1, -1))
    solver = _planted({"x": 0})
    triples = [(x0, inc, x1), (x0, dec, x_1), (x0, inc, x_1), (x0, dec, x1)]
    assert [proofdb.hoare_verdicts([t], solver)[0] for t in triples] \
        == [True, True, False, False]
    assert (solver.num_queries, solver.pool_hits) == (0, 2)


def test_pool_refutation_is_exact():
    # a model refutes {pre} s {post} iff it satisfies pre and not
    # wp(s, post), absent variables reading 0; models join the pool planted
    # and from lia, between triples whose masks are memoized
    rng = random.Random(11)
    names = ("x", "y", "z", "w")
    stmts = []
    for _ in range(12):
        src = random_program(rng, 2, names)
        for atomic in (False, True):
            stmts.extend(load_program(src, atomic=atomic)[0].alphabet)
    assert any(len(s.ops) > 1 for s in stmts)
    assert any(op[0] == "assume" for s in stmts for op in s.ops)
    formulas = [_random_formula(rng, list(names)) for _ in range(30)]
    solver = proofdb.SolverClient()
    hits = 0
    for _ in range(600):
        if rng.random() < 0.2:
            solver.pool.append({v: rng.randint(-4, 4) for v in names
                                if rng.random() < 0.7})
        if rng.random() < 0.1:
            solver.check_sat([rng.choice(formulas)])
        pre, s, post = rng.choice(formulas), rng.choice(stmts), rng.choice(formulas)
        bad = exprs.c_and([pre, exprs.negate(proofdb.wp_stmt(s, post))])
        want = any(exprs.eval_formula(bad, {v: m.get(v, 0) for v in names})
                   for m in solver.pool)
        pool, before = list(solver.pool), solver.pool_hits
        verdict, = proofdb.hoare_verdicts([(pre, s, post)], solver)
        # a pool hit, and only a pool hit, refutes with no solve
        assert (solver.pool_hits > before) == want, (pre, s, post, pool)
        if want:
            assert not verdict and solver.pool == pool
        hits += want
    assert solver.pool_hits == hits > 50
    assert solver.num_queries > 20


def test_revalidation_starts_with_an_empty_pool(monkeypatch):
    pools = []
    real = proofdb.hoare_verdicts

    def hoare_verdicts(triples, solver, cache=None, deadline=None):
        pools.append((cache, len(solver.pool)))
        return real(triples, solver, cache, deadline)
    monkeypatch.setattr(proofdb, "hoare_verdicts", hoare_verdicts)
    dfa, dep, _ = load_program(open(os.path.join(
        BENCH_DIR, "parallel", "simpleinc.imp")).read())
    v = verify(dfa, dep, VerifyConfig(timeout=60))
    assert v.verdict == "safe" and v.stats["pool_hits"] > 0
    *loop, (cache, size) = pools
    assert cache is None and size == 0
    assert any(n > 0 for _, n in loop)


def test_proof_shares_equal_subterms_and_packs_them_once():
    def atom():                    # a new object each call
        return cmp("<=", ("add", var("x"), num(1)), var("y"))
    f = exprs.c_and([atom(), cmp("=", var("y"), num(2))])
    g = exprs.c_or([atom(), cmp("=", var("x"), num(3))])
    assert atom() is not atom()
    proof = proofdb.Proof([f, g])
    assert proof.assertions[2:] == [f, g]
    [shared] = [a for a in proof.assertions[2][1] if a == atom()]
    assert [a for a in proof.assertions[3][1] if a == atom()][0] is shared
    # ("x", 1) is in both atoms of g, once
    x_pairs = [p for a in proof.assertions[3][1] for p in a[1] if p == ("x", 1)]
    assert len(x_pairs) == 2 and x_pairs[0] is x_pairs[1]
    packed = proofdb.pack_proof(proof)
    assert proofdb.unpack_proof(packed) == proof.assertions
    assert len(packed) < len(proofdb.pack_proof([exprs.TRUE, exprs.FALSE, f, g]))


def test_proof_nfa_trivial_pi(solver):
    # with only {true,false} an always-false assume is the one route to false
    dfa, dep, _ = load_program("var x; assume(x != x); x := 1;")
    proof = proofdb.Proof()
    nfa = proofdb.ProofNfaBuilder(dfa.alphabet, solver,
                                  proofdb.EntailmentCache()).extend(proof)
    contradiction = [s for s in dfa.alphabet if s.kind == "assume"][0]
    assign = [s for s in dfa.alphabet if s.kind == "assign"][0]
    ti, fi = 0, 1
    assert fi in successors(nfa, ti, contradiction)
    assert fi not in successors(nfa, ti, assign)
    # false self-loops on every statement, true self-loops on every statement
    for s in dfa.alphabet:
        assert fi in successors(nfa, fi, s)
        assert ti in successors(nfa, ti, s)


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


def test_proof_language_monotone(solver, wp_only):
    dfa, dep, _ = load_program(
        "var x; assume(x = 0); x := x + 1; assume(x = 0);")
    cache = proofdb.EntailmentCache()
    trace = [w for w in words_upto(dfa, 3) if len(w) == 3][0]
    chain = proofdb.interpolate(list(trace), solver, cache=cache)
    small = proofdb.Proof()
    big = proofdb.Proof(chain[1:-1])
    nfa_small = proofdb.ProofNfaBuilder(dfa.alphabet, solver,
                                        cache).extend(small)
    nfa_big = proofdb.ProofNfaBuilder(dfa.alphabet, solver, cache).extend(big)
    d_small = determinize(nfa_small, dfa.alphabet)
    d_big = determinize(nfa_big, dfa.alphabet)
    for w in words_upto(dfa, 3):
        if accepts(d_small, w):
            assert accepts(d_big, w)
    assert accepts(d_big, trace)


def test_feasible_and_model(solver):
    dfa, trace = single_trace("var x; x := 0; assume(x = 0);", 2)
    model = proofdb.feasible(trace, solver)
    assert model is not None
    assert proofdb.replay(trace, model) is not None
    dfa2, trace2 = single_trace("var x; assume(x > 0); assume(x < 0);", 2)
    assert proofdb.feasible(trace2, solver) is None


def test_interpolate_wp_spec_examples(solver, wp_only):
    cache = proofdb.EntailmentCache()
    _, trace = single_trace("var x; assume(x = 0); x := x + 1; assume(x = 0);", 3)
    chain = proofdb.interpolate(trace, solver, cache=cache)
    assert chain[0] == TRUE and chain[-1] == FALSE
    assert chain[1] == cmp("!=", var("x"), num(-1))
    assert chain[2] == cmp("!=", var("x"), num(0))

    _, t1 = single_trace("var x; assume(x != x);", 1)
    assert proofdb.interpolate(t1, solver, cache=cache) == [TRUE, FALSE]

    _, t2 = single_trace("var x; assume(x > 0); assume(x < 0);", 2)
    chain2 = proofdb.interpolate(t2, solver, cache=cache)
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
    trace = [w for w in words_upto(dfa, 4) if len(w) == 4][0]
    chain = proofdb.interpolate(list(trace), solver, cache=cache)
    assert chain[0] == TRUE and chain[-1] == FALSE
    for i in range(len(trace)):
        assert proofdb.hoare_verdicts([(chain[i], trace[i], chain[i + 1])],
                                      solver, cache)[0]


@pytest.mark.parametrize("src", [
    "var x, y; x := 2 * y; assume(x = 1);",
    "var x; " + " ".join(f"assume(x != {c});" for c in range(5))
    + " assume(x = 2);",
    "var x; assume(1 = 0);"],
    ids=["rational-only", "five-disequalities", "false-guard"])
def test_interpolate_falls_back_to_wp(solver, src):
    # no Farkas chain: integer-only infeasibility, more disequalities than
    # the case split takes, and a guard that is FALSE
    dfa, _, _ = load_program(src)
    [trace] = [list(w) for w in words_upto(dfa, len(dfa.alphabet))
               if accepts(dfa, w)]
    assert proofdb.feasible(trace, solver) is None
    assert proofdb._interpolate_farkas(trace) is None
    chain = proofdb.interpolate(trace, solver)
    assert proofdb._chain_ok(chain, trace, solver, None)


def test_interpolate_on_feasible_trace_raises(solver):
    _, trace = single_trace("var x; x := 1; assume(x = 1);", 2)
    with pytest.raises(proofdb.InterpolationError):
        proofdb.interpolate(trace, solver)


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


def test_repeated_open_triple_is_sent_once():
    # {x = 0 and y = 1} x := x + y {x = 1} needs the solver
    _, [step] = single_trace("var x, y; x := x + y;", 1)
    pre = exprs.c_and([cmp("=", var("x"), num(0)), cmp("=", var("y"), num(1))])
    post = cmp("=", var("x"), num(1))
    assert not exprs.implies(pre, proofdb.wp_stmt(step, post))
    solver = proofdb.SolverClient()
    assert proofdb.hoare_verdicts([(pre, step, post)] * 2, solver) == [True] * 2
    assert solver.num_queries == 1


def test_unsatisfiable_pre_makes_a_triple_valid():
    # wp(x := x + 1, false) is false, yet the triple holds: no state meets
    # its pre, so neither the pool nor lia can refute it
    _, [step] = single_trace("var x; x := x + 1;", 1)
    pre = exprs.c_and([cmp(">=", var("x"), num(2)), cmp("<=", var("x"), num(0))])
    assert proofdb.wp_stmt(step, FALSE) == FALSE
    solver = proofdb.SolverClient()
    assert proofdb.hoare_verdicts([(pre, step, FALSE)], solver) == [True]
    assert solver.num_queries == 1


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
        assert exprs.implies(f, proofdb.wp_stmt(s, f)), (f, s)


@pytest.mark.parametrize("engine", ["farkas", "wp"])
def test_interpolate_validates_a_chain_in_one_batch(monkeypatch, engine):
    # one hoare_verdicts call per chain, with at most one solve per triple
    chains, calls = [], []
    real_ok = proofdb._chain_ok
    real_verdicts = proofdb.hoare_verdicts

    def chain_ok(chain, *args):
        chains.append(chain)
        return real_ok(chain, *args)

    def hoare_verdicts(triples, solver, *args):
        before = solver.num_queries
        out = real_verdicts(triples, solver, *args)
        calls.append((len(triples), solver.num_queries - before))
        return out
    dfa, v = _safe_run("sequential/mult_dist", True)
    if engine == "wp":
        monkeypatch.setattr(proofdb, "_interpolate_farkas", lambda trace: None)
    monkeypatch.setattr(proofdb, "_chain_ok", chain_ok)
    monkeypatch.setattr(proofdb, "hoare_verdicts", hoare_verdicts)
    traces = [[dfa.alphabet[a] for a in w]
              for r in v.rounds for w in r.counterexamples]
    assert traces
    with proofdb.SolverClient() as solver:
        for trace in traces:
            chains.clear()
            calls.clear()
            proofdb.interpolate(trace, solver)
            assert len(calls) == len(chains) >= 1
            assert all(n == len(trace) and solves <= n for n, solves in calls)
