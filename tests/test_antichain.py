import itertools
import os
import random
import time

import pytest

from hyperweave import antichain as ac
from hyperweave.antichain import (Strategy, ac_covers, ac_meet, check,
                                  extract_counterexamples)
from hyperweave.automata import AlphabetError, Dfa, LazyDfa, determinize
from hyperweave.cegar import VerifyConfig, verify
from hyperweave.frontend import load_program
from hyperweave.lta import inactive_baseline, lta_intersect, lta_powerset
from hyperweave.reduction import LINEAR, PARTITION, sleep_reduction_lta
from tests.conftest import random_dep, random_dfa, random_nfa
from tests.oracles import (ac_join, downset, fmax_step, is_empty,
                           partition_survivors_by_witnesses)

MULT = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                    "sequential", "mult_dist.imp")


def masks(*sets):
    out = []
    for s in sets:
        m = 0
        for x in s:
            m |= 1 << x
        out.append(m)
    return out


def test_join_examples():
    assert set(ac_join(masks({0}, {1}), masks({0, 1}))) == {0b11}
    x = masks({0}, {2})
    assert set(ac_join(x, [])) == set(x)


def test_meet_examples():
    assert set(ac_meet(masks({0, 1}), masks({1, 2}))) == {0b010}
    x = masks({0}, {1, 2})
    assert set(ac_meet(x, [0b111])) == set(x)


def test_join_meet_downset_laws():
    rng = random.Random(3)
    k = 4
    for _ in range(300):
        xa, ya = [], []
        for _ in range(rng.randint(0, 3)):
            ac.ac_insert(xa, rng.randrange(1 << k))
        for _ in range(rng.randint(0, 3)):
            ac.ac_insert(ya, rng.randrange(1 << k))
        j = ac_join(xa, ya)
        m = ac_meet(xa, ya)
        assert downset(j, k) == downset(xa, k) | downset(ya, k)
        assert downset(m, k) == downset(xa, k) & downset(ya, k)
        for items in (j, m):
            for a, b in itertools.combinations(items, 2):
                assert a & ~b and b & ~a  # pairwise incomparable


def random_table(rng, ap, api, k):
    table = {}
    for qp in range(ap.n):
        for qpi in range(api.n):
            if rng.random() < 0.5:
                items = []
                for _ in range(rng.randint(1, 2)):
                    m = rng.randrange(1 << k)
                    if not ac_covers(items, m):
                        items = ac_join(items, [m])
                table[(qp, qpi)] = items
    return table


def explicit_fstep(table, ap, api, dep, orders, k):
    """Baseline inactive-step over explicit (q, iota, S)xq_pi states."""
    out = {}
    rels = orders.relations(k)
    full = (1 << k) - 1
    for qp in range(ap.n):
        for qpi in range(api.n):
            got = []
            for s in range(1 << k):
                # state ((qp, False, s), qpi) is in F(X) iff for every order
                # some letter's successor lies in the downward closure of X
                ok = True
                for r in rels:
                    if qp in ap.finals and qpi not in api.finals:
                        ok = False  # no admissible transition: vacuous
                        break
                    found = False
                    for a in range(k):
                        if s >> a & 1:
                            continue  # successor has iota set: always active
                        sleep = (s | r[a]) & ~dep[a]
                        cell = table.get((ap.delta[qp][a], api.delta[qpi][a]), [])
                        if ac_covers(cell, sleep):
                            found = True
                            break
                    if not found:
                        ok = False
                        break
                if qp in ap.finals and qpi not in api.finals:
                    ok = True  # vacuously inactive, every sleep set
                if ok:
                    got.append(s)
            out[(qp, qpi)] = got
    return out


def test_fmax_step_matches_explicit_operator():
    rng = random.Random(21)
    for trial in range(120):
        k = rng.randint(1, 2)
        ap = random_dfa(rng, 3, k)
        api = random_dfa(rng, 2, k)
        dep = random_dep(rng, k)
        table = random_table(rng, ap, api, k)
        for orders in (LINEAR, PARTITION):
            want = explicit_fstep(table, ap, api, dep, orders, k)
            for (qp, qpi), sets in want.items():
                got = fmax_step(table, qp, qpi, ap, api, dep, orders)
                assert downset(got, k) == set(sets), (trial, qp, qpi)


def test_partition_fast_path_equals_generic_meet():
    rng = random.Random(33)
    for _ in range(300):
        k = rng.randint(1, 4)
        dep = random_dep(rng, k)
        full = (1 << k) - 1
        children = []
        for _ in range(k):
            items = []
            for _ in range(rng.randint(0, 3)):
                m = rng.randrange(1 << k)
                if not ac_covers(items, m):
                    items = ac_join(items, [m])
            children.append(items)
        got = ac._partition_survivors(children, dep, full, None)
        want = ac._meet_over_orders(children, dep, PARTITION.relations(k),
                                    full, None)
        assert downset(got, k) == downset(want, k)
        # both sort the antichain ascending, so one set is one list
        assert got == want


def test_partition_survivors_equal_the_witness_oracle():
    # the lattice descent returns, sorted, the maximal sets of the closed form
    rng = random.Random(29)
    wide = 0
    for _ in range(3000):
        k = rng.randint(1, 6)
        dep = random_dep(rng, k)
        full = (1 << k) - 1
        children = []
        for _ in range(k):
            items = []
            for _ in range(rng.randint(0, 3)):
                ac.ac_insert(items, rng.randrange(1 << k))
            children.append(sorted(items))
        got = ac._partition_survivors(children, dep, full, None)
        assert got == sorted(set(got))
        assert set(got) == partition_survivors_by_witnesses(children, dep,
                                                            full)
        wide += len(got) > 1
    assert wide > 1000


def test_fmax_accepting_program_nonaccepting_proof():
    ap = Dfa((0,), [[0]], 0, frozenset({0}))
    api = Dfa((0,), [[0]], 0, frozenset())
    got = fmax_step({}, 0, 0, ap, api, (0b1,), LINEAR)
    assert got == [0b1]


def test_fmax_empty_children():
    ap = Dfa((0,), [[0]], 0, frozenset())
    api = Dfa((0,), [[0]], 0, frozenset())
    assert fmax_step({}, 0, 0, ap, api, (0b1,), LINEAR) == []


def test_check_equals_baseline_on_random_instances():
    # the engine reads the proof NFA through a LazyDfa; the baseline gets
    # the eagerly determinized proof
    rng = random.Random(7)
    outcomes = set()
    for orders in (LINEAR, PARTITION):
        for _ in range(150):
            k = rng.randint(1, 3)
            alphabet = tuple(range(k))
            ap = random_dfa(rng, 6, k)
            nfa = random_nfa(rng, rng.randint(1, 4), alphabet)
            dep = random_dep(rng, k)
            res = check(ap, LazyDfa(nfa, alphabet), dep, orders)
            m = lta_intersect(sleep_reduction_lta(ap, dep, orders),
                              lta_powerset(determinize(nfa, alphabet)))
            assert res.covered == (not is_empty(m))
            outcomes.add(res.covered)
    assert outcomes == {True, False}


def _engine_outcome(ap, nfa, dep, orders, memo):
    res = check(ap, LazyDfa(nfa, ap.alphabet), dep, orders, memo=memo)
    leaves = None if res.covered else ac.all_leaf_strings(res.forest)
    s = res.stats
    return (res.covered, leaves, s.cells, s.fmax_calls, s.births), s.memo_hits


def test_shared_memo_equals_fresh_memo_and_baseline():
    # one program against a sequence of proofs, as in a refinement loop:
    # a memo shared by every check changes no outcome and no counter but
    # the work counters
    rng = random.Random(17)
    shared_hits = fresh_hits = 0
    for orders in (LINEAR, PARTITION):
        for _ in range(30):
            k = rng.randint(1, 3)
            alphabet = tuple(range(k))
            ap = random_dfa(rng, 6, k)
            dep = random_dep(rng, k)
            shared = ac.SurvivorMemo()
            for _ in range(6):
                nfa = random_nfa(rng, rng.randint(1, 4), alphabet)
                got, hits = _engine_outcome(ap, nfa, dep, orders, shared)
                shared_hits += hits
                want, hits = _engine_outcome(ap, nfa, dep, orders, None)
                fresh_hits += hits
                assert got == want
                m = lta_intersect(sleep_reduction_lta(ap, dep, orders),
                                  lta_powerset(determinize(nfa, alphabet)))
                assert got[0] == (not is_empty(m))
    assert shared_hits > fresh_hits


def test_memo_hits_replace_computation():
    rng = random.Random(5)
    k = 3
    ap = random_dfa(rng, 6, k)
    dep = random_dep(rng, k)
    nfa = random_nfa(rng, 3, tuple(range(k)))
    memo = ac.SurvivorMemo()
    first = check(ap, LazyDfa(nfa, ap.alphabet), dep, LINEAR, memo=memo)
    entries = len(memo.table)
    again = check(ap, LazyDfa(nfa, ap.alphabet), dep, LINEAR, memo=memo)
    # the second check evaluates the same cells and computes none of them
    assert again.stats.fmax_calls == first.stats.fmax_calls
    assert first.stats.joins > 0 and first.stats.meets > 0
    assert again.stats.joins == again.stats.meets == 0
    assert again.stats.memo_hits > first.stats.memo_hits
    assert len(memo.table) == entries


def test_memo_refuses_another_binding():
    ap = Dfa((0, 1), [[0, 0]], 0, frozenset({0}))
    api = Dfa((0, 1), [[0, 0]], 0, frozenset())
    memo = ac.SurvivorMemo()
    check(ap, api, (0b01, 0b10), PARTITION, memo=memo)
    check(ap, api, (0b01, 0b10), PARTITION, memo=memo)
    with pytest.raises(ValueError, match="memo"):
        check(ap, api, (0b11, 0b11), PARTITION, memo=memo)
    with pytest.raises(ValueError, match="memo"):
        check(ap, api, (0b01, 0b10), LINEAR, memo=memo)


def _reachable(dfa) -> set:
    seen, todo = {dfa.initial}, [dfa.initial]
    while todo:
        for t in dfa.delta[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def test_dead_program_states_never_materialized():
    rng = random.Random(13)
    with_dead = 0
    for orders in (LINEAR, PARTITION):
        for _ in range(150):
            k = rng.randint(1, 3)
            alphabet = tuple(range(k))
            ap = random_dfa(rng, 6, k)
            live = ap.live_states()
            engine = ac.CheckEngine(
                ap, LazyDfa(random_nfa(rng, rng.randint(1, 4), alphabet),
                            alphabet), random_dep(rng, k), orders)
            engine.run()
            assert all(qp in live for qp, _ in engine.cells)
            with_dead += bool(_reachable(ap) - live)
    assert with_dead > 50


def test_no_dead_cell_on_atomic_mult_dist(monkeypatch):
    dfa, dep, _ = load_program(open(MULT).read(), atomic=True)
    live = dfa.live_states()
    assert _reachable(dfa) - live  # the program has a reachable dead state
    seen = []
    real = ac.CheckEngine._materialize

    def materialize(self, cell):
        seen.append(cell)
        return real(self, cell)
    monkeypatch.setattr(ac.CheckEngine, "_materialize", materialize)
    v = verify(dfa, dep, VerifyConfig(timeout=120))
    assert v.verdict == "safe"
    assert seen and all(qp in live for qp, _ in seen)


def test_memo_ids_stand_for_sets_on_atomic_mult_dist(monkeypatch):
    memos = []

    class Recorded(ac.SurvivorMemo):
        def __init__(self):
            super().__init__()
            memos.append(self)
    monkeypatch.setattr(ac, "SurvivorMemo", Recorded)
    dfa, dep, _ = load_program(open(MULT).read(), atomic=True)
    assert verify(dfa, dep, VerifyConfig(timeout=120)).verdict == "safe"
    # the loop's memo and revalidation's own
    assert len(memos) == 2
    for memo in memos:
        assert len(memo.values) > 10
        assert all(list(v) == sorted(v) for v in memo.values)
        assert len({frozenset(v) for v in memo.values}) == len(memo.values)


def test_proof_alphabet_order_must_match_the_program():
    ap = Dfa((0, 1), [[0, 0]], 0, frozenset({0}))
    api = Dfa((1, 0), [[0, 0]], 0, frozenset())
    with pytest.raises(AlphabetError):
        check(ap, api, (0b01, 0b10), LINEAR)


def test_check_gives_up_at_the_deadline():
    # a chain of program states: one fmax call per state at least
    n = 3000
    ap = Dfa((0,), [[min(q + 1, n - 1)] for q in range(n)], 0,
             frozenset({n - 1}))
    api = Dfa((0,), [[0]], 0, frozenset())
    assert not check(ap, api, (0b1,), LINEAR).covered
    with pytest.raises(ac.ResourceLimit, match="timeout"):
        check(ap, api, (0b1,), LINEAR, deadline=time.monotonic() - 1)


def test_keep_active_states_never_inactive():
    # in the explicit intersection no state with the ignored flag set is
    # inactive: its transitions always step to another ignored state
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        k = rng.randint(1, 2)
        ap = random_dfa(rng, 4, k)
        api = random_dfa(rng, 3, k)
        dep = random_dep(rng, k)
        red = sleep_reduction_lta(ap, dep, LINEAR)
        m = lta_intersect(red, lta_powerset(api))
        inact = inactive_baseline(m)
        for q in inact.inactive:
            id1, _ = m.labels[q]
            qp, iota, s = red.labels[id1]
            assert iota is False
            checked += 1
    assert checked > 20


def test_counterexamples_valid_and_strategies():
    dfa, dep, _ = load_program(
        "var x, y; { x := 1; } || { y := 2; } assume(x != y);")
    api = Dfa(dfa.alphabet, [[1] * 3, [1] * 3], 0, frozenset())  # empty proof
    res = check(dfa, api, dep.masks, LINEAR)
    assert not res.covered
    by_thread = {s.thread: s for s in dfa.alphabet}
    # round robin picks thread 0 then thread 1 then the glue assume
    rr = extract_counterexamples(res.forest, dfa.alphabet, Strategy("bpe", "rr"))
    assert len(rr) == 1
    t = [dfa.alphabet[a] for a in rr[0]]
    assert [s.thread for s in t] == [0, 1, 2]
    # leftmost-1 is the sequential composition order (statement id order)
    l1 = extract_counterexamples(res.forest, dfa.alphabet, Strategy("bpe", "l", 1))
    assert [dfa.alphabet[a].id for a in l1[0]] == sorted(
        dfa.alphabet[a].id for a in l1[0])
    pe = extract_counterexamples(res.forest, dfa.alphabet, Strategy("pe"))
    assert set(pe) >= set(rr)
    for w in pe + rr + l1:
        word = [dfa.alphabet[a] for a in w]
        assert dfa.accepts(word) and not api.accepts(word)
    m2 = extract_counterexamples(res.forest, dfa.alphabet, Strategy("bpe", "m", 2))
    assert 1 <= len(m2) <= 2


def test_strategy_parse():
    assert Strategy.parse("bpe-rr") == Strategy("bpe", "rr")
    assert Strategy.parse("bpe-l3") == Strategy("bpe", "l", 3)
    assert Strategy.parse("bpe-m1") == Strategy("bpe", "m", 1)
    assert Strategy.parse("pe") == Strategy("pe")
    for text in ("nope", "bpe-lx", "bpe-l-", "bpe-m1x"):
        with pytest.raises(ValueError, match=f"unknown strategy '{text}'"):
            Strategy.parse(text)
    for text in ("bpe-l0", "bpe-m0", "bpe-m-1"):
        with pytest.raises(ValueError, match="N >= 1"):
            Strategy.parse(text)


def test_stats_counters_present():
    dfa, dep, _ = load_program("var x; x := 1; assume(x = 1);")
    api = Dfa(dfa.alphabet, [[1] * 2, [1] * 2], 0, frozenset())
    res = check(dfa, api, dep.masks, PARTITION)
    d = res.stats.as_dict()
    assert d["cells"] > 0 and d["fmax_calls"] > 0
    assert "peak_width" in d and "joins" in d and "meets" in d
