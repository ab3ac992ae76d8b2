import itertools
import random

import pytest

from hyperweave.automata import (AlphabetError, Dfa, LazyDfa, Nfa,
                                 determinize, first_difference_trace,
                                 minimize)
from hyperweave.limits import ResourceLimit
from tests.conftest import check_wellformed, random_nfa
from tests.oracles import (accepts, equivalent, from_words, shuffle,
                           words_upto)


def nfa_accepts(nfa: Nfa, word) -> bool:
    states = {nfa.initial}
    for a in word:
        states = {t for q in states for t in nfa.trans.get((q, a), ())}
        if not states:
            return False
    return bool(states & nfa.finals)


def test_determinize_singleton():
    nfa = Nfa(2, ("a",), {(0, "a"): {1}}, 0, {1})
    dfa = determinize(nfa)
    check_wellformed(dfa)
    assert accepts(dfa, ("a",)) and not accepts(dfa, ()) and not accepts(dfa, ("a", "a"))


def test_determinize_merges_nondeterminism():
    nfa = Nfa(3, ("a",), {(0, "a"): {1, 2}}, 0, {2})
    dfa = determinize(nfa)
    assert accepts(dfa, ("a",))


def test_determinize_agrees_with_nfa_simulation():
    rng = random.Random(5)
    alphabet = ("a", "b")
    for trial in range(500):
        nfa = random_nfa(rng, rng.randint(1, 5), alphabet)
        dfa = determinize(nfa)
        check_wellformed(dfa)
        for n in range(0, 7):
            for _ in range(4):
                w = tuple(rng.choice(alphabet) for _ in range(n))
                assert accepts(dfa, w) == nfa_accepts(nfa, w)


def test_lazy_dfa_fully_expanded_equals_determinize():
    rng = random.Random(17)
    alphabet = ("a", "b", "c")
    for _ in range(300):
        nfa = random_nfa(rng, rng.randint(1, 6), alphabet)
        lazy = LazyDfa(nfa, alphabet)
        assert lazy.rows_built == 0
        # expand in a random demand order, not the numbering order
        rows, todo = {}, [lazy.initial]
        while todo:
            q = todo.pop(rng.randrange(len(todo)))
            if q not in rows:
                rows[q] = lazy.row(q)
                todo.extend(rows[q])
        assert lazy.rows_built == len(rows) == lazy.n
        assert lazy.row(0) is rows[0]  # a row is built once
        delta = [rows[q] for q in range(lazy.n)]
        finals = frozenset(q for q in range(lazy.n) if lazy.is_final(q))
        full = Dfa(alphabet, delta, lazy.initial, finals)
        check_wellformed(full)
        assert equivalent(full, determinize(nfa, alphabet))


def test_shuffle_basic():
    A = from_words([("a",)], ("a",))
    B = from_words([("b",)], ("b",))
    S = shuffle(A, B)
    assert words_upto(S, 3) == {("a", "b"), ("b", "a")}


def test_shuffle_with_empty_word_language():
    A = from_words([("a",), ("a", "a")], ("a",))
    E = from_words([()], ("b",))
    S = shuffle(A, E)
    assert {w for w in words_upto(S, 4)} == {("a",), ("a", "a")}


def test_shuffle_rejects_overlapping_alphabets():
    A = from_words([("a",)], ("a",))
    with pytest.raises(AlphabetError):
        shuffle(A, A)


def test_shuffle_counts_match_interleaving_formula():
    rng = random.Random(11)
    A = from_words([("a",), ("a", "a", "a")], ("a",))
    B = from_words([("b", "b")], ("b",))
    S = shuffle(A, B)
    words = words_upto(S, 5)
    # |interleavings of u and v| = C(|u|+|v|, |u|)
    import math
    expect = sum(math.comb(len(u) + len(v), len(u))
                 for u in [("a",), ("a", "a", "a")] for v in [("b", "b")])
    assert len(words) == expect


def test_first_difference_inclusion_none():
    P = from_words([("b",)], ("a", "b"))
    Pi = from_words([("a",), ("b",)], ("a", "b"))
    assert first_difference_trace(P, Pi) is None


def test_first_difference_least_word():
    P = from_words([("a",), ("b",)], ("a", "b"))
    Pi = from_words([("b",)], ("a", "b"))
    assert first_difference_trace(P, Pi) == ["a"]


def test_first_difference_agrees_with_scan():
    rng = random.Random(23)
    alphabet = ("a", "b")
    for _ in range(200):
        nfa1 = random_nfa(rng, rng.randint(1, 4), alphabet)
        nfa2 = random_nfa(rng, rng.randint(1, 4), alphabet)
        p, pi = determinize(nfa1), determinize(nfa2)
        got = first_difference_trace(p, pi)
        assert first_difference_trace(p, LazyDfa(nfa2)) == got
        scan = None
        done = False
        for n in range(0, 8):
            for w in itertools.product(alphabet, repeat=n):
                if accepts(p, w) and not accepts(pi, w):
                    scan = list(w)
                    done = True
                    break
            if done:
                break
        if scan is None:
            assert got is None
        else:
            assert got == scan


def test_other_alphabet_order_is_rejected():
    P = from_words([("a",)], ("a", "b"))
    with pytest.raises(AlphabetError):
        first_difference_trace(P, from_words([("a",)], ("b", "a")))
    with pytest.raises(AlphabetError):
        equivalent(P, from_words([("a",)], ("b", "a")))


def test_first_difference_honours_deadline():
    # p: the words of length >= 20; pi: every word, read through a counter
    # of the word as a binary number mod 2048.  Inclusion holds, and the
    # search meets far more than 1024 pairs before it can say so.
    alphabet = ("a", "b")
    p = Dfa(alphabet, [[min(q + 1, 20)] * 2 for q in range(21)], 0,
            frozenset({20}))
    n = 2048
    trans = {(q, a): {(2 * q + i) % n} for q in range(n)
             for i, a in enumerate(alphabet)}

    def pi():
        return LazyDfa(Nfa(n, alphabet, trans, 0, set(range(n))))
    assert first_difference_trace(p, pi()) is None
    late = pi()
    with pytest.raises(ResourceLimit):
        first_difference_trace(p, late, deadline=0.0)
    assert late.rows_built < 1024


def test_minimize_preserves_language():
    rng = random.Random(7)
    for _ in range(120):
        nfa = random_nfa(rng, rng.randint(1, 5), ("a", "b"))
        dfa = determinize(nfa)
        small = minimize(dfa)
        assert small.n <= dfa.n
        assert equivalent(dfa, small)


def test_minimize_is_canonical():
    # states renumbered at random, plus unreachable states: minimize gives
    # the same Dfa for every variant
    rng = random.Random(20)
    for _ in range(200):
        dfa = determinize(random_nfa(rng, rng.randint(1, 5), ("a", "b")))
        small = minimize(dfa)
        assert minimize(small) == small
        assert equivalent(small, dfa)
        for _ in range(4):
            n = dfa.n + rng.randint(0, 3)
            perm = rng.sample(range(n), n)
            delta = [None] * n
            for q in range(n):
                row = (dfa.delta[q] if q < dfa.n else
                       [rng.randrange(n) for _ in dfa.alphabet])
                delta[perm[q]] = [perm[t] for t in row]
            finals = frozenset(perm[q] for q in range(n) if q in dfa.finals
                               or q >= dfa.n and rng.random() < 0.5)
            variant = Dfa(dfa.alphabet, delta, perm[dfa.initial], finals)
            assert minimize(variant) == small
