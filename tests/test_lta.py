import itertools
import random

import pytest

from hyperweave.antichain import all_leaf_strings
from hyperweave.lta import (Lta, build_counterexample_tree, inactive_baseline,
                            lta_intersect, lta_powerset)
from tests.conftest import random_dfa
from tests.oracles import (accepts, apply_inactive_step, from_words, is_empty,
                           lta_singleton, words_upto)


def contains_language(m, words, alphabet) -> bool:
    return not is_empty(lta_intersect(lta_singleton(from_words(words, alphabet)), m))


def all_languages(alphabet, maxlen):
    words = []
    for n in range(maxlen + 1):
        words.extend(itertools.product(alphabet, repeat=n))
    for bits in range(1 << len(words)):
        yield frozenset(w for i, w in enumerate(words) if bits >> i & 1)


def test_powerset_of_empty_language():
    d = from_words([], ("a",))
    pw = lta_powerset(d)
    assert contains_language(pw, [], ("a",))
    assert not contains_language(pw, [("a",)], ("a",))


def test_powerset_of_everything():
    # complete one-state accepting DFA: universal language
    from hyperweave.automata import Dfa
    d = Dfa(("a", "b"), [[0, 0]], 0, frozenset({0}))
    pw = lta_powerset(d)
    for words in [[], [("a",)], [("a", "b"), ("b",)], [()]]:
        assert contains_language(pw, words, ("a", "b"))


def test_powerset_membership_is_inclusion():
    rng = random.Random(2)
    for _ in range(80):
        big = random_dfa(rng, 4, 2)
        small = random_dfa(rng, 3, 2)
        m = lta_powerset(big)
        got = contains_language(m, [], None) if False else None
        inc = all(accepts(big, w) for w in words_upto(small, 6))
        sing = lta_singleton(small)
        # reindex not needed: alphabets are identical tuples
        assert (not is_empty(lta_intersect(sing, m))) == inc


def test_intersect_identity_and_empty():
    d = from_words([("a",), ("b", "a")], ("a", "b"))
    m = lta_singleton(d)
    # automaton accepting every language: one state, both boolean labels
    alphabet = ("a", "b")
    m_all = Lta(alphabet, [[(False, (0, 0)), (True, (0, 0))]], 0)
    m_none = Lta(alphabet, [[]], 0)
    assert not is_empty(lta_intersect(m, m_all))
    assert is_empty(lta_intersect(m, m_none))
    assert is_empty(m_none)
    assert not is_empty(lta_powerset(d))  # the empty language is a subset


def test_intersect_agrees_with_conjunction_of_membership():
    rng = random.Random(13)
    for _ in range(40):
        d1 = random_dfa(rng, 3, 2)
        d2 = random_dfa(rng, 3, 2)
        alphabet = d1.alphabet
        m1, m2 = lta_powerset(d1), lta_powerset(d2)
        both = lta_intersect(m1, m2)
        for _ in range(8):
            words = {tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
                     for _ in range(rng.randint(0, 3))}
            lhs = contains_language(both, words, alphabet)
            rhs = (contains_language(m1, words, alphabet)
                   and contains_language(m2, words, alphabet))
            assert lhs == rhs


def test_inactive_no_transitions():
    m = Lta(("a",), [[]], 0)
    assert 0 in inactive_baseline(m).inactive


def test_active_self_loop():
    m = Lta(("a",), [[(False, (0,))]], 0)
    assert 0 not in inactive_baseline(m).inactive


def test_inactive_equals_kleene_iteration():
    rng = random.Random(17)
    for _ in range(200):
        k = rng.randint(1, 3)
        n = rng.randint(1, 6)
        transitions = []
        for q in range(n):
            trans = []
            for _ in range(rng.randint(0, 3)):
                trans.append((rng.random() < 0.5,
                              tuple(rng.randrange(n) for _ in range(k))))
            transitions.append(trans)
        m = Lta(tuple(range(k)), transitions, 0)
        inact = inactive_baseline(m)
        # naive iteration of the operator to fixpoint
        cur = set()
        while True:
            nxt = apply_inactive_step(m, cur)
            if nxt == cur:
                break
            cur = nxt
        assert cur == inact.inactive
        assert apply_inactive_step(m, inact.inactive) == inact.inactive
        # every active state has a transition with all successors active
        for q in range(n):
            if q not in inact.inactive:
                assert any(all(t not in inact.inactive for t in succ)
                           for _, succ in m.transitions[q])


def test_counterexample_tree_single_statement():
    p = from_words([("a",)], ("a",))
    pi = from_words([], ("a",))
    from hyperweave.reduction import LINEAR, sleep_reduction_lta
    m = lta_intersect(sleep_reduction_lta(p, (0b1,), LINEAR), lta_powerset(pi))
    inact = inactive_baseline(m)
    tree = build_counterexample_tree(m, inact)
    assert [tuple(m.alphabet[a] for a in s) for s in all_leaf_strings(tree)] == [("a",)]


def test_counterexample_tree_two_independent_threads():
    p = from_words([("a", "b"), ("b", "a")], ("a", "b"))
    pi = from_words([], ("a", "b"))
    dep = (0b01, 0b10)
    from hyperweave.reduction import LINEAR, sleep_reduction_lta
    m = lta_intersect(sleep_reduction_lta(p, dep, LINEAR), lta_powerset(pi))
    inact = inactive_baseline(m)
    strings = {tuple(m.alphabet[a] for a in s)
               for s in all_leaf_strings(build_counterexample_tree(m, inact))}
    # one interleaving per linear-order choice at the root
    assert strings == {("a", "b"), ("b", "a")}


def test_tree_leaves_rejected_by_proof():
    rng = random.Random(31)
    from hyperweave.reduction import LINEAR, sleep_reduction_lta
    from tests.conftest import random_dep
    checked = 0
    for _ in range(60):
        p = random_dfa(rng, 4, 2)
        pi = random_dfa(rng, 3, 2)
        dep = random_dep(rng, 2)
        m = lta_intersect(sleep_reduction_lta(p, dep, LINEAR), lta_powerset(pi))
        inact = inactive_baseline(m)
        if m.initial not in inact.inactive:
            continue
        checked += 1
        tree = build_counterexample_tree(m, inact)
        for s in all_leaf_strings(tree):
            word = [m.alphabet[a] for a in s]
            assert accepts(p, word) and not accepts(pi, word)
    assert checked > 10


def test_nonempty_tree_rejected():
    d = from_words([("a",)], ("a",))
    m = lta_powerset(d)
    with pytest.raises(ValueError):
        build_counterexample_tree(m, inactive_baseline(m))
