import itertools
import random

import pytest

from hyperweave.reduction import (LINEAR, PARTITION, ReductionTooLarge,
                                  sleep_reduction_lta)
from tests.conftest import random_closed_language, random_dep
from tests.oracles import (classes_of, closure,
                           enumerate_reductions_bruteforce, from_words,
                           is_closed, lta_accepts_language, sleep_step,
                           word_class, words_upto)

INDEP2 = (0b01, 0b10)
DEP2 = (0b11, 0b11)


def test_linear_orders_enumeration():
    rels = LINEAR.relations(3)
    assert len(rels) == 6
    for r in rels:
        # in every linear order exactly one letter comes first
        assert sorted(bin(m).count("1") for m in r) == [0, 1, 2]


def test_linear_guard_rail():
    with pytest.raises(ReductionTooLarge):
        LINEAR.relations(9)


def test_partition_orders():
    rels = PARTITION.relations(2)
    # {}, {a}x{b}, {b}x{a}: the two trivial partitions collapse to one
    assert len(rels) == 3
    for r in rels:
        for a in range(2):
            assert not r[a] >> a & 1  # never ordered after itself


def test_sleep_step_recurrence():
    r = (0, 0b01)  # explore a before b
    # after exploring b with a ordered first and independent: a sleeps
    assert sleep_step(0, r, 1, INDEP2) == 0b01
    # dependence clears the sleep set
    assert sleep_step(0b01, (0b10, 0b01), 0, (0b11, 0b11)) == 0
    # full dependence: everything conflicts, sleep always empty
    for s in range(4):
        assert sleep_step(s, (0b10, 0b01), 0, (0b11, 0b11)) == 0


def test_sleep_step_matches_direct_recurrence():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 4)
        dep = random_dep(rng, k)
        rels = LINEAR.relations(k)
        r = rng.choice(rels)
        word = [rng.randrange(k) for _ in range(rng.randint(0, 5))]
        s = 0
        for a in word:
            s = sleep_step(s, r, a, dep)
        # direct evaluation of the recurrence from scratch
        direct = 0
        for a in word:
            direct = (direct | r[a]) & ~dep[a]
        assert s == direct


def test_bruteforce_independent_pair():
    reds = enumerate_reductions_bruteforce({(0, 1), (1, 0)}, INDEP2, 2)
    assert reds == {frozenset({(0, 1)}), frozenset({(1, 0)})}


def test_bruteforce_dependent_pair():
    reds = enumerate_reductions_bruteforce({(0, 1), (1, 0)}, DEP2, 2)
    assert reds == {frozenset({(0, 1), (1, 0)})}


def test_bruteforce_singleton():
    assert enumerate_reductions_bruteforce({(0,)}, (0b1,), 1) == {frozenset({(0,)})}


def test_bruteforce_shuffle_one_rep_per_class():
    # 2 threads x 1 statement each, independent: every reduction keeps exactly
    # one representative of the single equivalence class
    lang = {(0, 1), (1, 0)}
    for red in enumerate_reductions_bruteforce(lang, INDEP2, 2):
        assert len(red) == 1


def test_reduction_laws_on_random_closed_languages():
    rng = random.Random(77)
    done = 0
    while done < 25:
        k = rng.randint(2, 3)
        dep = random_dep(rng, k)
        lang = random_closed_language(rng, k, 4, dep, max_words=4)
        if any(len(w) > 4 for w in lang):
            continue
        try:
            reds = enumerate_reductions_bruteforce(lang, dep, k,
                                                   max_langs=300, max_nodes=400)
        except ReductionTooLarge:
            continue
        done += 1
        for red in reds:
            # closure restores the full program
            assert closure(red, dep) == lang
            # at most one representative per class
            for cls in classes_of(red, dep):
                assert len(cls) == 1


def test_lta_membership_equals_bruteforce():
    rng = random.Random(101)
    done = 0
    while done < 12:
        k = rng.randint(2, 3)
        dep = random_dep(rng, k)
        lang = random_closed_language(rng, k, 3, dep, max_words=3)
        if any(len(w) > 3 for w in lang) or len(lang) > 14:
            continue
        try:
            reds = enumerate_reductions_bruteforce(lang, dep, k,
                                                   max_langs=200, max_nodes=300)
        except ReductionTooLarge:
            continue
        done += 1
        alphabet = tuple(range(k))
        p = from_words(lang, alphabet)
        m = sleep_reduction_lta(p, dep, LINEAR)
        for red in reds:
            assert lta_accepts_language(m, red, alphabet)
        # negative samples: all one-per-class picks not in the brute-forced set
        classes = classes_of(lang, dep)
        if classes and all(len(c) <= 3 for c in classes) and len(classes) <= 5:
            for pick in itertools.product(*[sorted(c) for c in classes]):
                cand = frozenset(pick)
                assert lta_accepts_language(m, cand, alphabet) == (cand in reds)


def test_partition_reductions_are_sound_but_not_linear():
    # three pairwise-independent letters, all six orderings of them
    dep = (0b001, 0b010, 0b100)
    lang = {p for p in itertools.permutations(range(3))}
    alphabet = (0, 1, 2)
    p = from_words(lang, alphabet)
    m_lin = sleep_reduction_lta(p, dep, LINEAR)
    m_par = sleep_reduction_lta(p, dep, PARTITION)
    # {abc, bca} is reachable with partition orders yet has two
    # representatives of the single class, impossible with linear orders
    target = frozenset({(0, 1, 2), (1, 2, 0)})
    assert lta_accepts_language(m_par, target, alphabet)
    assert not lta_accepts_language(m_lin, target, alphabet)
    assert closure(target, dep) == frozenset(lang)  # still a sound reduction


def test_partition_accepted_languages_are_reductions():
    rng = random.Random(19)
    done = 0
    while done < 10:
        k = 2
        dep = random_dep(rng, k)
        lang = random_closed_language(rng, k, 3, dep, max_words=3)
        alphabet = tuple(range(k))
        p = from_words(lang, alphabet)
        m = sleep_reduction_lta(p, dep, PARTITION)
        done += 1
        # sample candidate sublanguages; accepted ones must be reductions
        subsets = list(lang)
        for bits in range(1 << min(len(subsets), 5)):
            cand = frozenset(w for i, w in enumerate(subsets[:5]) if bits >> i & 1)
            cand |= frozenset(subsets[5:])
            if lta_accepts_language(m, cand, alphabet):
                assert closure(cand, dep) == frozenset(lang)


def test_word_class_and_closure():
    dep = (0b01, 0b10)
    assert word_class((0, 1), dep) == {(0, 1), (1, 0)}
    assert is_closed({(0, 1), (1, 0)}, dep)
    assert not is_closed({(0, 1)}, dep)


def test_input_programs_are_closed_by_construction():
    from hyperweave.frontend import load_program
    dfa, dep, _ = load_program(
        "var a, x, y; { x := a; x := x + 1; } || { y := a; } assume(x = y);")
    words = {tuple(s.id for s in w) for w in words_upto(dfa, 6)}
    assert is_closed(words, dep.masks)


def test_reductions_preserve_feasibility(solver):
    # a reduction is semantically faithful: the program has a feasible trace
    # iff the reduction does (statement semantics, not just word shapes)
    from hyperweave import proofdb
    from hyperweave.frontend import load_program

    for src, expect_feasible in [
        ("var a, x, y; { x := a; } || { y := a; } assume(x = y);", True),
        ("var a, x, y; { x := a; } || { y := a + 1; } assume(x != y);", True),
        ("var a, x, y; { x := a; } || { y := a + 1; } assume(x = y);", False),
        ("var x, y; assume(x = y); { x := x + 1; } || { y := y + 2; } assume(x = y);", False),
    ]:
        dfa, dep, _ = load_program(src)
        stmts = dfa.alphabet
        lang = {tuple(s.id for s in w) for w in words_upto(dfa, 6)}
        reds = enumerate_reductions_bruteforce(lang, dep.masks, len(stmts),
                                               max_langs=200, max_nodes=400)

        def any_feasible(words):
            for w in sorted(words):
                if proofdb.feasible([stmts[i] for i in w], solver) is not None:
                    return True
            return False

        whole = any_feasible(lang)
        assert whole == expect_feasible
        for red in reds:
            assert any_feasible(red) == whole
