"""Reference computations the tests check the engine against; the verifier
does not call them."""

import itertools

from hyperweave.antichain import Stats, _meet_over_orders, ac_insert
from hyperweave.automata import Dfa, from_words
from hyperweave.lta import Lta, is_empty, lta_intersect, lta_singleton
from hyperweave.reduction import (LINEAR, OrderSource, ReductionTooLarge,
                                  _dep_masks)


def ac_join(x, y) -> list:
    """The maximal elements of the union of the antichains x and y."""
    out = list(x)
    for m in y:
        ac_insert(out, m)
    return out


def downset(items, k: int) -> frozenset:
    """Explicit downward closure over pow(k letters)."""
    out = set()
    for e in items:
        sub = e
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & e
    return frozenset(out)


def fmax_step(table, qp: int, qpi: int, ap: Dfa, api: Dfa, dep,
              orders: OrderSource, stats: Stats | None = None) -> list:
    """One cell update: the maximal sleep sets making ((qp,_,S),qpi) inactive.

    `table` maps (qp, qpi) -> antichain list.  This is the meet over orders
    of the joins over successors, computed from a whole table.
    """
    k = len(ap.alphabet)
    full = (1 << k) - 1
    if qp in ap.finals and qpi not in api.finals:
        return [full]
    dmasks = _dep_masks(dep, k)
    rowp, rowpi = ap.delta[qp], api.delta[qpi]
    children = [table.get((rowp[a], rowpi[a]), []) for a in range(k)]
    return _meet_over_orders(children, dmasks, orders.relations(k), full, stats)


def sleep_step(s: int, r, a: int, dep) -> int:
    """Next sleep set after exploring letter a: (s | R(a)) minus D(a)."""
    masks = getattr(dep, "masks", dep)
    return (s | r[a]) & ~masks[a]


# --------------------------------------------------------- language oracles

def word_class(word: tuple, dep) -> frozenset:
    """Equivalence class of a word under swapping independent neighbours."""
    masks = getattr(dep, "masks", dep)
    seen = {tuple(word)}
    queue = [tuple(word)]
    while queue:
        w = queue.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if a != b and not (masks[a] >> b & 1):
                w2 = w[:i] + (b, a) + w[i + 2:]
                if w2 not in seen:
                    seen.add(w2)
                    queue.append(w2)
    return frozenset(seen)


def closure(lang, dep) -> frozenset:
    out = set()
    for w in lang:
        out |= word_class(tuple(w), dep)
    return frozenset(out)


def is_closed(lang, dep) -> bool:
    lang = {tuple(w) for w in lang}
    return closure(lang, dep) == lang


def classes_of(lang, dep) -> list:
    """Partition a finite language into its equivalence classes."""
    left = {tuple(w) for w in lang}
    out = []
    while left:
        w = next(iter(left))
        cls = word_class(w, dep) & left
        out.append(cls)
        left -= cls
    return out


def enumerate_reductions_bruteforce(lang, dep, k: int,
                                    max_langs: int = 4000,
                                    max_nodes: int = 3000) -> frozenset:
    """All sleep-set reductions of a finite language, by direct recursion.

    Every prefix node independently picks a linear exploration order; the
    resulting kept-word sets are collected.  Guard rails raise
    ReductionTooLarge on combinatorial blowups.
    """
    lang = {tuple(w) for w in lang}
    if k > 4 or any(len(w) > 5 for w in lang):
        raise ReductionTooLarge("bruteforce oracle limits: |Sigma|<=4, words<=5")
    dmasks = _dep_masks(dep, k)
    rels = LINEAR.relations(k)

    # prefix trie
    children: dict = {(): {}}
    is_word: dict = {(): () in lang}
    for w in lang:
        for i in range(len(w)):
            pref, letter = w[:i], w[i]
            nxt = w[: i + 1]
            children.setdefault(pref, {})[letter] = nxt
            children.setdefault(nxt, {})
            is_word.setdefault(nxt, False)
            is_word.setdefault(pref, False)
        is_word[w] = True
    if len(children) > max_nodes:
        raise ReductionTooLarge("too many prefixes")

    memo: dict = {}

    def reds(node, s: int) -> frozenset:
        key = (node, s)
        hit = memo.get(key)
        if hit is not None:
            return hit
        base = frozenset({()}) if is_word[node] else frozenset()
        kids = children[node]
        out = set()
        for r in rels:
            options = []
            letters = []
            for a, child in sorted(kids.items()):
                if s >> a & 1:
                    continue  # sleeping: subtree pruned
                letters.append(a)
                options.append(reds(child, (s | r[a]) & ~dmasks[a]))
            for combo in itertools.product(*options):
                words = set(base)
                for a, sub in zip(letters, combo):
                    words |= {(a,) + w for w in sub}
                out.add(frozenset(words))
                if len(out) > max_langs:
                    raise ReductionTooLarge("too many distinct reductions")
        result = frozenset(out)
        memo[key] = result
        return result

    return reds((), 0)


def lta_accepts_language(m: Lta, words, alphabet) -> bool:
    """Membership of a finite language in an LTA (via the singleton oracle)."""
    dfa = from_words(words, alphabet)
    return not is_empty(lta_intersect(lta_singleton(dfa), m))
