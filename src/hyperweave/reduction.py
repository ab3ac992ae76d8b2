"""Sleep-set reductions: order sources, the reduction LTA, test oracles.

Letters are alphabet positions (= statement ids); sleep sets and ordering
relations are bitmasks over them.  An ordering relation R is stored as a
tuple of masks, R[a] = the letters whose subtrees are explored before a's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automata import Dfa
from .limits import check_deadline
from .lta import Lta, _Builder


class ReductionTooLarge(Exception):
    pass


MAX_LINEAR_ALPHABET = 8
MAX_LTA_STATES = 500000            # reduction LTA states, then ReductionTooLarge


def _dep_masks(dep, k: int):
    masks = getattr(dep, "masks", dep)
    if len(masks) < k:
        raise ValueError("dependence relation smaller than alphabet")
    return masks


@dataclass(frozen=True)
class OrderSource:
    """Finite family of ordering relations over the alphabet."""

    kind: str  # 'linear' | 'partition'

    def relations(self, k: int, deadline: float | None = None) -> tuple:
        """Every relation of the family over k letters; gives up with
        ResourceLimit('timeout') past deadline."""
        if self.kind == "linear":
            if k > MAX_LINEAR_ALPHABET:
                raise ReductionTooLarge(
                    f"{k}! linear orders is too many; use partition orders "
                    "or enable atomic blocks")
            rels = []
            for perm in itertools.permutations(range(k)):
                check_deadline(deadline, len(rels))
                r = [0] * k
                seen = 0
                for a in perm:
                    r[a] = seen
                    seen |= 1 << a
                rels.append(tuple(r))
            return tuple(rels)
        if self.kind == "partition":
            # in sigma2 order; sigma2 = all letters gives the relation of
            # sigma2 = 0, and no other two coincide
            rels = []
            for sigma2 in range((1 << k) - 1 or 1):
                check_deadline(deadline, sigma2)
                rels.append(tuple(0 if sigma2 >> a & 1 else sigma2
                                  for a in range(k)))
            return tuple(rels)
        raise ValueError(f"unknown order source {self.kind!r}")


LINEAR = OrderSource("linear")
PARTITION = OrderSource("partition")


def sleep_step(s: int, r, a: int, dep) -> int:
    """Next sleep set after exploring letter a: (s | R(a)) minus D(a)."""
    masks = getattr(dep, "masks", dep)
    return (s | r[a]) & ~masks[a]


def sleep_reduction_lta(p: Dfa, dep, orders: OrderSource = LINEAR,
                        deadline: float | None = None) -> Lta:
    """LTA over (program state, ignored flag, sleep set) accepting reductions.

    Only the fragment reachable from (initial, false, empty) is materialized.
    Gives up with ResourceLimit('timeout') past deadline.
    """
    k = len(p.alphabet)
    dmasks = _dep_masks(dep, k)
    rels = orders.relations(k, deadline)
    b = _Builder(p.alphabet)
    root = (p.initial, False, 0)
    queue = [root]
    seen = {root}
    steps = 0
    while queue:
        key = queue.pop()
        q, iota, s = key
        qid = b.state(key)
        boolean = (q in p.finals) and not iota
        row = p.delta[q]
        trans = set()
        for r in rels:
            steps += 1
            check_deadline(deadline, steps)
            succ = []
            for a in range(k):
                nxt = (row[a], iota or bool(s >> a & 1),
                       (s | r[a]) & ~dmasks[a])
                succ.append(nxt)
            trans.add((boolean, tuple(succ)))
        for boolean_, succ in trans:
            for nxt in succ:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
                    if len(seen) > MAX_LTA_STATES:
                        raise ReductionTooLarge(
                            f"reduction LTA exceeds {MAX_LTA_STATES} states")
            b.transitions[qid].append(
                (boolean_, tuple(b.state(nxt) for nxt in succ)))
    return b.done(root)


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
    from .automata import from_words
    from .lta import is_empty, lta_intersect, lta_singleton

    dfa = from_words(words, alphabet)
    return not is_empty(lta_intersect(lta_singleton(dfa), m))
