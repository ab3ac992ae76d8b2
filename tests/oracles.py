"""Reference computations the tests check the engine against; the verifier
does not call them."""

import itertools
from collections import deque

from hyperweave.antichain import Stats, _meet_over_orders, ac_insert
from hyperweave.automata import AlphabetError, Dfa, Nfa, determinize
from hyperweave.lta import Lta, inactive_baseline, lta_intersect
from hyperweave.reduction import (LINEAR, OrderSource, ReductionTooLarge,
                                  _dep_masks)


# ------------------------------------------------------- automata oracles

def successors(nfa: Nfa, q, label) -> set:
    return nfa.trans.get((q, label), set())


def accepts(dfa: Dfa, word) -> bool:
    q = dfa.initial
    for label in word:
        q = dfa.delta[q][dfa.alphabet.index(label)]
    return q in dfa.finals


def words_upto(dfa: Dfa, maxlen: int) -> set:
    """All words dfa accepts of length <= maxlen, as tuples of labels."""
    live = dfa.live_states()
    out = set()
    stack = [(dfa.initial, ())] if dfa.initial in live else []
    while stack:
        q, w = stack.pop()
        if q in dfa.finals:
            out.add(w)
        if len(w) < maxlen:
            for i, label in enumerate(dfa.alphabet):
                t = dfa.delta[q][i]
                if t in live:
                    stack.append((t, w + (label,)))
    return out


def from_words(words, alphabet) -> Dfa:
    """Complete DFA accepting exactly the given finite set of words."""
    words = {tuple(w) for w in words}
    trans: dict = {}
    finals = set()
    ids = {(): 0}
    order = [()]
    for w in sorted(words, key=lambda w: (len(w), tuple(map(repr, w)))):
        for i in range(1, len(w) + 1):
            pref = w[:i]
            if pref not in ids:
                ids[pref] = len(order)
                order.append(pref)
            trans.setdefault((ids[w[: i - 1]], pref[-1]), set()).add(ids[pref])
        finals.add(ids[w])
    nfa = Nfa(len(order), tuple(alphabet), trans, 0, finals)
    return determinize(nfa, tuple(alphabet))


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality of two complete DFAs over the same alphabet in the
    same order (else AlphabetError)."""
    if tuple(a.alphabet) != tuple(b.alphabet):
        raise AlphabetError("alphabet order differs")
    start = (a.initial, b.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        qa, qb = queue.popleft()
        if (qa in a.finals) != (qb in b.finals):
            return False
        for j in range(len(a.alphabet)):
            nxt = (a.delta[qa][j], b.delta[qb][j])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def shuffle(a: Dfa, b: Dfa) -> Dfa:
    """All interleavings of L(a) and L(b), as the complete product DFA;
    alphabets must be disjoint."""
    if set(a.alphabet) & set(b.alphabet):
        raise AlphabetError("shuffle requires disjoint alphabets")
    alphabet = a.alphabet + b.alphabet
    ids = {}
    order = []

    def intern(pq):
        if pq not in ids:
            ids[pq] = len(order)
            order.append(pq)
        return ids[pq]

    intern((a.initial, b.initial))
    delta = []
    i = 0
    while i < len(order):
        p, q = order[i]
        row = []
        for j in range(len(a.alphabet)):
            row.append(intern((a.delta[p][j], q)))
        for j in range(len(b.alphabet)):
            row.append(intern((p, b.delta[q][j])))
        delta.append(row)
        i += 1
    finals = frozenset(i for i, (p, q) in enumerate(order)
                       if p in a.finals and q in b.finals)
    return Dfa(alphabet, delta, 0, finals)


# ------------------------------------------------- formula and cache oracles

def num(k: int):
    return ("num", k)


def formula_from_json(obj):
    """The formula that cli.formula_to_json wrote as obj."""
    tag = obj[0]
    if tag in ("true", "false"):
        return (tag,)
    if tag in ("le", "eq", "ne"):
        return (tag, tuple((v, a) for v, a in obj[1]), obj[2])
    return (tag, tuple(formula_from_json(g) for g in obj[1]))


def cache_items(cache) -> list:
    """The ((pre, stmt id, post), verdict) pairs of an EntailmentCache,
    formulas decoded from their numbers."""
    fs = list(cache.fids)
    return [((fs[p], sid, fs[q]), v) for (p, sid, q), v in cache._data.items()]


# ------------------------------------------------- antichain and LTA oracles

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


def lta_singleton(dfa: Dfa) -> Lta:
    """Accepts exactly {L(dfa)} (deterministic)."""
    transitions = []
    for q, row in enumerate(dfa.delta):
        transitions.append([(q in dfa.finals, tuple(row))])
    return Lta(dfa.alphabet, transitions, dfa.initial)


def apply_inactive_step(m: Lta, current: set) -> set:
    """One application of the inactive-states operator."""
    out = set()
    for q in range(m.n):
        if all(any(succ[a] in current for a in range(len(m.alphabet)))
               for (_, succ) in m.transitions[q]):
            out.add(q)
    return out


def is_empty(m: Lta) -> bool:
    return m.initial in inactive_baseline(m).inactive


def partition_survivors_by_witnesses(children, dmasks, full: int) -> set:
    """The survivors of the partition orders in closed form: the maximal T
    inside some e(a, S) = (S|D(a))\\{a}, S in children[a], such that every
    letter b outside S|D(a) has an entry e(b, S') that holds T.  Tries every
    T below full."""
    pool = [(a, s | dmasks[a], (s | dmasks[a]) & ~(1 << a))
            for a, kids in enumerate(children) for s in kids]
    good = []
    for t in range(full + 1):
        holders = 0                # letters with an entry holding t
        for b, _, e in pool:
            if t & ~e == 0:
                holders |= 1 << b
        if any(t & ~e == 0 and full & ~sd & ~holders == 0
               for _, sd, e in pool):
            good.append(t)
    # good is downward closed: t is maximal iff adding no letter keeps it good
    good = set(good)
    return {t for t in good
            if not any(t | 1 << b in good for b in range(full.bit_length())
                       if not t >> b & 1)}


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
