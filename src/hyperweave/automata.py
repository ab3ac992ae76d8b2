"""NFAs and complete DFAs over the statement alphabet.

Automata are generic over hashable letter labels; the verifier instantiates
labels with Stmt objects (ordered by id), tests mostly use strings.  Every
Dfa is total: a non-accepting sink completes the transition function.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


class AlphabetError(Exception):
    pass


@dataclass
class Nfa:
    n: int
    alphabet: tuple
    trans: dict  # (state, label) -> set of states
    initial: int
    finals: set

    def successors(self, q, label):
        return self.trans.get((q, label), set())


@dataclass
class Dfa:
    alphabet: tuple          # letter labels; index order is canonical
    delta: list              # delta[state][letter_index] -> state
    initial: int
    finals: frozenset

    @property
    def n(self) -> int:
        return len(self.delta)

    def letter_index(self, label) -> int:
        try:
            return self.alphabet.index(label)
        except ValueError:
            raise AlphabetError(f"{label!r} not in alphabet") from None

    def step(self, q: int, label) -> int:
        return self.delta[q][self.letter_index(label)]

    def accepts(self, word) -> bool:
        q = self.initial
        for label in word:
            q = self.step(q, label)
        return q in self.finals

    def words_upto(self, maxlen: int) -> set:
        """All accepted words of length <= maxlen, as tuples of labels."""
        live = self.live_states()
        out = set()
        stack = [(self.initial, ())] if self.initial in live else []
        while stack:
            q, w = stack.pop()
            if q in self.finals:
                out.add(w)
            if len(w) < maxlen:
                for i, label in enumerate(self.alphabet):
                    t = self.delta[q][i]
                    if t in live:
                        stack.append((t, w + (label,)))
        return out

    def live_states(self) -> set:
        """States from which some final state is reachable."""
        rev = [[] for _ in range(self.n)]
        for q, row in enumerate(self.delta):
            for t in row:
                rev[t].append(q)
        live = set(self.finals)
        queue = deque(self.finals)
        while queue:
            q = queue.popleft()
            for p in rev[q]:
                if p not in live:
                    live.add(p)
                    queue.append(p)
        return live

    def to_dot(self, name: str = "dfa") -> str:
        lines = [f"digraph {name} {{"]
        for q, row in enumerate(self.delta):
            shape = "doublecircle" if q in self.finals else "circle"
            lines.append(f'  {q} [shape={shape}];')
        for q, row in enumerate(self.delta):
            for i, t in enumerate(row):
                lines.append(f'  {q} -> {t} [label="{self.alphabet[i]}"];')
        lines.append("}")
        return "\n".join(lines)


def check_wellformed(dfa: Dfa):
    assert 0 <= dfa.initial < dfa.n
    assert all(0 <= q < dfa.n for q in dfa.finals)
    k = len(dfa.alphabet)
    for row in dfa.delta:
        assert len(row) == k
        assert all(0 <= t < dfa.n for t in row)


def determinize(nfa: Nfa, alphabet=None) -> Dfa:
    """Subset construction; the empty macro-state is the completing sink."""
    if alphabet is None:
        alphabet = nfa.alphabet
    start = frozenset({nfa.initial})
    macro_ids = {start: 0}
    order = [start]
    delta = []
    queue = deque([start])
    while queue:
        macro = queue.popleft()
        row = []
        for label in alphabet:
            nxt = set()
            for q in macro:
                nxt |= nfa.trans.get((q, label), set())
            nxt = frozenset(nxt)
            if nxt not in macro_ids:
                macro_ids[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(macro_ids[nxt])
        delta.append(row)
    finals = frozenset(i for i, m in enumerate(order) if m & nfa.finals)
    return Dfa(tuple(alphabet), delta, 0, finals)


def eliminate_epsilon(n: int, trans: dict, eps: dict, initial: int, finals: set, alphabet) -> Nfa:
    """Fold epsilon edges into an epsilon-free Nfa."""
    closure = {}
    for q in range(n):
        seen = {q}
        stack = [q]
        while stack:
            p = stack.pop()
            for r in eps.get(p, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        closure[q] = seen
    out_trans: dict = {}
    for (q, label), targets in trans.items():
        full = set()
        for t in targets:
            full |= closure[t]
        for p in range(n):
            if q in closure[p]:
                out_trans.setdefault((p, label), set()).update(full)
    out_finals = {q for q in range(n) if closure[q] & finals}
    return Nfa(n, tuple(alphabet), out_trans, initial, out_finals)


def shuffle(a: Dfa, b: Dfa) -> Dfa:
    """All interleavings of L(a) and L(b); alphabets must be disjoint."""
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


def reindex(dfa: Dfa, alphabet: tuple) -> Dfa:
    """View dfa over the given alphabet ordering (same label set)."""
    if set(alphabet) != set(dfa.alphabet) or len(alphabet) != len(dfa.alphabet):
        raise AlphabetError("alphabet mismatch")
    perm = [dfa.letter_index(label) for label in alphabet]
    delta = [[row[j] for j in perm] for row in dfa.delta]
    return Dfa(tuple(alphabet), delta, dfa.initial, dfa.finals)


def first_difference_trace(p: Dfa, pi: Dfa):
    """Length-lex least word in L(p) \\ L(pi), or None if inclusion holds.

    Both automata must be complete over the same alphabet; ties within a
    length are broken by alphabet (statement id) order.
    """
    pi = reindex(pi, p.alphabet)
    start = (p.initial, pi.initial)
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        (qp, qi), word = queue.popleft()
        if qp in p.finals and qi not in pi.finals:
            return list(word)
        for j in range(len(p.alphabet)):
            nxt = (p.delta[qp][j], pi.delta[qi][j])
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, word + (p.alphabet[j],)))
    return None


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality of two complete DFAs over the same label set."""
    b = reindex(b, a.alphabet)
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


def minimize(dfa: Dfa) -> Dfa:
    """Moore partition refinement (merges language-equivalent states)."""
    k = len(dfa.alphabet)
    block = [1 if q in dfa.finals else 0 for q in range(dfa.n)]
    while True:
        sigs = {}
        new_block = []
        for q in range(dfa.n):
            sig = (block[q],) + tuple(block[dfa.delta[q][j]] for j in range(k))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_block.append(sigs[sig])
        if new_block == block:
            break
        block = new_block
    nblocks = max(block) + 1 if block else 1
    rep = {}
    for q in range(dfa.n):
        rep.setdefault(block[q], q)
    delta = []
    for b in range(nblocks):
        q = rep[b]
        delta.append([block[dfa.delta[q][j]] for j in range(k)])
    finals = frozenset(block[q] for q in dfa.finals)
    return Dfa(dfa.alphabet, delta, block[dfa.initial], finals)


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
