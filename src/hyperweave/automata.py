"""NFAs and complete DFAs over the statement alphabet.

Automata are generic over hashable letter labels; the verifier instantiates
labels with Stmt objects (ordered by id), tests mostly use strings.  Every
Dfa is total: a non-accepting sink completes the transition function.
A LazyDfa is the subset construction of an Nfa built one row at a time; it
and Dfa share the read interface ``alphabet``, ``initial``, ``row(q)`` and
``is_final(q)``.  A proof automaton is read only through that interface on
a LazyDfa; the eager ``determinize`` is kept only for the explicit-LTA
baseline.  ``minimize`` gives the canonical minimal DFA of a language, its
states numbered breadth-first; program lowering builds its DFAs directly,
a shuffle product included, and normalizes them with it alone.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .limits import check_deadline


class AlphabetError(Exception):
    pass


@dataclass
class Nfa:
    n: int
    alphabet: tuple
    trans: dict  # (state, label) -> set of states
    initial: int
    finals: set


@dataclass
class Dfa:
    alphabet: tuple          # letter labels; index order is canonical
    delta: list              # delta[state][letter_index] -> state
    initial: int
    finals: frozenset

    @property
    def n(self) -> int:
        return len(self.delta)

    def row(self, q: int) -> list:
        return self.delta[q]

    def is_final(self, q: int) -> bool:
        return q in self.finals

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


def determinize(nfa: Nfa, alphabet=None, deadline: float | None = None) -> Dfa:
    """Subset construction; the empty macro-state is the completing sink.

    Expands a LazyDfa fully, in the order its states are numbered; gives up
    with ResourceLimit('timeout') past deadline.
    """
    lazy = LazyDfa(nfa, alphabet)
    delta = []
    while len(delta) < lazy.n:
        check_deadline(deadline, len(delta))
        delta.append(lazy.row(len(delta)))
    finals = frozenset(q for q in range(lazy.n) if lazy.is_final(q))
    return Dfa(lazy.alphabet, delta, lazy.initial, finals)


class LazyDfa:
    """The subset construction of nfa over alphabet, expanded on demand.

    Macro-states are int bitmasks over NFA states, numbered in the order they
    are first reached; state 0 is {initial} and the empty mask is the sink.
    ``row(q)`` builds state q's successor row on first use, so only the
    macro-states whose rows some caller reads are ever expanded.
    """

    def __init__(self, nfa: Nfa, alphabet=None):
        self.alphabet = tuple(nfa.alphabet if alphabet is None else alphabet)
        index = {label: a for a, label in enumerate(self.alphabet)}
        # _succ[a][p]: mask of the NFA successors of state p on letter a
        self._succ = [[0] * nfa.n for _ in self.alphabet]
        for (p, label), targets in nfa.trans.items():
            a = index.get(label)
            if a is not None:
                self._succ[a][p] = sum(1 << t for t in targets)
        self._finals = sum(1 << q for q in nfa.finals)
        self.initial = 0
        self._masks = [1 << nfa.initial]
        self._ids = {self._masks[0]: 0}
        self._rows: list = [None]
        self._live = None        # mask of the NFA states reaching a final one
        self.rows_built = 0

    def _intern(self, mask: int) -> int:
        q = self._ids.get(mask)
        if q is None:
            q = self._ids[mask] = len(self._masks)
            self._masks.append(mask)
            self._rows.append(None)
        return q

    def row(self, q: int) -> list:
        row = self._rows[q]
        if row is None:
            mask = self._masks[q]
            states = [p for p in range(mask.bit_length()) if mask >> p & 1]
            row = []
            for succ in self._succ:
                nxt = 0
                for p in states:
                    nxt |= succ[p]
                row.append(self._intern(nxt))
            self._rows[q] = row
            self.rows_built += 1
        return row

    @property
    def n(self) -> int:
        """Macro-states reached so far."""
        return len(self._masks)

    def is_final(self, q: int) -> bool:
        return self._masks[q] & self._finals != 0

    def is_live(self, q: int) -> bool:
        """Whether a final macro-state is reachable from q: exactly when one
        of q's NFA states reaches a final NFA state.  Expands no row."""
        if self._live is None:
            live, grown = 0, self._finals
            while grown != live:
                live = grown
                for succ in self._succ:
                    for p, mask in enumerate(succ):
                        if mask & live:
                            grown |= 1 << p
            self._live = live
        return self._masks[q] & self._live != 0


def first_difference_trace(p: Dfa, pi, deadline: float | None = None):
    """Length-lex least word in L(p) \\ L(pi), or None if inclusion holds.

    p is a complete Dfa; pi is read only through ``row``/``is_final``, so it
    may be a Dfa or a LazyDfa.  Both must have the same alphabet in the same
    order (else AlphabetError); ties within a length are broken by that
    order.  Pairs whose p state reaches no final state are skipped: every
    prefix of the least difference word ends in a live p state, so the
    answer is unchanged, and pi's rows below p's dead states are never read.
    Gives up with ResourceLimit('timeout') past deadline.
    """
    if tuple(pi.alphabet) != tuple(p.alphabet):
        raise AlphabetError("alphabet order differs")
    live = p.live_states()
    start = (p.initial, pi.initial)
    seen = {start}
    queue = deque([(start, ())])
    visited = 0
    while queue:
        visited += 1
        check_deadline(deadline, visited)
        (qp, qi), word = queue.popleft()
        if qp in p.finals and not pi.is_final(qi):
            return list(word)
        for label, tp, ti in zip(p.alphabet, p.delta[qp], pi.row(qi)):
            if tp in live and (tp, ti) not in seen:
                seen.add((tp, ti))
                queue.append(((tp, ti), word + (label,)))
    return None


def minimize(dfa: Dfa) -> Dfa:
    """The minimal complete DFA of L(dfa), in canonical form: Moore
    partition refinement merges language-equivalent states, then the blocks
    reachable from the initial one are numbered breadth-first, letters in
    alphabet order, and the others dropped.  So minimize(d) depends only on
    L(d) and the order of d.alphabet, and minimize(minimize(d)) == minimize(d).
    """
    block = [1 if q in dfa.finals else 0 for q in range(dfa.n)]
    while True:
        sigs = {}
        new_block = [sigs.setdefault((block[q], *map(block.__getitem__, row)),
                                     len(sigs))
                     for q, row in enumerate(dfa.delta)]
        if new_block == block:
            break
        block = new_block
    ids = {block[dfa.initial]: 0}      # block -> its number
    reps = [dfa.initial]               # the first state reached in each block
    delta = []
    for q in reps:                     # grows as blocks are reached
        for t in dfa.delta[q]:
            if block[t] not in ids:
                ids[block[t]] = len(reps)
                reps.append(t)
        delta.append([ids[block[t]] for t in dfa.delta[q]])
    finals = frozenset(i for i, q in enumerate(reps) if q in dfa.finals)
    return Dfa(dfa.alphabet, delta, 0, finals)
