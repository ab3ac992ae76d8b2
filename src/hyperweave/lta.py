"""Looping tree automata: constructions, emptiness, counterexample trees.

An LTA runs over boolean-labelled infinite trees whose nodes are the strings
of Sigma*; a transition (b, succ) at state q matches a node labelled b and
sends letter a's subtree to succ[a].  A language L is accepted iff some run
labels every node x with (x in L).  Emptiness reduces to the least fixpoint
of "inactive" states: q is inactive iff every transition of q has some letter
whose successor is inactive.

This module is the baseline engine (explicit states); the antichain module
implements the same check compactly for the program/proof intersection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .automata import Dfa
from .limits import check_deadline


class BrokenInvariant(Exception):
    """An internal invariant of a fixpoint or its witnesses failed."""


@dataclass
class Lta:
    alphabet: tuple
    transitions: list   # per state: list of (bool, tuple succ-state per letter)
    initial: int
    labels: list | None = None  # optional debug names per state

    @property
    def n(self) -> int:
        return len(self.transitions)


class _Builder:
    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.ids: dict = {}
        self.labels: list = []
        self.transitions: list = []

    def state(self, key) -> int:
        if key not in self.ids:
            self.ids[key] = len(self.labels)
            self.labels.append(key)
            self.transitions.append([])
        return self.ids[key]

    def done(self, initial_key) -> Lta:
        for q in range(len(self.transitions)):
            seen = set()
            uniq = []
            for t in self.transitions[q]:
                if t not in seen:
                    seen.add(t)
                    uniq.append(t)
            self.transitions[q] = uniq
        return Lta(self.alphabet, self.transitions, self.state(initial_key),
                   self.labels)


def lta_intersect(m1: Lta, m2: Lta, deadline: float | None = None) -> Lta:
    """Product accepting L(m1) & L(m2); boolean labels must agree pairwise.

    Gives up with ResourceLimit('timeout') past deadline."""
    if m1.alphabet != m2.alphabet:
        raise ValueError("alphabet mismatch")
    b = _Builder(m1.alphabet)
    k = len(m1.alphabet)
    root = (m1.initial, m2.initial)
    queue = deque([root])
    seen = {root}
    steps = 0
    while queue:
        q1, q2 = queue.popleft()
        q = b.state((q1, q2))
        for b1, s1 in m1.transitions[q1]:
            for b2, s2 in m2.transitions[q2]:
                steps += 1
                check_deadline(deadline, steps)
                if b1 != b2:
                    continue
                succ = []
                for a in range(k):
                    t = (s1[a], s2[a])
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
                    succ.append(t)
                b.transitions[q].append(
                    (b1, tuple(b.state(t) for t in succ)))
    return b.done(root)


def lta_powerset(dfa: Dfa) -> Lta:
    """Accepts exactly the sub-languages of L(dfa)."""
    transitions = []
    for q, row in enumerate(dfa.delta):
        succ = tuple(row)
        trans = [(False, succ)]
        if q in dfa.finals:
            trans.append((True, succ))
        transitions.append(trans)
    return Lta(dfa.alphabet, transitions, dfa.initial)


@dataclass
class InactiveSet:
    inactive: set                 # inactive state ids
    witness: dict                 # (state, trans_idx) -> letter index
    order: dict                   # state -> inactivation sequence number


def inactive_baseline(m: Lta, deadline: float | None = None) -> InactiveSet:
    """Least fixpoint of the inactive-states rule, with witness recording.

    Gives up with ResourceLimit('timeout') past deadline."""
    remaining = []
    for q in range(m.n):
        remaining.append(len(m.transitions[q]))
    # target -> (owner, trans_idx, letter); only the least letter per
    # (owner, trans_idx, target) so recorded witnesses use the lowest id
    k = len(m.alphabet)
    incoming: dict[int, list] = {}
    steps = 0
    for q in range(m.n):
        for ti, (_, succ) in enumerate(m.transitions[q]):
            steps += 1
            check_deadline(deadline, steps)
            best: dict[int, int] = {}
            for a in range(k - 1, -1, -1):
                best[succ[a]] = a
            for tgt, a in best.items():
                incoming.setdefault(tgt, []).append((q, ti, a))

    inactive: set = set()
    witness: dict = {}
    order: dict = {}
    queue = deque()
    for q in range(m.n):
        if remaining[q] == 0:
            inactive.add(q)
            order[q] = len(order)
            queue.append(q)
    while queue:
        s = queue.popleft()
        steps += 1
        check_deadline(deadline, steps)
        for (q, ti, a) in incoming.get(s, ()):
            if q in inactive or (q, ti) in witness:
                continue
            witness[(q, ti)] = a
            remaining[q] -= 1
            if remaining[q] == 0:
                inactive.add(q)
                order[q] = len(order)
                queue.append(q)
    return InactiveSet(inactive, witness, order)


@dataclass
class CexTree:
    """Counterexample forest rooted at the initial state.

    Nodes are LTA state ids; children(q) lists (letter_index, child_state)
    per transition, following recorded witnesses.  Leaves are states without
    transitions; root-to-leaf letter strings form the counterexample set.
    """

    m: Lta
    inact: InactiveSet
    _memo: dict = field(default_factory=dict)

    @property
    def root(self):
        return self.m.initial

    def is_leaf(self, q) -> bool:
        return not self.m.transitions[q]

    def children(self, q):
        hit = self._memo.get(q)
        if hit is not None:
            return hit
        out = []
        seen = set()
        for ti, (_, succ) in enumerate(self.m.transitions[q]):
            a = self.inact.witness[(q, ti)]
            child = succ[a]
            # witnesses follow the inductive derivation: the child was proved
            # inactive strictly earlier, so the tree is finite
            if self.inact.order[child] >= self.inact.order[q]:
                raise BrokenInvariant("witness not proved inactive earlier")
            if (a, child) not in seen:
                seen.add((a, child))
                out.append((a, child))
        out.sort()
        self._memo[q] = out
        return out


def build_counterexample_tree(m: Lta, inact: InactiveSet) -> CexTree:
    if m.initial not in inact.inactive:
        raise ValueError("automaton is not empty; no counterexample tree")
    return CexTree(m, inact)
