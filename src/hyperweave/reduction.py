"""Sleep-set reductions: order sources and the reduction LTA.

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
