"""Reference computations the tests check the engine against; the verifier
does not call them."""

from hyperweave.antichain import Stats, _meet_over_orders, ac_insert
from hyperweave.automata import Dfa
from hyperweave.reduction import OrderSource, _dep_masks


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
