"""Antichain-optimized emptiness for the program/proof intersection LTA.

A state of the intersection automaton is ((q_P, iota, S), q_Pi).  States with
iota set are never inactive, so the table only tracks iota = false; for fixed
(q_P, q_Pi) the inactive sleep sets form a downward-closed family represented
by its maximal elements (an antichain of bitmasks).  The fixpoint is computed
lazily cell by cell with dependency tracking; witnesses are reconstructed on
demand from per-element insertion ranks rather than stored per order.

Cells are numbered in materialization order, and the engine keeps each
cell's state in lists indexed by its number.  A cell's first evaluation
materializes its live children and registers it as their parent; later
evaluations only read the children's values.  A cell's value is a pure
function of its children's antichains, so the survivor computation goes
through a SurvivorMemo: antichains are interned, sorted, as small ints, so
an id stands for one set and a value changed iff its id did; a cell is
keyed by its (letter, antichain id) pairs, and one memo serves every check
of a refinement loop.  joins/meets count the computations actually made;
memo_hits counts the ones answered by the memo.

The proof side is read only through ``row(q)`` and ``is_final(q)``, so it may
be a LazyDfa whose subset construction is expanded just for the macro-states
that live cells reach.  A cell whose program state cannot reach a final
state never meets the [full] leaf case below it, so its value is [] under
every order family: such cells are never materialized.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import asdict, dataclass
from itertools import islice

from .automata import AlphabetError, Dfa
from .limits import ResourceLimit, check_deadline
from .lta import BrokenInvariant
from .reduction import OrderSource, _dep_masks

MAX_CELLS = 2000000                # fixpoint cells before ResourceLimit
SURVIVOR_CAP = 50000               # partition survivor search states
CEX_CAP = 200000                   # pending-stack cap of the 'pe' strategy
LEAF_COUNT_CAP = 10 ** 9           # leaf counts saturate here


# ---------------------------------------------------------- antichain bits

def ac_covers(items, m: int) -> bool:
    for e in items:
        if m & ~e == 0:
            return True
    return False


def ac_insert(items: list, m: int) -> bool:
    """Insert into a maximal-element list; False if m was subsumed."""
    for e in items:
        if m & ~e == 0:
            return False
    items[:] = [e for e in items if e & ~m]
    items.append(m)
    return True


def ac_meet(x, y) -> list:
    out: list = []
    for a in x:
        for b in y:
            ac_insert(out, a & b)
    return out


# ------------------------------------------------------------------ stats

@dataclass
class Stats:
    cells: int = 0
    fmax_calls: int = 0
    joins: int = 0
    meets: int = 0
    peak_width: int = 0
    births: int = 0
    memo_hits: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


# ------------------------------------------------------------- fmax steps

def _meet_over_orders(children, dmasks, relations, full: int, stats) -> list:
    acc = [full]
    k = len(children)
    for r in relations:
        join: list = []
        for a in range(k):
            guard = r[a] & ~dmasks[a]
            elem_or = dmasks[a]
            abit = 1 << a
            for s in children[a]:
                if guard & ~s == 0:
                    ac_insert(join, (s | elem_or) & ~abit)
        if stats:
            stats.joins += 1
        acc = ac_meet(acc, join)
        if stats:
            stats.meets += 1
        if not acc:
            return []
    acc.sort()
    return acc


def _partition_survivors(children, dmasks, full: int, stats) -> list:
    """Collapsed meet over all partition orders, sorted ascending.

    T is inactive iff some pool pair (a, S) with T <= e = (S|D(a))\\{a} also
    has Sigma minus the candidate letters of T (the a of every such pair)
    inside S|D(a), which holds iff it is inside e, a being a candidate; so
    iff some e holds T and Sigma minus the candidate letters.  Maximal
    survivors are intersections of pool elements, found by lattice descent.
    """
    es = []                        # e of each pool pair, in pool order
    letters_of: dict = {}          # e -> the letters of its pairs
    for a, kids in enumerate(children):
        abit = 1 << a
        da = dmasks[a]
        for s in kids:
            e = (s | da) & ~abit
            es.append(e)
            letters_of[e] = letters_of.get(e, 0) | abit
    if not es:
        return []
    start: list = []
    for e in es:
        ac_insert(start, e)
    # a pushed t & e is popped, latest first, only once: descending over the
    # last occurrence of each e pushes the same sets in the same pop order
    descend = list(dict.fromkeys(reversed(es)))
    descend.reverse()
    pool = list(letters_of.items())
    result: list = []
    visited = set()
    stack = start
    while stack:
        t = stack.pop()
        if t in visited:
            continue
        visited.add(t)
        if len(visited) > SURVIVOR_CAP:
            raise ResourceLimit("partition survivor search exceeded cap")
        for r in result:
            if not t & ~r:
                break
        else:
            letters = 0
            for e, bits in pool:
                if not t & ~e:
                    letters |= bits
            u = t | full & ~letters
            for e in descend:
                if not u & ~e:
                    # t is not covered, so it joins result as ac_insert would
                    result = [r for r in result if r & ~t]
                    result.append(t)
                    if stats:
                        stats.joins += 1
                    break
            else:
                for e in descend:
                    if t & ~e:
                        t2 = t & e
                        if t2 not in visited:
                            stack.append(t2)
    result.sort()
    return result


# -------------------------------------------------------------------- memo

class SurvivorMemo:
    """Cell values by children, shared by the checks of one program.

    Antichains are interned as ids of their elements sorted ascending, the
    order the survivor computations return, so an id stands for one set:
    two values are equal iff their ids are.  Id 0 is the empty antichain.
    A key is the tuple of id * k + letter over a cell's non-empty children,
    in letter order; table maps it to the id of the cell's value.  The memo
    is bound to the first engine's (k, dependence masks, order family) and
    refuses any other.
    """

    def __init__(self):
        self.binding = None
        self.values: list = [()]          # id -> antichain tuple
        self._ids: dict = {(): 0}
        self.table: dict = {}

    def bind(self, k: int, dmasks, kind: str):
        binding = (k, tuple(dmasks), kind)
        if self.binding is None:
            self.binding = binding
        elif binding != self.binding:
            raise ValueError("survivor memo bound to another alphabet, "
                             "dependence relation or order family")

    def intern(self, value) -> int:
        value = tuple(value)
        vid = self._ids.get(value)
        if vid is None:
            vid = self._ids[value] = len(self.values)
            self.values.append(value)
        return vid


# ------------------------------------------------------------------ engine

@dataclass
class CheckResult:
    covered: bool
    forest: "CexForest | None"
    stats: Stats


class CheckEngine:
    """The fixpoint over cells (program state, proof state).

    api is a Dfa or LazyDfa over ap's alphabet in the same order; run()
    gives up with ResourceLimit('timeout') after deadline.  memo may carry
    cell values over from earlier checks of the same program (default: a
    fresh one).  cells maps a cell to its number, in materialization order;
    lists indexed by the number hold the rest: the memo id of its value (0
    until it has one), its children's numbers, its parents and the births
    of its elements.
    """

    def __init__(self, ap: Dfa, api, dep, orders: OrderSource,
                 deadline: float | None = None,
                 memo: SurvivorMemo | None = None):
        if tuple(api.alphabet) != tuple(ap.alphabet):
            raise AlphabetError("proof alphabet order differs from the program's")
        self.ap = ap
        self.api = api
        self.live = ap.live_states()   # states that can reach a final state
        self.deadline = deadline
        self.k = len(ap.alphabet)
        self.full = (1 << self.k) - 1
        self.dmasks = _dep_masks(dep, self.k)
        self.orders = orders
        self.partition = orders.kind == "partition"
        self.relations = None if self.partition else orders.relations(self.k)
        self.memo = SurvivorMemo() if memo is None else memo
        self.memo.bind(self.k, self.dmasks, orders.kind)
        self._leaf = self.memo.intern((self.full,))
        # per program state: the letters leading to a live state
        self._live_letters = [tuple(a for a, q in enumerate(row)
                                    if q in self.live) for row in ap.delta]
        self.cells: dict = {}
        self._cell: list = []          # number -> (q_P, q_Pi)
        self._value: list = []         # number -> memo id of its value
        # number -> children's numbers, one per live letter of its program
        # state, wired on its first evaluation (None before, and on a leaf)
        self._kids: list = []
        # parents in wiring order: a set's order would make the work
        # depend on how the program's states are numbered
        self._parents: list = []
        self._archive: list = []       # number -> [(element, birth)] or None
        self.stats = Stats()
        self._queue: deque = deque()
        self._queued = bytearray()

    def _materialize(self, cell) -> int:
        """The number of cell, which is queued when it is first seen."""
        c = self.cells.get(cell)
        if c is None:
            c = len(self._cell)
            if c >= MAX_CELLS:
                raise ResourceLimit("antichain fixpoint exceeded cell cap")
            self.cells[cell] = c
            self._cell.append(cell)
            self._value.append(0)
            self._kids.append(None)
            self._parents.append([])
            self._archive.append(None)
            self._queued.append(1)
            self._queue.append(c)
            self.stats.cells += 1
        return c

    def _fmax(self, c: int) -> int:
        """The memo id of cell c's next value."""
        stats = self.stats
        stats.fmax_calls += 1
        check_deadline(self.deadline, stats.fmax_calls)
        qp, qpi = self._cell[c]
        kids = self._kids[c]
        if kids is None:               # first evaluation: wire the children
            if qp in self.ap.finals and not self.api.is_final(qpi):
                return self._leaf
            rowp, rowpi = self.ap.delta[qp], self.api.row(qpi)
            materialize, parents = self._materialize, self._parents
            kids = []
            for a in self._live_letters[qp]:
                child = materialize((rowp[a], rowpi[a]))
                parents[child].append(c)
                kids.append(child)
            self._kids[c] = kids = tuple(kids)
        k, values = self.k, self._value
        key = []
        for a, child in zip(self._live_letters[qp], kids):
            vid = values[child]
            if vid:
                key.append(vid * k + a)
        key = tuple(key)
        memo = self.memo
        hit = memo.table.get(key)
        if hit is not None:
            stats.memo_hits += 1
            return hit
        children = [()] * k
        for n in key:
            children[n % k] = memo.values[n // k]
        if self.partition:
            value = _partition_survivors(children, self.dmasks, self.full,
                                         stats)
        else:
            value = _meet_over_orders(children, self.dmasks, self.relations,
                                      self.full, stats)
        memo.table[key] = vid = memo.intern(value)
        return vid

    def run(self) -> bool:
        """Compute the fixpoint; True iff the initial state stays active."""
        init = (self.ap.initial, self.api.initial)
        if init[0] not in self.live:
            return True
        root = self._materialize(init)
        stats, values = self.stats, self.memo.values
        value, parents, archive = self._value, self._parents, self._archive
        queue, queued = self._queue, self._queued
        births = 0
        while queue:
            c = queue.popleft()
            queued[c] = 0
            new_id = self._fmax(c)
            old_id = value[c]
            if new_id == old_id:       # ids are sets: the value is unchanged
                continue
            old, new = values[old_id], values[new_id]
            for m in old:
                if not ac_covers(new, m):
                    raise BrokenInvariant("fixpoint regressed")
            arch = archive[c]
            if arch is None:
                arch = archive[c] = []
            for m in new:
                if m not in old:
                    births += 1
                    arch.append((m, births))
            value[c] = new_id
            stats.peak_width = max(stats.peak_width, len(new))
            for p in parents[c]:
                if not queued[p]:
                    queued[p] = 1
                    queue.append(p)
        stats.births = births
        return not value[root]

    # ---- witness reconstruction

    def rank(self, cell, s: int):
        c = self.cells.get(cell)
        arch = None if c is None else self._archive[c]
        if not arch:
            return None
        best = None
        for m, birth in arch:
            if s & ~m == 0 and (best is None or birth < best):
                best = birth
        return best


def check(ap: Dfa, api, dep, orders: OrderSource, thin: bool = False,
          deadline: float | None = None,
          memo: SurvivorMemo | None = None) -> CheckResult:
    """Does some reduction of L(ap) lie inside L(api)?

    Covered (covered=True) iff the intersection LTA's initial state is
    active, i.e. the fixpoint antichain at the initial cell is empty.
    thin selects the thinned counterexample forest (bounded strategies);
    api, deadline and memo are as for CheckEngine.
    """
    engine = CheckEngine(ap, api, dep, orders, deadline, memo)
    covered = engine.run()
    forest = None if covered else CexForest(engine, thin=thin)
    return CheckResult(covered, forest, engine.stats)


# -------------------------------------------------------- witnesses / tree

class CexForest:
    """Counterexample tree of the inactivity proof, unfolded on demand.

    Nodes are (q_P, q_Pi, sleep mask); children follow per-order witness
    letters whose successor has strictly smaller rank (the derivation order),
    which bounds the tree depth.  Shared sleep sets reuse the subsuming
    maximal element's witnesses.
    """

    def __init__(self, engine: CheckEngine, thin: bool = False):
        self.e = engine
        # thin forests follow only the no-order witness edges: sound leaves,
        # but no per-order adequacy (fine for the bounded strategies)
        self.thin = thin
        self._children: dict = {}
        self.root = (engine.ap.initial, engine.api.initial, 0)

    def is_leaf(self, node) -> bool:
        qp, qpi, _ = node
        return qp in self.e.ap.finals and not self.e.api.is_final(qpi)

    def children(self, node):
        hit = self._children.get(node)
        if hit is not None:
            return hit
        qp, qpi, s = node
        if self.is_leaf(node):
            raise BrokenInvariant("children requested for a leaf")
        cell = (qp, qpi)
        r0 = self.e.rank(cell, s)
        if r0 is None:
            raise BrokenInvariant("children requested for an active state")
        rowp, rowpi = self.e.ap.delta[qp], self.e.api.row(qpi)

        def child_of(a: int, sleep: int):
            return (rowp[a], rowpi[a], sleep)

        def valid(a: int, sleep: int) -> bool:
            rr = self.e.rank((rowp[a], rowpi[a]), sleep)
            return rr is not None and rr < r0

        k, dmasks = self.e.k, self.e.dmasks
        out = set()
        if self.e.partition:
            valid_a = [a for a in range(k)
                       if not s >> a & 1 and valid(a, s & ~dmasks[a])]
            for a in valid_a:
                out.add((a, child_of(a, s & ~dmasks[a])))
            if self.thin:
                # the partition order with an empty second part gives
                # every inactive node a valid letter
                if not valid_a:
                    raise BrokenInvariant("no witness letter for a node")
                result = sorted(out)
                self._children[node] = result
                return result
            rest = [a for a in range(k) if a not in valid_a]
            # partitions whose second component misses every valid_a letter
            for sub in _subsets(rest):
                for b in range(k):
                    if sub >> b & 1 or s >> b & 1:
                        continue
                    sleep = (s | sub) & ~dmasks[b]
                    if valid(b, sleep):
                        out.add((b, child_of(b, sleep)))
                        break
                else:
                    raise BrokenInvariant(
                        "no witness letter for a partition order")
        else:
            for r in self.e.relations:
                for a in range(k):
                    if s >> a & 1:
                        continue
                    sleep = (s | r[a]) & ~dmasks[a]
                    if valid(a, sleep):
                        out.add((a, child_of(a, sleep)))
                        break
                else:
                    raise BrokenInvariant("no witness letter for a linear order")
        result = sorted(out)
        self._children[node] = result
        return result


def _subsets(letters: list):
    n = len(letters)
    if n > 14:
        raise ResourceLimit("too many partition subsets in witness search")
    for bits in range(1 << n):
        mask = 0
        for i in range(n):
            if bits >> i & 1:
                mask |= 1 << letters[i]
        yield mask


# -------------------------------------------------------------- strategies

@dataclass(frozen=True)
class Strategy:
    kind: str          # 'naive' | 'pe' | 'bpe'
    mode: str = "rr"   # for bpe: 'rr' | 'l' | 'm'
    n: int = 1

    @staticmethod
    def parse(text: str) -> "Strategy":
        text = text.lower()
        if text in ("naive", "pe"):
            return Strategy(text)
        if text == "bpe-rr":
            return Strategy("bpe", "rr")
        m = re.fullmatch(r"bpe-([lm])(-?\d+)?", text)
        if m is None:
            raise ValueError(f"unknown strategy {text!r}")
        n = int(m[2] or "1")
        if n < 1:
            raise ValueError(f"strategy {text!r} needs N >= 1")
        return Strategy("bpe", m[1], n)

    def __str__(self):
        if self.kind != "bpe":
            return self.kind
        return f"bpe-{self.mode}" + ("" if self.mode == "rr" else str(self.n))


def leaf_count(forest) -> dict:
    """Number of leaves below every reachable node (counts capped)."""
    counts: dict = {}
    stack = [(forest.root, False)]
    while stack:
        node, post = stack.pop()
        if post:
            total = sum(counts[c] for _, c in forest.children(node))
            counts[node] = min(total, LEAF_COUNT_CAP)
            continue
        if node in counts:
            continue
        if forest.is_leaf(node):
            counts[node] = 1
            continue
        stack.append((node, True))
        for _, child in forest.children(node):
            if child not in counts:
                stack.append((child, False))
    return counts


def _kth_leaf(forest, counts, index: int) -> tuple:
    node = forest.root
    path = []
    while not forest.is_leaf(node):
        for a, child in forest.children(node):
            c = counts[child]
            if index < c:
                path.append(a)
                node = child
                break
            index -= c
        else:
            raise IndexError("leaf index out of range")
    return tuple(path)


def _leaf_strings(forest, cap: int | None = None):
    """Root-to-leaf strings in branch (DFS) order, deduplicated, lazily.

    cap bounds the pending stack (None: unbounded)."""
    seen = set()
    stack = [(forest.root, ())]
    while stack:
        node, path = stack.pop()
        if forest.is_leaf(node):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for a, child in reversed(forest.children(node)):
            stack.append((child, path + (a,)))
        if cap is not None and len(stack) > cap:
            raise ResourceLimit("counterexample tree too large")


def all_leaf_strings(forest, cap: int = CEX_CAP) -> list:
    """Every root-to-leaf string in branch (DFS) order, deduplicated."""
    return list(_leaf_strings(forest, cap))


def leftmost_leaves(forest, n: int) -> list:
    """The first n strings of the traversal all_leaf_strings uses."""
    return list(islice(_leaf_strings(forest), n))


def middlemost_leaves(forest, n: int) -> list:
    counts = leaf_count(forest)
    total = counts[forest.root]
    center = (total + 1) // 2  # 1-based ceil(k/2)
    lo = max(0, center - 1 - (n - 1) // 2)
    hi = min(total, lo + n)
    lo = max(0, hi - n)
    out = []
    seen = set()
    for i in range(lo, hi):
        w = _kth_leaf(forest, counts, i)
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def rr_leaf(forest, alphabet) -> tuple:
    """Greedy lockstep descent: prefer the thread the rotation expects."""
    threads = sorted({st.thread for st in alphabet})
    node = forest.root
    path = []
    depth = 0
    while not forest.is_leaf(node):
        kids = forest.children(node)
        pick = None
        for off in range(len(threads)):
            want = threads[(depth + off) % len(threads)]
            for a, child in kids:
                if alphabet[a].thread == want:
                    pick = (a, child)
                    break
            if pick:
                break
        path.append(pick[0])
        node = pick[1]
        depth += 1
    return tuple(path)


def extract_counterexamples(forest, alphabet, strategy: Strategy,
                            cap: int = CEX_CAP) -> list:
    """Leaf strings chosen by the strategy, as tuples of letter indices."""
    if strategy.kind == "pe":
        return all_leaf_strings(forest, cap)
    if strategy.kind != "bpe":
        raise ValueError(f"strategy {strategy} is not tree-based")
    if strategy.mode == "rr":
        return [rr_leaf(forest, alphabet)]
    if strategy.mode == "l":
        return leftmost_leaves(forest, strategy.n)
    return middlemost_leaves(forest, strategy.n)
