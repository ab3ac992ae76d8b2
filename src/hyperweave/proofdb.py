"""Assertions, Hoare triples, the proof NFA, feasibility, interpolation.

All solver contact goes through one ``SolverClient``, which solves in this
process with ``lia``.  Entailment verdicts are cached across refinement
rounds.  ``hoare_verdicts`` is the one place that decides Hoare triples: the
proof NFA's edges and each interpolation chain (all its triples in one
batch, through the same cache) go through it, so a generation bug can never
produce an unsound proof automaton.  A ``safe`` verdict carries its edges as
one ``pack_edges`` int; rebuilding its automaton needs no solver.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import lcm

from . import exprs, lia
from .automata import Nfa
from .exprs import FALSE, TRUE
from .frontend import Stmt
from .limits import check_deadline


class SolverError(Exception):
    """The solver answered unknown or could not handle a formula."""


# What lia and exprs raise on formulas they cannot handle.
_LIA_ERRORS = (ValueError, exprs.NonlinearError, OverflowError, RecursionError)


class SolverClient:
    """Satisfiability of conjunctions of canonical formulas, solved in this
    process by ``lia.solve_formula``.  An ``unknown`` answer or a solver
    fault raises SolverError."""

    def __init__(self):
        self.num_queries = 0

    @staticmethod
    def _solve(formulas):
        try:
            res, model = lia.solve_formula(exprs.c_and(formulas))
        except _LIA_ERRORS as e:
            raise SolverError(f"solver raised {e!r}") from e
        if res not in ("sat", "unsat"):
            raise SolverError(f"solver answered {res!r} on: {_detail(formulas)}")
        return res, model

    def check_sat(self, formulas, get_model: bool = False):
        """Returns ('sat', model|None) / ('unsat', None); raises on unknown."""
        self.num_queries += 1
        res, model = self._solve(formulas)
        return res, (model if get_model else None)

    BATCH = 400

    def check_sat_batch(self, queries, deadline: float | None = None) -> list:
        """Satisfiability of many conjunctions (no models).

        queries: list of formula lists; returns 'sat'/'unsat' per entry.
        They go in chunks of BATCH; between chunks, a passed deadline raises
        ResourceLimit('timeout').
        """
        out = []
        for lo in range(0, len(queries), self.BATCH):
            if lo:
                check_deadline(deadline)
            chunk = queries[lo: lo + self.BATCH]
            self.num_queries += len(chunk)
            out.extend(self._solve(formulas)[0] for formulas in chunk)
        return out

    def close(self):
        """Nothing to release; kept so that ``with SolverClient()`` works."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _detail(formulas) -> str:
    return "; ".join(exprs.fmt(f) for f in formulas)[:500]


# ----------------------------------------------------------------- wp / sp

def wp_stmt(stmt: Stmt, post):
    """Weakest precondition of a statement (or fused block) backwards."""
    f = post
    for op in reversed(stmt.ops):
        if op[0] == "assign":
            f = exprs.subst(f, op[1], op[2])
        else:
            f = exprs.c_or([exprs.negate(op[1]), f])
    return f


# -------------------------------------------------------------- entailment

class EntailmentCache:
    """Verdict cache for Hoare triples, shared across rounds."""

    def __init__(self):
        self._data: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        v = self._data.get(key)
        if v is None:
            self.misses += 1
        else:
            self.hits += 1
        return v

    def put(self, key, value: bool):
        self._data[key] = value

    def __len__(self):
        return len(self._data)


def syntactic_verdict(pre, stmt: Stmt, post, wpf):
    """Validity of {pre} stmt {post} on syntactic grounds (wpf is the weakest
    precondition of post), or None when the solver must decide."""
    if post == TRUE or pre == FALSE:
        return True
    if exprs.implies(pre, wpf):
        return True
    if wpf == FALSE:
        return pre == FALSE
    return None


def hoare_verdicts(triples, solver: SolverClient,
                   cache: EntailmentCache | None = None,
                   deadline: float | None = None) -> list[bool]:
    """Validity of each Hoare triple (pre, stmt, post): the one place that
    decides triples, by the cache, then syntactic_verdict, then one solver
    batch for the triples still open.  New verdicts go into the cache.
    deadline is passed on to SolverClient.check_sat_batch."""
    cache = cache if cache is not None else EntailmentCache()
    out: list = []
    wps: dict = {}                 # (stmt id, post) -> [wp, negated wp]
    pending: list = []             # (index into out, cache key)
    queries: list = []
    for pre, stmt, post in triples:
        key = (pre, stmt.id, post)
        verdict = cache.get(key)
        if verdict is None:
            wp = wps.get(key[1:])
            if wp is None:
                wp = wps[key[1:]] = [wp_stmt(stmt, post), None]
            verdict = syntactic_verdict(pre, stmt, post, wp[0])
            if verdict is None:
                if wp[1] is None:
                    wp[1] = exprs.negate(wp[0])
                pending.append((len(out), key))
                queries.append([pre, wp[1]])
            else:
                cache.put(key, verdict)
        out.append(verdict)
    for (k, key), res in zip(pending,
                             solver.check_sat_batch(queries, deadline)):
        out[k] = res == "unsat"
        cache.put(key, out[k])
    return out


# ------------------------------------------------------------------- proof

class Proof:
    """Deduplicated assertions: true at index 0, false at 1, then the rest."""

    def __init__(self, assertions=()):
        self.assertions: list = [TRUE, FALSE]
        self._index = {TRUE: 0, FALSE: 1}
        for f in assertions:
            self.add(f)

    def add(self, f) -> bool:
        if f in self._index:
            return False
        self._index[f] = len(self.assertions)
        self.assertions.append(f)
        return True

    def __len__(self):
        return len(self.assertions)

    def __iter__(self):
        return iter(self.assertions)


class ProofNfaBuilder:
    """Incrementally maintains the proof NFA while the proof grows.

    Only triples involving assertions added since the last build are sent to
    the solver; everything else is served by the entailment cache or the
    stored edge set.  deadline is passed on to hoare_verdicts.
    """

    def __init__(self, alphabet, solver: SolverClient, cache: EntailmentCache,
                 deadline: float | None = None):
        self.alphabet = tuple(alphabet)
        self.solver = solver
        self.cache = cache
        self.deadline = deadline
        self.n = 0                 # assertions the edges cover
        self.edges: set = set()  # (pre_idx, stmt_id, post_idx)

    def extend(self, proof: Proof) -> Nfa:
        old_n, n, fs = self.n, len(proof), proof.assertions
        self.n = n
        new = [(i, stmt, j) for stmt in self.alphabet for j in range(n)
               for i in range(n) if i >= old_n or j >= old_n]
        verdicts = hoare_verdicts([(fs[i], stmt, fs[j]) for i, stmt, j in new],
                                  self.solver, self.cache, self.deadline)
        self.edges.update((i, stmt.id, j)
                          for (i, stmt, j), valid in zip(new, verdicts) if valid)
        return proof_nfa(n, self.alphabet, self.edges)


def proof_nfa(n: int, alphabet, edges) -> Nfa:
    """The proof NFA of a Proof of n assertions: one state per assertion,
    one transition per (pre index, statement id, post index) edge."""
    stmt_by_id = {s.id: s for s in alphabet}
    trans: dict = {}
    for (i, sid, j) in edges:
        trans.setdefault((i, stmt_by_id[sid]), set()).add(j)
    return Nfa(n, tuple(alphabet), trans, 0, {1})


def pack_edges(edges, alphabet, n: int) -> int:
    """(pre, stmt id, post) edges over n assertions as one int: bit
    (pre * k + a) * n + post is the edge on alphabet[a] (k letters)."""
    pos, k = {s.id: a for a, s in enumerate(alphabet)}, len(alphabet)
    digits = bytearray(b"0" * (n * k * n + 1))
    for i, sid, j in edges:
        digits[(i * k + pos[sid]) * n + j] = ord("1")
    return int(digits[::-1], 2)


def unpack_edges(bits: int, alphabet, n: int) -> list:
    """The edges of a pack_edges int, in bit order, read in one pass."""
    k = len(alphabet)
    return [(b // n // k, alphabet[b // n % k].id, b % n)
            for b, d in enumerate(format(bits, "b")[::-1]) if d == "1"]


# ------------------------------------------------------------- feasibility

@dataclass
class SsaTrace:
    conjuncts: list       # list per position (1..n) of canonical formulas
    snapshots: list       # version dict before each position, plus final
    variables: set


def ssa_encode(trace) -> SsaTrace:
    version: dict = {}
    variables = set()

    def name(v):
        k = version.get(v, 0)
        return v if k == 0 else f"{v}@{k}"

    conjuncts = []
    snapshots = [dict(version)]
    for stmt in trace:
        here = []
        for op in stmt.ops:
            if op[0] == "assign":
                _, v, (coeffs, const) = op
                rhs = {name(w): a for w, a in coeffs}
                variables.update(rhs)
                version[v] = version.get(v, 0) + 1
                variables.add(name(v))
                cs = dict(rhs)
                cs[name(v)] = cs.get(name(v), 0) - 1
                here.append(exprs._atom("eq", cs, const))
            else:
                f = exprs.rename(op[1], {v: name(v) for v in exprs.vars_of(op[1])})
                variables |= exprs.vars_of(f)
                here.append(f)
        conjuncts.append(here)
        snapshots.append(dict(version))
    return SsaTrace(conjuncts, snapshots, variables)


def feasible(trace, solver: SolverClient):
    """Returns an initial-state model dict, or None when infeasible."""
    enc = ssa_encode(trace)
    flat = [f for pos in enc.conjuncts for f in pos]
    res, model = solver.check_sat(flat, get_model=True)
    if res == "unsat":
        return None
    model = model or {}
    init = {}
    for v in sorted({w.split("@")[0] for w in enc.variables}):
        init[v] = model.get(v, 0)
    return init


def replay(trace, init: dict) -> dict | None:
    """Concretely execute the trace; None if some assume fails."""
    env = dict(init)
    for stmt in trace:
        for op in stmt.ops:
            if op[0] == "assign":
                _, v, (coeffs, const) = op
                env[v] = sum(a * env.get(w, 0) for w, a in coeffs) + const
            else:
                f = op[1]
                env2 = {v: env.get(v, 0) for v in exprs.vars_of(f)}
                if not exprs.eval_formula(f, env2):
                    return None
    return env


# ------------------------------------------------------------ interpolation

class InterpolationError(Exception):
    pass


def interpolate(trace, solver: SolverClient, engine: str = "wp",
                cache: EntailmentCache | None = None) -> list:
    """Assertion chain [true, f1, ..., f_{n-1}, false] proving infeasibility.

    engine='wp' computes backward weakest preconditions; engine='farkas'
    derives sequence interpolants from a rational infeasibility certificate
    and falls back to wp when no clean certificate exists.
    """
    if engine == "farkas":
        chain = _interpolate_farkas(trace)
        if chain is not None and _chain_ok(chain, trace, solver, cache):
            return chain
    chain = _interpolate_wp(trace, solver)
    if not _chain_ok(chain, trace, solver, cache):
        raise InterpolationError("wp chain failed validation")
    return chain


def _chain_ok(chain, trace, solver, cache) -> bool:
    if len(chain) != len(trace) + 1 or chain[0] != TRUE or chain[-1] != FALSE:
        return False
    return all(hoare_verdicts(list(zip(chain, trace, chain[1:])), solver,
                              cache))


def _interpolate_wp(trace, solver: SolverClient) -> list:
    chain = [FALSE]
    f = FALSE
    for stmt in reversed(trace):
        f = _simplify(wp_stmt(stmt, f), solver)
        chain.append(f)
    chain.reverse()
    if chain[0] != TRUE:
        raise InterpolationError("interpolate called on a feasible trace")
    return chain


def _simplify(f, solver: SolverClient):
    if f in (TRUE, FALSE) or f[0] in ("le", "eq", "ne"):
        return f
    if solver.check_sat([exprs.negate(f)])[0] == "unsat":
        return TRUE
    if solver.check_sat([f])[0] == "unsat":
        return FALSE
    return f


def _interpolate_farkas(trace) -> list | None:
    """Sequence interpolants from Farkas certificates of the SSA conjunction.

    Disequalities are case-split; for each case one rational certificate
    covers the whole trace, and the partial sums of its multipliers at every
    cut are single inequalities over the live variables at that cut.
    """
    enc = ssa_encode(trace)
    n = len(trace)
    cases = [[]]  # per case: list of (pos, facet) with facet = (coeffs, k)
    ne_positions = []
    for pos, forms in enumerate(enc.conjuncts):
        for f in forms:
            for g in (f[1] if f[0] == "and" else (f,)):
                if g == TRUE:
                    continue
                if g[0] == "ne":
                    if len(ne_positions) >= 4:
                        return None
                    ne_positions.append(pos)
                    lt, gt = lia.expand_literals(lia.ne_halves(g))
                    cases = ([case + [(pos, lt)] for case in cases]
                             + [case + [(pos, gt)] for case in cases])
                elif g[0] in ("le", "eq"):
                    facets = [(pos, fc) for fc in lia.expand_literals([g])]
                    for case in cases:
                        case.extend(facets)
                else:
                    return None  # disjunctive assume: no conjunctive encoding

    per_case_sums = []
    for case in cases:
        facets = [f for _, f in case]
        cert = lia.rational_cert(facets)
        if cert is None or not lia.verify_cert(facets, cert):
            return None
        sums = _partial_sums(case, cert, enc, n)
        if sums is None:
            return None
        per_case_sums.append(sums)

    chain = []
    for t in range(n + 1):
        groups: dict = {}
        for ci, case in enumerate(cases):
            key = tuple(f for (pos, f) in case if pos < t and pos in ne_positions)
            groups.setdefault(key, []).append(ci)
        disjuncts = [exprs.c_and([per_case_sums[ci][t] for ci in members])
                     for members in groups.values()]
        chain.append(exprs.c_or(disjuncts))
    if chain[0] != TRUE or chain[-1] != FALSE:
        return None
    return chain


def _partial_sums(case, cert, enc: SsaTrace, n: int):
    """Interpolant at every cut t: scaled sum of multipliers over pos < t."""
    sums = []
    for t in range(n + 1):
        coeffs: dict = {}
        const = 0
        for idx, (pos, (fc, fk)) in enumerate(case):
            m = cert.get(idx)
            if not m or pos >= t:
                continue
            for v, a in fc:
                coeffs[v] = coeffs.get(v, 0) + m * a
            const += m * fk
        coeffs = {v: a for v, a in coeffs.items() if a != 0}
        live = enc.snapshots[t]
        for v in coeffs:
            base, _, ver = v.partition("@")
            if live.get(base, 0) != (int(ver) if ver else 0):
                return None  # dead SSA version survived; certificate unusable
        denom = lcm(*(a.denominator for a in [*coeffs.values(), const]))
        # interned: the proof keeps these names, one string per variable
        atom = exprs._atom("le",
                           {sys.intern(v.partition("@")[0]): int(a * denom)
                            for v, a in coeffs.items()},
                           int(const * denom))
        sums.append(atom)
    return sums

