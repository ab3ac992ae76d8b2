"""Assertions, Hoare triples, the proof NFA, feasibility, interpolation.

All solver contact goes through one ``SolverClient``, which solves in this
process with ``lia`` and keeps every model it finds.  Entailment verdicts are
cached across refinement rounds.  ``hoare_verdicts`` is the one place that
decides Hoare triples: the proof NFA's edges and each interpolation chain
(all its triples in one call, through the same cache) go through it, so a
generation bug can never produce an unsound proof automaton.  A triple the
cache does not know is decided in one order: a model the client has found
refutes it (the statement is run on every model and the postcondition
evaluated on the states the runs end in), or ``exprs.implies`` proves it
from its weakest precondition, or one ``lia`` solve decides it.  So a
triple is called invalid only on a model, and every verdict is the one
``lia`` would give.  Interpolation has one path: Farkas sequence
interpolants, with weakest preconditions as the fallback.  A ``safe``
verdict carries its assertions packed by ``pack_proof`` and its edges as
one ``pack_edges`` int; rebuilding its automaton needs no solver.
"""

from __future__ import annotations

import marshal
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
    process by ``lia.solve_formula``, and refutation of Hoare triples by the
    models it found.  An ``unknown`` answer or a solver fault raises
    SolverError.

    The client keeps every model that ``lia`` finds in a pool (absent
    variables read as 0), and a model joins it at once.  A model m refutes
    {pre} s {post} when pre holds in m, every assume of s passes on the run
    of s from m, and post fails in the state the run ends in: m satisfies
    pre and not wp(s, post), an exact integer witness, so the verdict is the
    one ``lia`` would give.  Across calls the client keeps each formula's
    truth mask over the pool, and per statement ops the states its runs end
    in (None where an assume blocks) with each post's mask over them; each
    is extended over the models found since.  num_queries counts the
    ``lia`` solves, pool_hits the triples the pool refuted.
    """

    def __init__(self):
        self.num_queries = 0
        self.pool_hits = 0
        self.pool: list = []       # the model dicts, oldest first
        self._pool = _Masks(self.pool)
        self._runs: dict = {}      # stmt ops -> _Runs

    def check_sat(self, formulas):
        """Returns ('sat', model) / ('unsat', None); raises on unknown.  A
        model joins the pool."""
        self.num_queries += 1
        try:
            res, model = lia.solve_formula(exprs.c_and(formulas))
        except _LIA_ERRORS as e:
            raise SolverError(f"solver raised {e!r}") from e
        if res not in ("sat", "unsat"):
            raise SolverError(f"solver answered {res!r} on: {_detail(formulas)}")
        if model is not None:
            self.pool.append(model)
        return res, model

    def check_sat_batch(self, queries, deadline: float | None = None) -> list:
        """check_sat of each formula sequence in queries, as 'sat'/'unsat';
        the pool answers none of them.  A passed deadline raises
        ResourceLimit('timeout'), checked every 1024 queries.  The verifier
        does not call it; perfbench/spans.py wraps it by name."""
        out = []
        for step, formulas in enumerate(queries):
            check_deadline(deadline, step)
            out.append(self.check_sat(formulas)[0])
        return out

    def runs(self, stmt: Stmt) -> "_Runs":
        """The runs of stmt's ops; catch_up() brings them up to the pool."""
        runs = self._runs.get(stmt.ops)
        if runs is None:
            runs = self._runs[stmt.ops] = _Runs(stmt.ops, self._pool)
        return runs

    def close(self):
        """Nothing to release; kept so that ``with SolverClient()`` works."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _Masks:
    """Truth masks of formulas over models: variable dicts, absent variables
    reading as 0, or None where a run blocked (its bit means nothing).  Bit
    i of a mask is models[i]; models are only appended.  Each mask is
    memoized with the number of models it covers, and extended over those
    added since."""

    def __init__(self, models: list):
        self.models = models
        self.memo: dict = {}       # formula -> (mask, models covered)

    def mask(self, f) -> int:
        n = len(self.models)
        mask, done = self.memo.get(f, (0, 0))
        if done == n:
            return mask
        tag = f[0]
        if tag == "and":
            mask = (1 << n) - 1
            for g in f[1]:
                mask &= self.mask(g)
                if not mask:
                    break
        elif tag == "or":
            mask, full = 0, (1 << n) - 1
            for g in f[1]:
                mask |= self.mask(g)
                if mask == full:
                    break
        elif tag == "true":
            mask = (1 << n) - 1
        elif tag != "false":
            mask = self._atom(f, mask, done)
        self.memo[f] = (mask, n)
        return mask

    def _atom(self, f, mask: int, done: int) -> int:
        """mask extended by the atom f on the models after the first done."""
        tag, coeffs, k = f
        models = self.models
        for i in range(done, len(models)):
            m = models[i]
            if m is None:
                continue
            t = k
            for v, a in coeffs:
                t += a * m.get(v, 0)
            if (t <= 0) if tag == "le" else (t == 0) == (tag == "eq"):
                mask |= 1 << i
        return mask


class _Runs(_Masks):
    """The runs of a statement's ops from the pool models: models[i] is the
    state the run from pool[i] ends in, None where an assume blocks, and
    ended has bit i set where it ends.  The state agrees with the pool model
    on every variable the ops do not write, so an atom over none of them
    has its mask on the pool."""

    def __init__(self, ops, pool: _Masks):
        super().__init__([])
        self.ops = ops
        self.pool = pool
        self.writes = frozenset(op[1] for op in ops if op[0] == "assign")
        self.ended = 0

    def catch_up(self):
        """Run the ops from the pool models added since the last call."""
        states, pool = self.models, self.pool.models
        while len(states) < len(pool):
            end = _execute(self.ops, pool[len(states)])
            if end is not None:
                self.ended |= 1 << len(states)
            states.append(end)

    def _atom(self, f, mask: int, done: int) -> int:
        if self.writes.isdisjoint([v for v, _ in f[1]]):
            return self.pool.mask(f)
        return super()._atom(f, mask, done)


def _execute(ops, env: dict) -> dict | None:
    """The state that ops end in from env (a new dict; absent variables read
    as 0), or None where an assume fails."""
    env = dict(env)
    for op in ops:
        if op[0] == "assign":
            _, v, (coeffs, const) = op
            for w, a in coeffs:
                const += a * env.get(w, 0)
            env[v] = const
        elif not exprs.eval_formula(op[1], env):
            return None
    return env


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
    """Verdict cache for Hoare triples, shared across rounds.

    fids numbers formulas by value, in the order they are first seen, and a
    verdict is keyed by (pre number, statement id, post number): a lookup
    hashes three ints, not two formula trees."""

    def __init__(self):
        self.fids: dict = {}       # formula -> number
        self._data: dict = {}
        self.hits = 0
        self.misses = 0

    def fid(self, f) -> int:
        """The number of formula f, given on first sight."""
        return self.fids.setdefault(f, len(self.fids))

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


def hoare_verdicts(triples, solver: SolverClient,
                   cache: EntailmentCache | None = None,
                   deadline: float | None = None) -> list[bool]:
    """Validity of each Hoare triple (pre, stmt, post): the one place that
    decides triples.  It decides each triple in order: by the cache; as
    invalid when a model in the solver's pool refutes it; as valid when
    exprs.implies(pre, wp(stmt, post)) holds; else by solving pre and not
    wp(stmt, post), whose model joins the pool for every triple after it.
    A triple is invalid only on a model, so each verdict is the one lia
    would give.  A triple whose post is true or pre false is valid at once,
    before the pool: implies proves it and no model refutes it, and every
    new assertion brings two such triples per letter, which the pool and
    wp would only slow down.  New verdicts go into the cache.  A passed
    deadline raises ResourceLimit('timeout'), checked every 1024 triples.

    Each formula object is numbered once per call, by id() (the list of
    triples keeps it alive); a pre keeps its pool mask with the pool length
    it covers; a (stmt, post) pair computes its wp once; and consecutive
    triples with one pair share its runs and the mask of the pool models
    whose run ends where post fails, which is recomputed when a solve grows
    the pool."""
    cache = cache if cache is not None else EntailmentCache()
    triples = list(triples)        # keeps every formula, so every id(), live
    pool = solver.pool
    nums: dict = {}                # id(formula) -> cache number
    pre_masks: dict = {}           # pre number -> (pool mask, pool length)
    wps: dict = {}                 # (stmt, post number) -> wp(stmt, post)
    pair = None                    # (stmt, post number) of the current run
    out = []
    for step, (pre, stmt, post) in enumerate(triples):
        check_deadline(deadline, step)
        p = nums.get(id(pre))
        if p is None:
            p = nums[id(pre)] = cache.fid(pre)
        q = nums.get(id(post))
        if q is None:
            q = nums[id(post)] = cache.fid(post)
        key = (p, stmt.id, q)
        verdict = cache.get(key)
        if verdict is None:
            if post == TRUE or pre == FALSE:
                verdict = True
            else:
                if pair is None or stmt is not pair[0] or q != pair[1]:
                    pair, runs = (stmt, q), solver.runs(stmt)
                    covered = -1
                if covered != len(pool):
                    runs.catch_up()
                    covered = len(pool)
                    fails = runs.ended & ~runs.mask(post)
                if fails:
                    mask = pre_masks.get(p)
                    if mask is None or mask[1] != covered:
                        mask = pre_masks[p] = (solver._pool.mask(pre), covered)
                    if fails & mask[0]:
                        solver.pool_hits += 1
                        verdict = False
                if verdict is None:
                    wp = wps.get(pair)
                    if wp is None:
                        wp = wps[pair] = wp_stmt(stmt, post)
                    verdict = exprs.implies(pre, wp) or solver.check_sat(
                        [pre, exprs.negate(wp)])[0] == "unsat"
            cache.put(key, verdict)
        out.append(verdict)
    return out


# ------------------------------------------------------------------- proof

class Proof:
    """Deduplicated assertions: true at index 0, false at 1, then the rest.

    Equal subterms of the assertions are one object: each atom and each
    (var, coeff) pair is stored once however many assertions hold it."""

    def __init__(self, assertions=()):
        self.assertions: list = [TRUE, FALSE]
        self._index = {TRUE: 0, FALSE: 1}
        self._atoms: dict = {}
        self._pairs: dict = {}
        for f in assertions:
            self.add(f)

    def add(self, f) -> bool:
        if f in self._index:
            return False
        f = self._share(f)
        self._index[f] = len(self.assertions)
        self.assertions.append(f)
        return True

    def _share(self, f):
        tag = f[0]
        if tag in ("and", "or"):
            return (tag, tuple([self._share(g) for g in f[1]]))
        if tag in ("true", "false"):
            return f
        atom = self._atoms.get(f)
        if atom is None:
            pairs = self._pairs
            atom = self._atoms[f] = (
                tag, tuple([pairs.setdefault(p, p) for p in f[1]]), f[2])
        return atom

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

        def new():                 # the triples that involve a new assertion
            return ((i, stmt, j) for stmt in self.alphabet for j in range(n)
                    for i in range(n) if i >= old_n or j >= old_n)
        verdicts = hoare_verdicts([(fs[i], stmt, fs[j]) for i, stmt, j in new()],
                                  self.solver, self.cache, self.deadline)
        self.edges.update((i, stmt.id, j) for (i, stmt, j), valid
                          in zip(new(), verdicts) if valid)
        return proof_nfa(n, self.alphabet, self.edges)


def proof_nfa(n: int, alphabet, edges) -> Nfa:
    """The proof NFA of a Proof of n assertions: one state per assertion,
    one transition per (pre index, statement id, post index) edge."""
    stmt_by_id = {s.id: s for s in alphabet}
    trans: dict = {}
    for (i, sid, j) in edges:
        trans.setdefault((i, stmt_by_id[sid]), set()).add(j)
    return Nfa(n, tuple(alphabet), trans, 0, {1})


def pack_proof(assertions) -> bytes:
    """Assertion formulas as one bytes object, each subterm that several of
    them share stored once; unpack_proof reads it."""
    return marshal.dumps(list(assertions))


def unpack_proof(packed: bytes) -> list:
    return marshal.loads(packed)


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
    res, model = solver.check_sat(flat)
    if res == "unsat":
        return None
    return {v: model.get(v, 0)
            for v in sorted({w.split("@")[0] for w in enc.variables})}


def replay(trace, init: dict) -> dict | None:
    """Concretely execute the trace; None if some assume fails."""
    env = dict(init)
    for stmt in trace:
        env = _execute(stmt.ops, env)
        if env is None:
            return None
    return env


# ------------------------------------------------------------ interpolation

class InterpolationError(Exception):
    pass


def interpolate(trace, solver: SolverClient,
                cache: EntailmentCache | None = None) -> list:
    """Assertion chain [true, f1, ..., f_{n-1}, false] proving infeasibility.

    Sequence interpolants from a rational infeasibility certificate come
    first; backward weakest preconditions are the fallback when there is no
    clean certificate or its chain fails validation.  Either chain is
    validated by hoare_verdicts, through cache.
    """
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
                    return None  # only a false assume is no atom; wp handles it

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

