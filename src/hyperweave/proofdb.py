"""Assertions, Hoare triples, the proof NFA, feasibility, interpolation.

All solver contact goes through one ``SolverClient``.  By default it solves
in this process with ``lia``; given a command (``--solver`` /
``HYPERWEAVE_SOLVER``) it drives an SMT-LIB v2 child process instead, e.g.
``z3 -in`` or the bundled ``python -m hyperweave.smtserver``.  Entailment
verdicts are cached across refinement rounds; interpolation chains are
re-validated triple by triple so a generation bug can never produce an
unsound proof automaton.
"""

from __future__ import annotations

import os
import select
import shlex
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction

from . import exprs, lia
from .automata import Nfa
from .exprs import FALSE, TRUE
from .frontend import Stmt


class SolverError(Exception):
    """Solver unavailable, crashed, or answered unknown."""


# What lia and exprs raise on formulas they cannot handle.
_LIA_ERRORS = (ValueError, exprs.NonlinearError, OverflowError, RecursionError)


class SolverClient:
    """Satisfiability of conjunctions of canonical formulas.

    Without a command (and without ``HYPERWEAVE_SOLVER``) every query is
    solved in this process by ``lia.solve_formula``.  With one, a single
    long-lived SMT-LIB v2 process answers it, one push/pop scope per query.
    Either way an ``unknown`` answer or a solver fault raises SolverError.
    """

    def __init__(self, command=None, timeout: float = 60.0):
        if command is None:
            command = os.environ.get("HYPERWEAVE_SOLVER") or None
        if isinstance(command, str):
            command = shlex.split(command)
        self.command = command
        self.timeout = timeout
        self.num_queries = 0
        self.proc = None
        if command is None:
            return
        env = None
        if "hyperweave.smtserver" in command:
            # the bundled server must find this package even when it is not
            # installed (tests running from a source tree)
            pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            env = dict(os.environ)
            env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
        try:
            self.proc = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, bufsize=0, env=env)
        except OSError as e:
            raise SolverError(f"cannot start solver {command!r}: {e}") from e
        self._buf = b""
        self._send("(set-logic QF_LIA)")

    # ---- in-process backend

    @staticmethod
    def _solve(formulas):
        try:
            res, model = lia.solve_formula(exprs.c_and(formulas))
        except _LIA_ERRORS as e:
            raise SolverError(f"solver raised {e!r}") from e
        if res not in ("sat", "unsat"):
            raise SolverError(f"solver answered {res!r} on: {_detail(formulas)}")
        return res, model

    # ---- SMT-LIB v2 child backend

    def _send(self, line: str):
        try:
            self.proc.stdin.write((line + "\n").encode())
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError, ValueError) as e:
            raise SolverError(f"solver process died: {e}") from e

    def _read_line(self) -> str:
        deadline = time.monotonic() + self.timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remain = deadline - time.monotonic()
            if remain <= 0:
                self.proc.kill()
                raise SolverError("solver timeout")
            ready, _, _ = select.select([fd], [], [], remain)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise SolverError("solver closed its output")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return line.decode().strip()

    def _read_sexpr(self) -> str:
        text = self._read_line()
        while text.count("(") > text.count(")"):
            text += " " + self._read_line()
        return text

    def _read_answer(self, formulas) -> str:
        res = self._read_line()
        if res not in ("sat", "unsat"):
            raise SolverError(f"solver answered {res!r} on: {_detail(formulas)}")
        return res

    # ---- the interface

    def check_sat(self, formulas, get_model: bool = False):
        """Returns ('sat', model|None) / ('unsat', None); raises on unknown."""
        self.num_queries += 1
        if self.proc is None:
            res, model = self._solve(formulas)
            return res, (model if get_model else None)
        self._send("\n".join(["(push 1)", *_smt_query(formulas)]))
        try:
            res = self._read_answer(formulas)
            model = None
            if res == "sat" and get_model:
                self._send("(get-model)")
                model = _parse_model(self._read_sexpr())
            return res, model
        finally:
            try:
                self._send("(pop 1)")
            except SolverError:
                pass

    def is_valid(self, f) -> bool:
        if f == TRUE:
            return True
        if f == FALSE:
            return False
        res, _ = self.check_sat([exprs.negate(f)])
        return res == "unsat"

    BATCH = 400

    def check_sat_batch(self, queries) -> list:
        """Satisfiability of many conjunctions (no models), pipelined when a
        child process answers.

        queries: list of formula lists; returns 'sat'/'unsat' per entry.
        """
        self.num_queries += len(queries)
        if self.proc is None:
            return [self._solve(formulas)[0] for formulas in queries]
        out = []
        for lo in range(0, len(queries), self.BATCH):
            chunk = queries[lo: lo + self.BATCH]
            lines = []
            for formulas in chunk:
                lines.append("(push 1)")
                lines.extend(_smt_query(formulas))
                lines.append("(pop 1)")
            self._send("\n".join(lines))
            out.extend(self._read_answer(formulas) for formulas in chunk)
        return out

    def close(self):
        if self.proc is None:
            return
        try:
            self._send("(exit)")
        except SolverError:
            pass
        try:
            self.proc.wait(timeout=2)
        except subprocess.TimeoutExpired:
            self.proc.kill()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _smt_query(formulas) -> list[str]:
    """Declarations, assertions and check-sat for one query, as SMT-LIB lines."""
    names = set()
    for f in formulas:
        names |= exprs.vars_of(f)
    return ([f"(declare-const {v} Int)" for v in sorted(names)]
            + [f"(assert {exprs.to_smt(f)})" for f in formulas]
            + ["(check-sat)"])


def _detail(formulas) -> str:
    return "; ".join(exprs.fmt(f) for f in formulas)[:500]


def _parse_model(text: str) -> dict:
    from .smtserver import parse_sexprs

    model = {}
    for item in parse_sexprs(text):
        stack = [item]
        while stack:
            node = stack.pop()
            if isinstance(node, list):
                if len(node) >= 5 and node[0] == "define-fun":
                    name, val = node[1], node[4]
                    if isinstance(val, list) and val and val[0] == "-":
                        model[name] = -int(val[1])
                    else:
                        try:
                            model[name] = int(val)
                        except (TypeError, ValueError):
                            pass
                else:
                    stack.extend(node)
    return model


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

    def items(self):
        return list(self._data.items())


def syntactic_verdict(pre, stmt: Stmt, post, wpf):
    """Validity of {pre} stmt {post} on syntactic grounds (wpf is the weakest
    precondition of post), or None when the solver must decide."""
    if post == TRUE or pre == FALSE:
        return True
    if exprs.implies(pre, wpf):
        return True
    if pre == post and not (stmt.writes & exprs.vars_of(pre)):
        return True
    if wpf == FALSE:
        return pre == FALSE
    return None


def hoare_valid(pre, stmt: Stmt, post, solver: SolverClient,
                cache: EntailmentCache | None = None) -> bool:
    """Validity of {pre} stmt {post}."""
    key = (pre, stmt.id, post)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    wpf = wp_stmt(stmt, post)
    result = syntactic_verdict(pre, stmt, post, wpf)
    if result is None:
        res, _ = solver.check_sat([pre, exprs.negate(wpf)])
        result = res == "unsat"
    if cache is not None:
        cache.put(key, result)
    return result


# ------------------------------------------------------------------- proof

class Proof:
    """A finite deduplicated set of assertions, always containing true/false."""

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

    def __contains__(self, f):
        return f in self._index

    def __len__(self):
        return len(self.assertions)

    def __iter__(self):
        return iter(self.assertions)

    def index(self, f) -> int:
        return self._index[f]


class ProofNfaBuilder:
    """Incrementally maintains the proof NFA while the proof grows.

    Only triples involving assertions added since the last build are sent to
    the solver; everything else is served by the entailment cache or the
    stored edge set.
    """

    def __init__(self, alphabet, solver: SolverClient, cache: EntailmentCache):
        self.alphabet = tuple(alphabet)
        self.solver = solver
        self.cache = cache
        self.known: list = []
        self.edges: set = set()  # (pre_idx, stmt_id, post_idx)

    def extend(self, proof: Proof) -> Nfa:
        old_n = len(self.known)
        self.known = list(proof.assertions)
        n = len(self.known)
        pending_keys: list = []
        pending_queries: list = []
        for stmt in self.alphabet:
            for j in range(n):
                post = self.known[j]
                wpf = wp_stmt(stmt, post)
                neg_wpf = None
                for i in range(n):
                    if j < old_n and i < old_n:
                        continue
                    pre = self.known[i]
                    key = (pre, stmt.id, post)
                    hit = self.cache.get(key)
                    if hit is None:
                        hit = syntactic_verdict(pre, stmt, post, wpf)
                    if hit is None:
                        if neg_wpf is None:
                            neg_wpf = exprs.negate(wpf)
                        pending_keys.append((key, i, stmt.id, j))
                        pending_queries.append([pre, neg_wpf])
                        continue
                    self.cache.put(key, hit)
                    if hit:
                        self.edges.add((i, stmt.id, j))
        answers = self.solver.check_sat_batch(pending_queries)
        for (key, i, sid, j), res in zip(pending_keys, answers):
            valid = res == "unsat"
            self.cache.put(key, valid)
            if valid:
                self.edges.add((i, sid, j))
        trans: dict = {}
        stmt_by_id = {s.id: s for s in self.alphabet}
        for (i, sid, j) in self.edges:
            trans.setdefault((i, stmt_by_id[sid]), set()).add(j)
        return Nfa(n, self.alphabet, trans, proof.index(TRUE), {proof.index(FALSE)})


def build_proof_nfa(proof: Proof, alphabet, solver: SolverClient,
                    cache: EntailmentCache | None = None) -> Nfa:
    cache = cache if cache is not None else EntailmentCache()
    return ProofNfaBuilder(alphabet, solver, cache).extend(proof)


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

SELF_CHECK = True


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
    if SELF_CHECK and not _chain_ok(chain, trace, solver, cache):
        raise InterpolationError("wp chain failed validation")
    return chain


def _chain_ok(chain, trace, solver, cache) -> bool:
    if len(chain) != len(trace) + 1 or chain[0] != TRUE or chain[-1] != FALSE:
        return False
    return all(hoare_valid(chain[i], trace[i], chain[i + 1], solver, cache)
               for i in range(len(trace)))


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
    if solver.is_valid(f):
        return TRUE
    res, _ = solver.check_sat([f])
    if res == "unsat":
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
            parts = f[1] if f[0] == "and" else (f,)
            for g in parts:
                if g == TRUE:
                    continue
                if g[0] == "le":
                    for case in cases:
                        case.append((pos, (g[1], g[2])))
                elif g[0] == "eq":
                    for case in cases:
                        case.append((pos, (g[1], g[2])))
                        case.append((pos, (tuple((v, -a) for v, a in g[1]), -g[2])))
                elif g[0] == "ne":
                    if len(ne_positions) >= 4:
                        return None
                    ne_positions.append(pos)
                    lt = (g[1], g[2] + 1)
                    gt = (tuple((v, -a) for v, a in g[1]), -g[2] + 1)
                    cases = ([case + [(pos, lt)] for case in cases]
                             + [case + [(pos, gt)] for case in cases])
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
        const = Fraction(0)
        for idx, (pos, (fc, fk)) in enumerate(case):
            m = cert.get(idx)
            if not m or pos >= t:
                continue
            for v, a in fc:
                coeffs[v] = coeffs.get(v, Fraction(0)) + m * a
            const += m * fk
        coeffs = {v: a for v, a in coeffs.items() if a != 0}
        live = enc.snapshots[t]
        for v in coeffs:
            base, _, ver = v.partition("@")
            if live.get(base, 0) != (int(ver) if ver else 0):
                return None  # dead SSA version survived; certificate unusable
        denom = 1
        for a in list(coeffs.values()) + [const]:
            denom = denom * a.denominator // _gcd(denom, a.denominator)
        atom = exprs._atom("le",
                           {v.partition("@")[0]: int(a * denom) for v, a in coeffs.items()},
                           int(const * denom))
        sums.append(atom)
    return sums


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a
