"""Integer expressions and assertion formulas.

Raw expression trees come out of the parser; everything downstream works on a
canonical form: negation-normal boolean combinations of normalized linear
atoms.  Atoms are kept as

    ('le', coeffs, k)   meaning  sum(c*v) + k <= 0
    ('eq', coeffs, k)   meaning  sum(c*v) + k == 0
    ('ne', coeffs, k)   meaning  sum(c*v) + k != 0

with coeffs a tuple of (var, c) sorted by var, c != 0, gcd-reduced, and for
eq/ne the leading coefficient positive.  Canonical formulas are hashable
tuples, so assertion deduplication is plain equality.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

TRUE = ("true",)
FALSE = ("false",)


class NonlinearError(Exception):
    """Raised when an expression is not linear in the program variables."""


def var(name: str):
    return ("var", name)


def linear(expr) -> tuple[dict, int]:
    """Rewrite an int expression as (var -> coeff, constant)."""
    tag = expr[0]
    if tag == "num":
        return {}, expr[1]
    if tag == "var":
        return {expr[1]: 1}, 0
    if tag == "neg":
        c, k = linear(expr[1])
        return {v: -a for v, a in c.items()}, -k
    if tag == "add" or tag == "sub":
        c1, k1 = linear(expr[1])
        c2, k2 = linear(expr[2])
        sign = 1 if tag == "add" else -1
        out = dict(c1)
        for v, a in c2.items():
            out[v] = out.get(v, 0) + sign * a
        return {v: a for v, a in out.items() if a != 0}, k1 + sign * k2
    if tag == "mul":
        c1, k1 = linear(expr[1])
        c2, k2 = linear(expr[2])
        if c1 and c2:
            raise NonlinearError(f"product of two non-constant expressions: {fmt_int(expr)}")
        if c1:
            return {v: a * k2 for v, a in c1.items() if a * k2 != 0}, k1 * k2
        return {v: a * k1 for v, a in c2.items() if a * k1 != 0}, k1 * k2
    raise ValueError(f"bad int expression {expr!r}")


def _freeze(coeffs: dict) -> tuple:
    return tuple(sorted(coeffs.items()))


def _atom(op: str, coeffs: dict, k: int):
    """Normalize one linear atom; may collapse to TRUE/FALSE."""
    coeffs = {v: a for v, a in coeffs.items() if a != 0}
    if not coeffs:
        if op == "le":
            return TRUE if k <= 0 else FALSE
        if op == "eq":
            return TRUE if k == 0 else FALSE
        return TRUE if k != 0 else FALSE
    g = 0
    for a in coeffs.values():
        g = gcd(g, abs(a))
    if op == "le":
        coeffs = {v: a // g for v, a in coeffs.items()}
        k = -((-k) // g)  # ceil(k/g): sum/g is integral, so tighten the bound
        return ("le", _freeze(coeffs), k)
    # eq/ne: flip sign so the first coefficient is positive
    if k % g != 0:
        return FALSE if op == "eq" else TRUE
    coeffs = {v: a // g for v, a in coeffs.items()}
    k //= g
    first = min(coeffs)
    if coeffs[first] < 0:
        coeffs = {v: -a for v, a in coeffs.items()}
        k = -k
    return (op, _freeze(coeffs), k)


def atom_from_cmp(op: str, lhs, rhs):
    """Build a canonical atom from raw int expressions (lhs op rhs)."""
    cl, kl = linear(lhs)
    cr, kr = linear(rhs)
    diff = dict(cl)
    for v, a in cr.items():
        diff[v] = diff.get(v, 0) - a
    k = kl - kr
    if op == "<":
        return _atom("le", diff, k + 1)
    if op == "<=":
        return _atom("le", diff, k)
    if op == ">":
        return _atom("le", {v: -a for v, a in diff.items()}, -k + 1)
    if op == ">=":
        return _atom("le", {v: -a for v, a in diff.items()}, -k)
    if op == "=":
        return _atom("eq", diff, k)
    if op == "!=":
        return _atom("ne", diff, k)
    raise ValueError(f"bad comparison {op}")


def negate(f):
    """NNF negation of a canonical formula."""
    tag = f[0]
    if tag == "true":
        return FALSE
    if tag == "false":
        return TRUE
    if tag == "le":
        # canonical coefficients stay sorted and gcd-reduced when negated
        return ("le", _neg_coeffs(f[1]), 1 - f[2])
    if tag == "eq":
        return ("ne", f[1], f[2])
    if tag == "ne":
        return ("eq", f[1], f[2])
    if tag == "and":
        return c_or([negate(g) for g in f[1]])
    if tag == "or":
        return c_and([negate(g) for g in f[1]])
    raise ValueError(f"bad formula {f!r}")


def c_and(parts: Iterable):
    flat = []
    seen = set()
    for p in parts:
        if p == TRUE:
            continue
        if p == FALSE:
            return FALSE
        sub = p[1] if p[0] == "and" else (p,)
        for q in sub:
            if q not in seen:
                seen.add(q)
                flat.append(q)
    for q in flat:
        if negate(q) in seen:
            return FALSE
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return ("and", tuple(sorted(flat)))


def c_or(parts: Iterable):
    flat = []
    seen = set()
    for p in parts:
        if p == FALSE:
            continue
        if p == TRUE:
            return TRUE
        sub = p[1] if p[0] == "or" else (p,)
        for q in sub:
            if q not in seen:
                seen.add(q)
                flat.append(q)
    for q in flat:
        if negate(q) in seen:
            return TRUE
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return ("or", tuple(sorted(flat)))


def canon_raw(f):
    """Canonicalize a raw condition from the parser, a comparison under
    any number of negations, into NNF."""
    tag = f[0]
    if tag == "cmp":
        return atom_from_cmp(f[1], f[2], f[3])
    if tag == "not":
        return negate(canon_raw(f[1]))
    raise ValueError(f"bad bool expression {f!r}")


def subst(f, v: str, repl: tuple[tuple, int]):
    """Substitute the linear term repl = (coeffs, const) for variable v."""
    tag = f[0]
    if tag in ("true", "false"):
        return f
    if tag in ("le", "eq", "ne"):
        coeffs = dict(f[1])
        if v not in coeffs:
            return f
        a = coeffs.pop(v)
        rc, rk = repl
        for w, b in rc:
            coeffs[w] = coeffs.get(w, 0) + a * b
        return _atom(tag, coeffs, f[2] + a * rk)
    if tag == "and":
        return c_and([subst(g, v, repl) for g in f[1]])
    if tag == "or":
        return c_or([subst(g, v, repl) for g in f[1]])
    raise ValueError(f"bad formula {f!r}")


def rename(f, mapping: dict):
    """Rename variables (used for SSA indexing)."""
    tag = f[0]
    if tag in ("true", "false"):
        return f
    if tag in ("le", "eq", "ne"):
        return (tag, tuple(sorted((mapping.get(v, v), a) for v, a in f[1])), f[2])
    return (tag, tuple(rename(g, mapping) for g in f[1]))


def vars_of(f) -> frozenset:
    tag = f[0]
    if tag in ("true", "false"):
        return frozenset()
    if tag in ("le", "eq", "ne"):
        return frozenset(v for v, _ in f[1])
    out = frozenset()
    for g in f[1]:
        out |= vars_of(g)
    return out


def eval_formula(f, env: dict) -> bool:
    """Truth of f under env; a variable absent from env reads as 0."""
    tag = f[0]
    if tag == "true":
        return True
    if tag == "false":
        return False
    if tag in ("le", "eq", "ne"):
        t = sum(a * env.get(v, 0) for v, a in f[1]) + f[2]
        if tag == "le":
            return t <= 0
        return (t == 0) if tag == "eq" else (t != 0)
    if tag == "and":
        return all(eval_formula(g, env) for g in f[1])
    return any(eval_formula(g, env) for g in f[1])


def _neg_coeffs(coeffs):
    return tuple([(v, -a) for v, a in coeffs])


def atom_implies(f, g) -> bool:
    """Sound, incomplete implication check between canonical atoms."""
    if f == g:
        return True
    tf, tg = f[0], g[0]
    if tf == "le" and tg == "le":
        return f[1] == g[1] and g[2] <= f[2]
    if tf == "eq":
        _, c, k = f
        if tg == "le":
            if g[1] == c:
                return g[2] <= k
            if g[1] == _neg_coeffs(c):
                return g[2] <= -k
        if tg == "ne" and g[1] == c:
            return g[2] != k
        return False
    if tf == "le" and tg == "ne":
        _, c, k = f
        if g[1] == c:
            return g[2] < k
        if g[1] == _neg_coeffs(c):
            return g[2] + k > 0
    return False


def implies(f, g) -> bool:
    """Sound, incomplete entailment f => g on canonical formulas."""
    if g == TRUE or f == FALSE or f == g:
        return True
    if f == TRUE or g == FALSE:
        return False
    tf, tg = f[0], g[0]
    if tf == "or":
        return all(implies(p, g) for p in f[1])
    if tg == "and":
        return all(implies(f, q) for q in g[1])
    if tf == "and":
        if any(implies(p, g) for p in f[1]):
            return True
        if tg == "or":
            return any(implies(f, q) for q in g[1])
        return False
    if tg == "or":
        return any(implies(f, q) for q in g[1])
    return atom_implies(f, g)


# ---------------------------------------------------------------- printing

def fmt_int(expr) -> str:
    tag = expr[0]
    if tag == "num":
        return str(expr[1])
    if tag == "var":
        return expr[1]
    if tag == "neg":
        return f"-{fmt_int(expr[1])}"
    op = {"add": "+", "sub": "-", "mul": "*"}[tag]
    return f"({fmt_int(expr[1])} {op} {fmt_int(expr[2])})"


def _fmt_term(coeffs, k: int, rel: str) -> str:
    pos, neg = [], []
    for v, a in coeffs:
        (pos if a > 0 else neg).append((v, abs(a)))
    if k > 0:
        pos.append((str(k), None))
    elif k < 0:
        neg.append((str(-k), None))

    def side(parts):
        if not parts:
            return "0"
        bits = []
        for v, a in parts:
            if a is None or a == 1:
                bits.append(v)
            else:
                bits.append(f"{a}*{v}")
        return " + ".join(bits)

    return f"{side(pos)} {rel} {side(neg)}"


def fmt(f) -> str:
    tag = f[0]
    if tag == "true":
        return "true"
    if tag == "false":
        return "false"
    if tag == "le":
        return _fmt_term(f[1], f[2], "<=")
    if tag == "eq":
        return _fmt_term(f[1], f[2], "=")
    if tag == "ne":
        return _fmt_term(f[1], f[2], "!=")
    sep = " && " if tag == "and" else " || "
    return "(" + sep.join(fmt(g) for g in f[1]) + ")"
