"""Linear integer arithmetic: satisfiability, models, Farkas certificates.

The entire verifier's logic is QF_LIA, small and dense, so this is a
self-contained exact implementation: a general simplex over rationals in the
bounds-and-tableau style, branch & bound on top for integrality, and a naive
DNF-style case split over the boolean structure.  When a conjunction is
rationally infeasible the simplex yields a Farkas certificate (nonnegative
multipliers over input facets summing to a positive constant), which the
interpolation engine consumes.

Facets are pairs (coeffs, k) with coeffs a tuple of (var, int) meaning
sum(c*v) + k <= 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

ZERO = Fraction(0)
BRANCH_BUDGET = 600                # branch-and-bound nodes per solve_facets


class Budget:
    def __init__(self, n: int):
        self.left = n

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def expand_literals(lits) -> tuple[list, list]:
    """Expand canonical le/eq atoms into facets.

    Returns (facets, origin) where origin[i] is the literal index the i-th
    facet came from.  'ne' atoms must be split by the caller.
    """
    facets, origin = [], []
    for idx, lit in enumerate(lits):
        tag, coeffs, k = lit
        if tag == "le":
            facets.append((coeffs, k))
            origin.append(idx)
        elif tag == "eq":
            facets.append((coeffs, k))
            origin.append(idx)
            facets.append((tuple((v, -a) for v, a in coeffs), -k))
            origin.append(idx)
        else:
            raise ValueError(f"cannot expand {tag} atom")
    return facets, origin


def verify_cert(facets, cert: dict) -> bool:
    """Check a Farkas certificate: sum of m*facet is 0 <= -c with c > 0."""
    total: dict = {}
    const = Fraction(0)
    for idx, m in cert.items():
        if m < 0:
            return False
        coeffs, k = facets[idx]
        for v, a in coeffs:
            total[v] = total.get(v, ZERO) + m * a
        const += m * k
    return all(a == 0 for a in total.values()) and const > 0


class Simplex:
    """General simplex with variable bounds (exact rational arithmetic)."""

    BRANCH = -1  # pseudo facet index for branch-and-bound bounds

    def __init__(self):
        self.rows: dict[int, dict[int, Fraction]] = {}
        self.beta: dict[int, Fraction] = {}
        self.lo: dict[int, tuple[Fraction, int]] = {}
        self.hi: dict[int, tuple[Fraction, int]] = {}
        self.nvars = 0

    def clone(self) -> "Simplex":
        s = Simplex.__new__(Simplex)
        s.rows = {b: dict(r) for b, r in self.rows.items()}
        s.beta = dict(self.beta)
        s.lo = dict(self.lo)
        s.hi = dict(self.hi)
        s.nvars = self.nvars
        return s

    def new_var(self) -> int:
        v = self.nvars
        self.nvars += 1
        self.beta[v] = ZERO
        return v

    def add_bound(self, v: int, side: str, val: Fraction, reason: int) -> bool:
        """Record a bound; returns False on an immediately empty interval."""
        table = self.hi if side == "hi" else self.lo
        cur = table.get(v)
        if cur is None or (val < cur[0] if side == "hi" else val > cur[0]):
            table[v] = (val, reason)
        lo, hi = self.lo.get(v), self.hi.get(v)
        return not (lo is not None and hi is not None and lo[0] > hi[0])

    def define_slack(self, combo: dict[int, Fraction]) -> int:
        s = self.new_var()
        self.rows[s] = {v: Fraction(a) for v, a in combo.items() if a != 0}
        self.beta[s] = sum((a * self.beta[v] for v, a in self.rows[s].items()), ZERO)
        return s

    def _init_assignment(self):
        for v in range(self.nvars):
            if v in self.rows:
                continue
            b = self.beta[v]
            lo, hi = self.lo.get(v), self.hi.get(v)
            if lo is not None and b < lo[0]:
                self._update_nonbasic(v, lo[0])
            elif hi is not None and b > hi[0]:
                self._update_nonbasic(v, hi[0])

    def _update_nonbasic(self, v: int, val: Fraction):
        d = val - self.beta[v]
        if d == 0:
            return
        self.beta[v] = val
        for b, row in self.rows.items():
            a = row.get(v)
            if a:
                self.beta[b] += a * d

    def _pivot(self, b: int, n: int, target: Fraction):
        row = self.rows[b]
        a = row[n]
        theta = (target - self.beta[b]) / a
        self.beta[n] += theta
        self.beta[b] = target
        for m, mrow in self.rows.items():
            if m != b:
                c = mrow.get(n)
                if c:
                    self.beta[m] += c * theta
        del self.rows[b]
        nrow = {b: Fraction(1) / a}
        for j, c in row.items():
            if j != n and c != 0:
                nrow[j] = -c / a
        for m in list(self.rows):
            mrow = self.rows[m]
            c = mrow.pop(n, None)
            if c:
                for j, d in nrow.items():
                    val = mrow.get(j, ZERO) + c * d
                    if val == 0:
                        mrow.pop(j, None)
                    else:
                        mrow[j] = val
        self.rows[n] = nrow

    def check(self):
        """Returns ('sat', None) or ('unsat', cert) with cert facet->mult."""
        self._init_assignment()
        while True:
            pick = None
            for b in sorted(self.rows):
                lo, hi = self.lo.get(b), self.hi.get(b)
                if lo is not None and self.beta[b] < lo[0]:
                    pick = (b, "lo")
                    break
                if hi is not None and self.beta[b] > hi[0]:
                    pick = (b, "hi")
                    break
            if pick is None:
                return "sat", None
            b, side = pick
            row = self.rows[b]
            moved = False
            if side == "lo":
                target = self.lo[b][0]
                for n in sorted(row):
                    a = row[n]
                    hi_n, lo_n = self.hi.get(n), self.lo.get(n)
                    if a > 0 and (hi_n is None or self.beta[n] < hi_n[0]):
                        self._pivot(b, n, target)
                        moved = True
                        break
                    if a < 0 and (lo_n is None or self.beta[n] > lo_n[0]):
                        self._pivot(b, n, target)
                        moved = True
                        break
            else:
                target = self.hi[b][0]
                for n in sorted(row):
                    a = row[n]
                    hi_n, lo_n = self.hi.get(n), self.lo.get(n)
                    if a > 0 and (lo_n is None or self.beta[n] > lo_n[0]):
                        self._pivot(b, n, target)
                        moved = True
                        break
                    if a < 0 and (hi_n is None or self.beta[n] < hi_n[0]):
                        self._pivot(b, n, target)
                        moved = True
                        break
            if not moved:
                return "unsat", self._certificate(b, side)

    def _certificate(self, b: int, side: str) -> dict:
        cert: dict[int, Fraction] = {}

        def add(reason: int, mult: Fraction):
            cert[reason] = cert.get(reason, ZERO) + mult

        row = self.rows[b]
        if side == "lo":
            add(self.lo[b][1], Fraction(1))
            for n, a in row.items():
                if a > 0:
                    add(self.hi[n][1], a)
                elif a < 0:
                    add(self.lo[n][1], -a)
        else:
            add(self.hi[b][1], Fraction(1))
            for n, a in row.items():
                if a > 0:
                    add(self.lo[n][1], a)
                elif a < 0:
                    add(self.hi[n][1], -a)
        return cert


def _build_simplex(facets, var_ids: dict) -> Simplex:
    """Set up a simplex over the given facets."""
    s = Simplex()
    for _ in var_ids:
        s.new_var()
    combo_slack: dict[tuple, int] = {}
    for idx, (coeffs, k) in enumerate(facets):
        if not coeffs:
            if k > 0:
                # 0 + k <= 0 with k > 0: immediately false; fabricate an
                # empty-interval variable so check() reports it with a cert
                v = s.new_var()
                s.rows[v] = {}
                s.add_bound(v, "hi", Fraction(-k), idx)
                s.add_bound(v, "lo", ZERO, idx)
            continue
        if len(coeffs) == 1:
            (v, a), = coeffs
            vid = var_ids[v]
            if a > 0:
                ok = s.add_bound(vid, "hi", Fraction(-k, a), idx)
            else:
                ok = s.add_bound(vid, "lo", Fraction(-k, a), idx)
        else:
            key = coeffs
            slack = combo_slack.get(key)
            if slack is None:
                slack = s.define_slack({var_ids[v]: Fraction(a) for v, a in coeffs})
                combo_slack[key] = slack
            ok = s.add_bound(slack, "hi", Fraction(-k), idx)
        if not ok:
            pass  # conflicting bounds; check() will surface the conflict
    return s


def _conflicting_bounds_cert(s: Simplex) -> Optional[dict]:
    for v in range(s.nvars):
        lo, hi = s.lo.get(v), s.hi.get(v)
        if lo is not None and hi is not None and lo[0] > hi[0]:
            cert = {}
            for reason in (lo[1], hi[1]):
                cert[reason] = cert.get(reason, ZERO) + Fraction(1)
            return cert
    return None


def solve_facets(facets):
    """Integer satisfiability of a conjunction of facets.

    Returns ('sat', model), ('unsat', cert-or-None), or ('unknown', None).
    cert is a facet->multiplier Farkas certificate valid over the rationals
    (None when infeasibility was only established through branching).
    """
    names = sorted({v for coeffs, _ in facets for v, _ in coeffs})
    var_ids = {v: i for i, v in enumerate(names)}
    s = _build_simplex(facets, var_ids)
    bad = _conflicting_bounds_cert(s)
    if bad is not None:
        return "unsat", bad
    res, cert = s.check()
    if res == "unsat":
        return "unsat", (cert if not _tainted(cert) else None)
    return _branch(s, names, facets, Budget(BRANCH_BUDGET))


def _tainted(cert: dict) -> bool:
    return Simplex.BRANCH in cert


def _rounding_probe(s: Simplex, names, facets):
    """Try floor/ceil combinations of the fractional variables."""
    fracs = [i for i in range(len(names)) if s.beta[i].denominator != 1]
    if len(fracs) > 4:
        fracs = fracs[:4]
    base = {i: s.beta[i] for i in range(len(names))}
    index = {v: i for i, v in enumerate(names)}
    for combo in range(1 << len(fracs)):
        cand = {}
        for i in range(len(names)):
            v = base[i]
            if v.denominator == 1:
                cand[i] = int(v)
        for bit, i in enumerate(fracs):
            v = base[i]
            f = v.numerator // v.denominator
            cand[i] = f if combo >> bit & 1 == 0 else f + 1
        if len(cand) < len(names):
            continue
        ok = True
        for coeffs, k in facets:
            if sum(a * cand[index[v]] for v, a in coeffs) + k > 0:
                ok = False
                break
        if ok:
            for i in range(len(names)):
                lo, hi = s.lo.get(i), s.hi.get(i)
                if lo is not None and cand[i] < lo[0]:
                    ok = False
                if hi is not None and cand[i] > hi[0]:
                    ok = False
            if ok:
                return {names[i]: cand[i] for i in range(len(names))}
    return None


def _branch(s: Simplex, names, facets, budget: Budget):
    if not budget.spend():
        return "unknown", None
    frac_var = None
    for vid in range(len(names)):
        if s.beta[vid].denominator != 1:
            frac_var = vid
            break
    if frac_var is None:
        model = {names[i]: int(s.beta[i]) for i in range(len(names))}
        return "sat", model
    probe = _rounding_probe(s, names, facets)
    if probe is not None:
        return "sat", probe
    val = s.beta[frac_var]
    floor_v = val.numerator // val.denominator
    unknown = False
    for side, bound in (("hi", Fraction(floor_v)), ("lo", Fraction(floor_v + 1))):
        sub = s.clone()
        if not sub.add_bound(frac_var, side, bound, Simplex.BRANCH):
            continue
        res, _ = sub.check()
        if res == "sat":
            out = _branch(sub, names, facets, budget)
            if out[0] == "sat":
                return out
            if out[0] == "unknown":
                unknown = True
    return ("unknown", None) if unknown else ("unsat", None)


def rational_cert(facets) -> Optional[dict]:
    """Farkas certificate if the facets are rationally infeasible, else None."""
    names = sorted({v for coeffs, _ in facets for v, _ in coeffs})
    var_ids = {v: i for i, v in enumerate(names)}
    s = _build_simplex(facets, var_ids)
    bad = _conflicting_bounds_cert(s)
    if bad is not None:
        return bad
    res, cert = s.check()
    if res == "unsat" and cert is not None and not _tainted(cert):
        return cert
    return None


def eliminate_equalities(lits):
    """Substitute away equalities with a unit-coefficient variable.

    Returns (residual_literals, substitutions) where substitutions is a list
    of (var, (coeffs, const)) applied in order; or ('unsat', None) when a
    substitution collapses some literal to false.
    """
    from . import exprs

    work = list(lits)
    subs = []
    while True:
        pick = None
        for idx, lit in enumerate(work):
            if lit[0] != "eq":
                continue
            for v, a in lit[1]:
                if a in (1, -1):
                    pick = (idx, v, a)
                    break
            if pick:
                break
        if pick is None:
            return work, subs
        idx, v, a = pick
        _, coeffs, k = work[idx]
        sign = -a  # v = sign * (rest + k)
        repl = (tuple((w, sign * b) for w, b in coeffs if w != v), sign * k)
        subs.append((v, repl))
        nxt = []
        for j, lit in enumerate(work):
            if j == idx:
                continue
            f = exprs.subst(lit, v, repl)
            if f == ("false",):
                return "unsat", None
            if f == ("true",):
                continue
            if f[0] in ("and", "or"):
                return None, None  # substitution split a ne; caller handles
            nxt.append(f)
        work = nxt


def merge_le_pairs(lits) -> list:
    """Rewrite complementary le pairs (t<=0 and -t<=0) as equalities."""
    les = {}
    out = []
    for lit in lits:
        if lit[0] == "le":
            les.setdefault((lit[1], lit[2]), 0)
    merged = set()
    for lit in lits:
        if lit[0] != "le":
            out.append(lit)
            continue
        key = (lit[1], lit[2])
        if key in merged:
            continue
        neg = (tuple((v, -a) for v, a in lit[1]), -lit[2])
        if neg in les:
            merged.add(key)
            merged.add(neg)
            coeffs, k = key
            if coeffs[0][1] < 0:
                coeffs, k = neg
            out.append(("eq", coeffs, k))
        else:
            out.append(lit)
    return out


def solve_literals(lits):
    """Conjunction of le/eq atoms: eliminate equalities, then simplex + b&b."""
    reduced, subs = eliminate_equalities(merge_le_pairs(lits))
    if reduced == "unsat":
        return "unsat", None
    if reduced is None:
        reduced, subs = list(lits), []
    facets, _ = expand_literals(reduced)
    res, payload = solve_facets(facets)
    if res != "sat":
        return res, None
    model = dict(payload)
    for v, (coeffs, k) in reversed(subs):
        model[v] = sum(a * model.get(w, 0) for w, a in coeffs) + k
    return "sat", model


# ------------------------------------------------------------- formula layer

MAX_NE_SPLIT = 6
MAX_BRANCHES = 20000


def _expand_conjuncts(f):
    """Yield lists of atoms whose disjunction covers formula f (f in NNF)."""
    tag = f[0]
    if tag == "true":
        yield []
    elif tag == "false":
        return
    elif tag in ("le", "eq", "ne"):
        yield [f]
    elif tag == "or":
        for g in f[1]:
            yield from _expand_conjuncts(g)
    elif tag == "and":
        yield from _expand_product(f[1], 0)
    else:
        raise ValueError(f"bad formula {f!r}")


def _expand_product(parts, i):
    if i == len(parts):
        yield []
        return
    for head in _expand_conjuncts(parts[i]):
        for rest in _expand_product(parts, i + 1):
            yield head + rest


def _split_ne(lits):
    """Yield le/eq-only literal lists covering a conjunction with ne atoms."""
    nes = [l for l in lits if l[0] == "ne"]
    rest = [l for l in lits if l[0] != "ne"]
    if len(nes) > MAX_NE_SPLIT:
        raise OverflowError("too many disequalities")
    def go(i, acc):
        if i == len(nes):
            yield rest + acc
            return
        _, coeffs, k = nes[i]
        lt = ("le", coeffs, k + 1)
        gt = ("le", tuple((v, -a) for v, a in coeffs), -k + 1)
        yield from go(i + 1, acc + [lt])
        yield from go(i + 1, acc + [gt])
    yield from go(0, [])


def solve_formula(f):
    """Integer satisfiability of a canonical NNF formula.

    Returns ('sat', model), ('unsat', None) or ('unknown', None).
    """
    from . import exprs

    count = 0
    saw_unknown = False
    try:
        for conj in _expand_conjuncts(f):
            for lits in _split_ne(conj):
                count += 1
                if count > MAX_BRANCHES:
                    return "unknown", None
                res, payload = solve_literals(lits)
                if res == "sat":
                    model = {v: payload.get(v, 0) for v in exprs.vars_of(f)}
                    model.update(payload)
                    if not exprs.eval_formula(f, model):
                        return "unknown", None
                    return "sat", model
                if res == "unknown":
                    saw_unknown = True
    except OverflowError:
        return "unknown", None
    return ("unknown", None) if saw_unknown else ("unsat", None)
