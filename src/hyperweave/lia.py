"""Linear integer arithmetic: satisfiability, models, Farkas certificates.

The entire verifier's logic is QF_LIA, small and dense, so this is a
self-contained exact implementation with one solving path:

- ``solve_formula`` splits a canonical NNF formula into conjunctions of atoms
  (DNF) and each ``ne`` atom into its two strict halves (``ne_halves``);
- ``solve_literals`` merges complementary ``le`` pairs into equalities and
  substitutes away equalities with a unit coefficient;
- ``solve_facets`` solves the rational relaxation (``_relax``: an exact
  simplex in the bounds-and-tableau style, over ints, with a ``Fraction`` only
  for a non-integral value) and then branches and bounds for integrality.

``rational_cert`` runs the same relaxation.  When a conjunction is rationally
infeasible the simplex yields a Farkas certificate (nonnegative multipliers
over input facets summing to a positive constant), which the interpolation
engine consumes.

Facets are pairs (coeffs, k) with coeffs a tuple of (var, int) meaning
sum(c*v) + k <= 0.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional

from . import exprs
from .exprs import _neg_coeffs

ZERO = 0
BRANCH_BUDGET = 600                # branch-and-bound nodes per solve_facets
Num = int | Fraction               # an int whenever the value is integral


def _q(p, q=1):
    """p / q exactly, for ints and Fractions: an int when the quotient is
    integral, else a Fraction.  _q(x) normalizes an integral Fraction x."""
    if p.__class__ is int and q.__class__ is int:
        return p // q if p % q == 0 else Fraction(p, q)
    r = Fraction(p, q)
    return r.numerator if r.denominator == 1 else r


class Budget:
    def __init__(self, n: int):
        self.left = n

    def spend(self) -> bool:
        self.left -= 1
        return self.left >= 0


def expand_literals(lits) -> list:
    """Facets of canonical le/eq atoms, in order (an eq gives two facets).
    'ne' atoms must be split by the caller (see ne_halves)."""
    facets = []
    for tag, coeffs, k in lits:
        if tag not in ("le", "eq"):
            raise ValueError(f"cannot expand {tag} atom")
        facets.append((coeffs, k))
        if tag == "eq":
            facets.append((_neg_coeffs(coeffs), -k))
    return facets


def ne_halves(atom) -> tuple:
    """The le atoms t < 0 and t > 0 whose disjunction is the ne atom t != 0."""
    _, coeffs, k = atom
    return ("le", coeffs, k + 1), ("le", _neg_coeffs(coeffs), -k + 1)


def verify_cert(facets, cert: dict) -> bool:
    """Check a Farkas certificate: sum of m*facet is 0 <= -c with c > 0."""
    total: dict = {}
    const = 0
    for idx, m in cert.items():
        if m < 0:
            return False
        coeffs, k = facets[idx]
        for v, a in coeffs:
            total[v] = total.get(v, ZERO) + m * a
        const += m * k
    return all(a == 0 for a in total.values()) and const > 0


class Simplex:
    """General simplex with variable bounds, exact over ints and Fractions:
    a row coefficient, beta, bound or multiplier is an int when integral."""

    BRANCH = -1  # pseudo facet index for branch-and-bound bounds

    def __init__(self):
        self.rows: dict[int, dict[int, Num]] = {}
        self.beta: dict[int, Num] = {}
        self.lo: dict[int, tuple[Num, int]] = {}
        self.hi: dict[int, tuple[Num, int]] = {}
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

    def add_bound(self, v: int, side: str, val: Num, reason: int) -> bool:
        """Record a bound; returns False on an immediately empty interval."""
        table = self.hi if side == "hi" else self.lo
        cur = table.get(v)
        if cur is None or (val < cur[0] if side == "hi" else val > cur[0]):
            table[v] = (val, reason)
        lo, hi = self.lo.get(v), self.hi.get(v)
        return not (lo is not None and hi is not None and lo[0] > hi[0])

    def define_slack(self, combo: dict[int, int]) -> int:
        s = self.new_var()
        self.rows[s] = {v: a for v, a in combo.items() if a != 0}
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

    def _update_nonbasic(self, v: int, val: Num):
        d = val - self.beta[v]
        if d == 0:
            return
        self.beta[v] = val
        for b, row in self.rows.items():
            a = row.get(v)
            if a:
                self.beta[b] = _q(self.beta[b] + a * d)

    def _pivot(self, b: int, n: int, target: Num):
        row = self.rows[b]
        a = row[n]
        theta = _q(target - self.beta[b], a)
        self.beta[n] = _q(self.beta[n] + theta)
        self.beta[b] = target
        for m, mrow in self.rows.items():
            if m != b:
                c = mrow.get(n)
                if c:
                    self.beta[m] = _q(self.beta[m] + c * theta)
        del self.rows[b]
        nrow = {b: _q(1, a)}
        for j, c in row.items():
            if j != n and c != 0:
                nrow[j] = _q(-c, a)
        for m in list(self.rows):
            mrow = self.rows[m]
            c = mrow.pop(n, None)
            if c:
                for j, d in nrow.items():
                    val = _q(mrow.get(j, ZERO) + c * d)
                    if val == 0:
                        mrow.pop(j, None)
                    else:
                        mrow[j] = val
        self.rows[n] = nrow

    def check(self):
        """Returns ('sat', None) or ('unsat', cert) with cert facet->mult.

        The first basic variable out of its bounds is pivoted with the first
        nonbasic variable that can move it back (up = it must rise); when
        none can, its row is the certificate.
        """
        self._init_assignment()
        while True:
            for b in sorted(self.rows):
                lo, hi = self.lo.get(b), self.hi.get(b)
                if lo is not None and self.beta[b] < lo[0]:
                    up, target = True, lo[0]
                    break
                if hi is not None and self.beta[b] > hi[0]:
                    up, target = False, hi[0]
                    break
            else:
                return "sat", None
            row = self.rows[b]
            for n in sorted(row):
                if (row[n] > 0) == up:     # n must rise: its upper bound blocks
                    lim = self.hi.get(n)
                    if lim is None or self.beta[n] < lim[0]:
                        break
                else:                      # n must fall: its lower bound blocks
                    lim = self.lo.get(n)
                    if lim is None or self.beta[n] > lim[0]:
                        break
            else:
                return "unsat", self._certificate(b, up)
            self._pivot(b, n, target)

    def _certificate(self, b: int, up: bool) -> dict:
        """Multipliers of b's violated bound and of every bound blocking b."""
        own, other = (self.lo, self.hi) if up else (self.hi, self.lo)
        cert = {own[b][1]: 1}
        for n, a in self.rows[b].items():
            reason = (other if a > 0 else own)[n][1]
            cert[reason] = _q(cert.get(reason, ZERO) + abs(a))
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
                # empty-interval variable so _relax reports it with a cert
                v = s.new_var()
                s.rows[v] = {}
                s.add_bound(v, "hi", -k, idx)
                s.add_bound(v, "lo", ZERO, idx)
        elif len(coeffs) == 1 and coeffs[0][1] in (1, -1):
            # a bound; any other facet bounds a slack row, since a bound
            # v <= -k/a would scale the facet's certificate multiplier by |a|
            (v, a), = coeffs
            s.add_bound(var_ids[v], "hi" if a > 0 else "lo", _q(-k, a), idx)
        else:
            slack = combo_slack.get(coeffs)
            if slack is None:
                slack = combo_slack[coeffs] = s.define_slack(
                    {var_ids[v]: a for v, a in coeffs})
            s.add_bound(slack, "hi", -k, idx)
    return s


def _relax(facets):
    """The rational relaxation of a conjunction of facets.

    Returns (simplex, names, res, cert): names[i] is the input variable with
    simplex id i, res is 'sat' or 'unsat', and cert is the Farkas
    certificate of an 'unsat' (None for 'sat').
    """
    names = sorted({v for coeffs, _ in facets for v, _ in coeffs})
    s = _build_simplex(facets, {v: i for i, v in enumerate(names)})
    for v in range(s.nvars):
        lo, hi = s.lo.get(v), s.hi.get(v)
        if lo is not None and hi is not None and lo[0] > hi[0]:
            cert: dict = {}
            for reason in (lo[1], hi[1]):
                cert[reason] = cert.get(reason, ZERO) + 1
            return s, names, "unsat", cert
    res, cert = s.check()
    return s, names, res, cert


def rational_cert(facets) -> Optional[dict]:
    """Farkas certificate if the facets are rationally infeasible, else None."""
    _, _, res, cert = _relax(facets)
    return cert if res == "unsat" else None


def _tighten(facet):
    """The facet divided by the gcd g of its coefficients, with the constant
    rounded up to ceil(k/g): the same integer points, a tighter relaxation."""
    coeffs, k = facet
    g = 0
    for _, a in coeffs:
        g = gcd(g, a)
    if g <= 1:
        return facet
    return tuple((v, a // g) for v, a in coeffs), -(-k // g)


def solve_facets(facets):
    """Integer satisfiability of a conjunction of facets.

    Returns ('sat', model), ('unsat', None) or ('unknown', None).  Each facet
    is gcd-tightened first (rational_cert is not: its certificate is over
    the input facets).
    """
    facets = [_tighten(f) for f in facets]
    s, names, res, _ = _relax(facets)
    if res == "unsat":
        return "unsat", None
    return _branch(s, names, facets, Budget(BRANCH_BUDGET))


def _rounding_probe(s: Simplex, names, facets):
    """Try floor/ceil combinations of up to 4 fractional variables."""
    fracs = [i for i in range(len(names)) if s.beta[i].denominator != 1]
    if len(fracs) > 4:
        return None
    floors = [s.beta[i].numerator // s.beta[i].denominator
              for i in range(len(names))]
    index = {v: i for i, v in enumerate(names)}
    for combo in range(1 << len(fracs)):
        cand = list(floors)
        for bit, i in enumerate(fracs):
            cand[i] += combo >> bit & 1
        if any(sum(a * cand[index[v]] for v, a in coeffs) + k > 0
               for coeffs, k in facets):
            continue
        if all((s.lo.get(i) is None or cand[i] >= s.lo[i][0])
               and (s.hi.get(i) is None or cand[i] <= s.hi[i][0])
               for i in range(len(names))):
            return dict(zip(names, cand))
    return None


def _branch(s: Simplex, names, facets, budget: Budget):
    if not budget.spend():
        return "unknown", None
    frac_var = next((i for i in range(len(names))
                     if s.beta[i].denominator != 1), None)
    if frac_var is None:
        return "sat", {names[i]: int(s.beta[i]) for i in range(len(names))}
    probe = _rounding_probe(s, names, facets)
    if probe is not None:
        return "sat", probe
    val = s.beta[frac_var]
    floor_v = val.numerator // val.denominator
    unknown = False
    for side, bound in (("hi", floor_v), ("lo", floor_v + 1)):
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


def eliminate_equalities(lits):
    """Substitute away equalities with a unit-coefficient variable.

    lits are le/eq atoms.  Returns (residual_literals, substitutions) where
    substitutions is a list of (var, (coeffs, const)) applied in order; or
    None when a substitution collapses some literal to false.
    """
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
                return None
            if f != ("true",):
                nxt.append(f)
        work = nxt


def merge_le_pairs(lits) -> list:
    """Rewrite complementary le pairs (t<=0 and -t<=0) as equalities."""
    les = {(lit[1], lit[2]) for lit in lits if lit[0] == "le"}
    out = []
    merged = set()
    for lit in lits:
        if lit[0] != "le":
            out.append(lit)
            continue
        key = (lit[1], lit[2])
        if key in merged:
            continue
        neg = (_neg_coeffs(lit[1]), -lit[2])
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
    """Conjunction of le/eq atoms: eliminate equalities, then solve_facets."""
    reduced = eliminate_equalities(merge_le_pairs(lits))
    if reduced is None:
        return "unsat", None
    lits, subs = reduced
    res, model = solve_facets(expand_literals(lits))
    if res != "sat":
        return res, None
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
        for half in ne_halves(nes[i]):
            yield from go(i + 1, acc + [half])
    yield from go(0, [])


def solve_formula(f):
    """Integer satisfiability of a canonical NNF formula.

    Returns ('sat', model), ('unsat', None) or ('unknown', None).
    """
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
