import itertools
import random

from fractions import Fraction

from hypothesis import given, strategies as st

from hyperweave import exprs, lia
from hyperweave.exprs import atom_from_cmp, var
from tests.oracles import num


def cmp(op, l, r):
    return atom_from_cmp(op, l, r)


def test_unsat_with_certificate():
    lits = [cmp(">", var("x"), num(0)), cmp("<", var("x"), num(0))]
    facets = lia.expand_literals(lits)
    assert lia.solve_facets(facets) == ("unsat", None)
    cert = lia.rational_cert(facets)
    assert cert is not None and lia.verify_cert(facets, cert)


def _random_facets(rng, names):
    facets = []
    for _ in range(rng.randint(1, 5)):
        coeffs = tuple((v, a) for v in names if (a := rng.randint(-3, 3)))
        facets.append((coeffs, rng.randint(-4, 4)))
    return facets


def test_shared_relaxation_on_random_facets():
    # rational_cert and solve_facets share one relaxation: a certificate
    # always verifies and means unsat, every model satisfies all facets, and
    # an integer-only unsat has no solution in a box
    rng = random.Random(5)
    certs = models = 0
    for _ in range(300):
        names = ["x", "y", "z"][:rng.randint(2, 3)]
        facets = _random_facets(rng, names)
        cert = lia.rational_cert(facets)
        res, model = lia.solve_facets(facets)
        holds = lambda env: all(sum(a * env[v] for v, a in coeffs) + k <= 0
                                for coeffs, k in facets)
        if cert is not None:
            certs += 1
            assert lia.verify_cert(facets, cert)
            assert (res, model) == ("unsat", None)
        elif res == "sat":
            models += 1
            assert holds(model)
        elif res == "unsat":
            box = itertools.product(range(-6, 7), repeat=len(names))
            assert not any(holds(dict(zip(names, p))) for p in box)
    assert certs and models


def test_solve_facets_tightens_by_gcd():
    # branch and bound alone ran out of budget here; -3x-3y-3z+1 <= 0 over
    # the integers is -x-y-z+1 <= 0
    facets = [((("x", -3), ("y", -3), ("z", -3)), 1),
              ((("x", 1), ("y", 1), ("z", 3)), 2),
              ((("x", -1), ("y", -3), ("z", -1)), -1)]
    res, model = lia.solve_facets(facets)
    assert res == "sat"
    assert all(sum(a * model[v] for v, a in coeffs) + k <= 0
               for coeffs, k in facets)


def test_many_fractional_variables_still_sat():
    # 2a + 3b = 1 relaxes to a = 1/2, b = 0: five such pairs leave five
    # fractional variables, past what the rounding probe tries
    lits = [cmp("=", ("add", ("mul", num(2), var(f"a{i}")),
                      ("mul", num(3), var(f"b{i}"))), num(1))
            for i in range(5)]
    facets = lia.expand_literals(lits)
    s, names, res, _ = lia._relax(facets)
    assert res == "sat"
    assert sum(s.beta[i].denominator != 1 for i in range(len(names))) > 4
    assert lia._rounding_probe(s, names, facets) is None
    f = exprs.c_and(lits)
    res, model = lia.solve_formula(f)
    assert res == "sat"
    assert exprs.eval_formula(f, model)


def test_sat_model_satisfies():
    f = exprs.c_and([cmp(">", var("x"), num(3)), cmp("<", var("x"), num(9)),
                     cmp("=", var("y"), ("add", var("x"), num(2)))])
    res, model = lia.solve_formula(f)
    assert res == "sat"
    assert exprs.eval_formula(f, model)


def test_integer_only_infeasibility():
    # x + 2y = 0 and x = 1 is rationally fine but has no integer solution
    f = exprs.c_and([
        cmp("=", ("add", var("x"), ("mul", num(2), var("y"))), num(0)),
        cmp("=", var("x"), num(1))])
    assert lia.solve_formula(f)[0] == "unsat"


def test_equality_elimination_keeps_models():
    lits = [cmp("=", var("x"), ("add", var("y"), num(1))),
            cmp("<=", var("y"), num(5)),
            cmp("<=", num(5), var("y"))]
    res, model = lia.solve_literals(lits)
    assert res == "sat"
    assert model["y"] == 5 and model["x"] == 6


def test_le_pair_merge():
    lits = [("le", (("x", 1), ("y", -2)), 0),
            ("le", (("x", -1), ("y", 2)), 0),
            ("le", (("x", -1),), 1)]   # x >= 1
    merged = lia.merge_le_pairs(lits)
    assert ("eq", (("x", 1), ("y", -2)), 0) in merged
    res, model = lia.solve_literals(lits)
    assert res == "sat"
    assert model["x"] == 2 * model["y"] and model["x"] >= 1


def test_disjunction_and_ne():
    f = exprs.c_and([cmp("!=", var("x"), num(0)),
                     cmp(">=", var("x"), num(0)),
                     cmp("<=", var("x"), num(1))])
    res, model = lia.solve_formula(f)
    assert res == "sat" and model["x"] == 1
    g = exprs.c_and([f, cmp("!=", var("x"), num(1))])
    assert lia.solve_formula(g)[0] == "unsat"


def test_random_conjunctions_against_bruteforce():
    rng = random.Random(3)
    names = ["x", "y"]
    for _ in range(120):
        lits = []
        for _ in range(rng.randint(1, 4)):
            cs = {v: rng.randint(-2, 2) for v in names}
            k = rng.randint(-3, 3)
            op = rng.choice(["<=", "=", "<", "!=", ">"])
            lhs = ("add", ("mul", num(cs["x"]), var("x")),
                   ("mul", num(cs["y"]), var("y")))
            lits.append(cmp(op, lhs, num(k)))
        f = exprs.c_and(lits)
        res, model = lia.solve_formula(f)
        brute = any(exprs.eval_formula(f, {"x": x, "y": y})
                    for x in range(-8, 9) for y in range(-8, 9))
        if res == "sat":
            assert exprs.eval_formula(f, model)
        elif res == "unsat":
            assert not brute
        # bounded brute force cannot refute 'unknown' or out-of-range models


def test_partial_sums_are_valid_chain():
    # certificate multipliers accumulate into intermediate inequalities
    facets = [((("x", 1),), 0),            # x <= 0
              ((("x", -1), ("y", 1)), 0),  # y <= x
              ((("y", -1),), 1)]           # y >= 1
    cert = lia.rational_cert(facets)
    assert cert is not None and lia.verify_cert(facets, cert)
    partial = {}
    const = Fraction(0)
    for idx in range(2):
        m = cert.get(idx, Fraction(0))
        for v, a in facets[idx][0]:
            partial[v] = partial.get(v, Fraction(0)) + m * a
        const += m * facets[idx][1]
    # after the first two facets the combination implies y <= 0
    assert partial.get("x", 0) == 0 and partial["y"] > 0


def _exact_values(s, cert):
    """Every value the simplex holds: rows, beta, bounds, multipliers."""
    yield from (a for row in s.rows.values() for a in row.values())
    yield from s.beta.values()
    yield from (val for table in (s.lo, s.hi) for val, _ in table.values())
    yield from (cert or {}).values()


def test_simplex_keeps_integral_values_as_ints():
    # the random facets of test_shared_relaxation_on_random_facets: a value
    # is a Fraction only when it is not integral, and both kinds occur
    rng = random.Random(5)
    fractions = 0
    for _ in range(300):
        names = ["x", "y", "z"][:rng.randint(2, 3)]
        s, _, _, cert = lia._relax(_random_facets(rng, names))
        for val in _exact_values(s, cert):
            assert type(val) is int or val.denominator != 1, val
            fractions += type(val) is Fraction
    assert fractions


_NUMS = st.one_of(st.integers(-60, 60),
                  st.fractions(-60, 60, max_denominator=12))


@given(_NUMS, _NUMS.filter(bool))
def test_q_divides_exactly(p, q):
    # ints, Fractions and mixed: an int exactly when the quotient is integral
    r = lia._q(p, q)
    assert r == Fraction(p) / q
    assert (type(r) is int) == ((Fraction(p) / q).denominator == 1)
    assert lia._q(r) == r and type(lia._q(r)) is type(r)
