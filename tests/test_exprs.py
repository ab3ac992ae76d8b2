import random

from hypothesis import given, strategies as st

from hyperweave import exprs
from hyperweave.exprs import FALSE, TRUE, atom_from_cmp, var
from tests.oracles import num


def cmp(op, l, r):
    return atom_from_cmp(op, l, r)


def test_constant_folding():
    assert cmp("<", num(1), num(2)) == TRUE
    assert cmp("=", num(1), num(2)) == FALSE
    assert cmp("!=", var("x"), var("x")) == FALSE
    assert cmp("<=", var("x"), var("x")) == TRUE


def test_gcd_normalization():
    # 2x = 1 has no integer solution
    assert cmp("=", ("mul", num(2), var("x")), num(1)) == FALSE
    # 2x <= 1 tightens to x <= 0
    a = cmp("<=", ("mul", num(2), var("x")), num(1))
    assert a == ("le", (("x", 1),), 0)


def test_negation_involution():
    a = cmp("<", var("x"), ("add", var("y"), num(3)))
    assert exprs.negate(exprs.negate(a)) == a
    assert exprs.negate(TRUE) == FALSE


def test_and_or_simplification():
    a = cmp("<", var("x"), num(0))
    assert exprs.c_and([a, TRUE]) == a
    assert exprs.c_and([a, FALSE]) == FALSE
    assert exprs.c_or([a, exprs.negate(a)]) == TRUE
    assert exprs.c_and([a, exprs.negate(a)]) == FALSE
    assert exprs.c_and([a, a]) == a


def test_subst():
    a = cmp("=", var("x"), num(1))
    # x := x + 1 backwards: x = 1 becomes x + 1 = 1, i.e. x = 0
    b = exprs.subst(a, "x", ((("x", 1),), 1))
    assert b == cmp("=", var("x"), num(0))


def test_rename_and_vars():
    a = cmp("<=", ("add", var("x"), var("y")), num(0))
    assert exprs.vars_of(a) == {"x", "y"}
    b = exprs.rename(a, {"x": "x@1"})
    assert exprs.vars_of(b) == {"x@1", "y"}


def test_eval():
    f = exprs.c_and([cmp("<", var("x"), var("y")), cmp("!=", var("y"), num(3))])
    assert exprs.eval_formula(f, {"x": 0, "y": 2})
    assert not exprs.eval_formula(f, {"x": 0, "y": 3})


def test_implies_atoms():
    x_le_0 = cmp("<=", var("x"), num(0))
    x_le_1 = cmp("<=", var("x"), num(1))
    x_eq_0 = cmp("=", var("x"), num(0))
    assert exprs.implies(x_le_0, x_le_1)
    assert not exprs.implies(x_le_1, x_le_0)
    assert exprs.implies(x_eq_0, x_le_0)
    assert exprs.implies(x_eq_0, cmp("!=", var("x"), num(5)))
    assert exprs.implies(exprs.c_and([x_le_0, x_eq_0]), x_le_1)
    assert exprs.implies(x_eq_0, exprs.c_or([x_le_0, cmp("<", var("y"), num(0))]))


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_atom_semantics_preserved(cx, cy, k):
    rng = random.Random(cx * 100 + cy * 10 + k)
    lhs = ("add", ("mul", num(cx), var("x")), ("mul", num(cy), var("y")))
    for op in ("<", "<=", "=", "!=", ">", ">="):
        atom = atom_from_cmp(op, lhs, num(k))
        for _ in range(12):
            env = {"x": rng.randint(-6, 6), "y": rng.randint(-6, 6)}
            lhs_v = cx * env["x"] + cy * env["y"]
            want = {"<": lhs_v < k, "<=": lhs_v <= k, "=": lhs_v == k,
                    "!=": lhs_v != k, ">": lhs_v > k, ">=": lhs_v >= k}[op]
            assert exprs.eval_formula(atom, env) == want


_VARS = ["a", "b", "x@1", "x@2", "y"]


@given(st.dictionaries(st.sampled_from(_VARS),
                       st.integers(-9, 9).filter(bool), min_size=1),
       st.integers(-20, 20))
def test_negate_of_canonical_le_atoms(coeffs, k):
    # negate flips a canonical le atom in place; the result is what _atom
    # would build, and negating twice gives the atom back
    f = exprs._atom("le", coeffs, k)
    assert f[0] == "le"
    assert exprs.negate(f) == exprs._atom("le", {v: -a for v, a in f[1]},
                                          1 - f[2])
    assert exprs.negate(exprs.negate(f)) == f
