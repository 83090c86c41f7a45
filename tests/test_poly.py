"""Laurent polynomial core: ring axioms, calculus, substitution, division."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from trivertex.poly import (
    DivisionByZero,
    InexactDivision,
    LaurentPoly,
    NegativeExponentSubstitution,
    Var,
    exact_divide,
    parse_var_name,
)

X = Var.layer(1)
Y = Var.layer(2)
Z = Var.layer(3)
Q = Var.q()


def lp_var(v, e=1):
    return LaurentPoly.var(v, e)


# -- hypothesis strategies -------------------------------------------------

vars_pool = [Q, X, Y, Z, Var.site(1, 1, 1), Var.aux(2)]


@st.composite
def monomials(draw):
    exps = {}
    for v in draw(st.sets(st.sampled_from(vars_pool), max_size=3)):
        exps[v] = draw(st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0))
    return exps


@st.composite
def polys(draw, max_terms=5):
    p = LaurentPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        c = draw(st.integers(min_value=-9, max_value=9))
        p = p + LaurentPoly.monomial(draw(monomials()), c)
    return p


# -- ring axioms -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_no_zero_coefficients_stored(a, b):
    for p in (a + b, a * b, a - b):
        assert all(c != 0 for c in p.terms.values())
        for m in p.terms:
            assert all(e != 0 for _, e in m)
            assert list(m) == sorted(m, key=lambda ve: ve[0].sort_key())


# -- calculus --------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(polys(), polys())
def test_derivative_leibniz(a, b):
    v = X
    lhs = (a * b).derivative(v)
    rhs = a.derivative(v) * b + a * b.derivative(v)
    assert lhs == rhs


def test_derivative_negative_exponent():
    p = lp_var(X, -2)  # d/dx x^-2 = -2 x^-3
    assert p.derivative(X) == LaurentPoly.monomial({X: -3}, -2)
    assert p.derivative(X, order=0) == p


# -- substitution ----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_substitute_is_ring_homomorphism(a, b, sub):
    binding = {Y: sub}
    try:
        lhs_mul = (a * b).substitute(binding)
        lhs_add = (a + b).substitute(binding)
        sa, sb = a.substitute(binding), b.substitute(binding)
    except (NegativeExponentSubstitution, DivisionByZero):
        # binding not legal for these operands (negative exponent of Y against
        # a non-unit image); nothing to check
        return
    assert lhs_mul == sa * sb
    assert lhs_add == sa + sb


def test_substitute_negative_exponent_rules():
    p = lp_var(X, -1)
    # single unit term is fine, including sign
    assert p.substitute({X: LaurentPoly.monomial({Y: 2}, -1)}) == LaurentPoly.monomial({Y: -2}, -1)
    with pytest.raises(NegativeExponentSubstitution):
        p.substitute({X: lp_var(Y) + 1})
    with pytest.raises(NegativeExponentSubstitution):
        p.substitute({X: LaurentPoly.monomial({Y: 1}, 2)})
    with pytest.raises(DivisionByZero):
        p.substitute({X: LaurentPoly.zero()})


def test_substitute_unbound_vars_pass_through():
    p = lp_var(X) * lp_var(Y) + 3
    assert p.substitute({X: LaurentPoly.const(2)}) == 2 * lp_var(Y) + 3


def test_evaluate_fractions():
    p = lp_var(X, -1) + lp_var(Y)
    val = p.evaluate({X: Fraction(2), Y: Fraction(1, 3)})
    assert val == Fraction(1, 2) + Fraction(1, 3)
    assert (lp_var(X) - lp_var(X)).evaluate({}) == 0


# -- exact division --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_exact_divide_roundtrip(a, b):
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            exact_divide(a, b)
        return
    assert exact_divide(a * b, b) == a


def test_exact_divide_inexact():
    x, y = lp_var(X), lp_var(Y)
    with pytest.raises(InexactDivision):
        exact_divide(x + y, x - y)
    with pytest.raises(InexactDivision):
        exact_divide(x, LaurentPoly.const(2))


def test_exact_divide_laurent_monomial_quotient():
    # x / y is a legitimate Laurent quotient even though neither divides the
    # other as ordinary polynomials
    x, y = lp_var(X), lp_var(Y)
    assert exact_divide(x, y) == LaurentPoly.monomial({X: 1, Y: -1})
    num = (lp_var(X, -1) + 1) * (lp_var(Y, -1) + x)
    assert exact_divide(num, lp_var(X, -1) + 1) == lp_var(Y, -1) + x


def test_exact_divide_alternant_case():
    # Vandermonde-style cancellation: (x^2 y - x y^2) / (x - y) = x y
    x, y = lp_var(X), lp_var(Y)
    num = lp_var(X, 2) * y - x * lp_var(Y, 2)
    assert exact_divide(num, x - y) == x * y


# -- ordering and serialization -------------------------------------------

def test_var_order():
    assert Q < X < Y < Var.site(1, 1, 1) < Var.aux(0)
    assert Var.site(1, 1, 2) < Var.site(1, 2, 1) < Var.site(2, 1, 1)


def test_canonical_term_order_graded_lex():
    x, y = lp_var(X), lp_var(Y)
    p = 1 + x + y + x * x + x * y
    monos = [m for m, _ in p.sorted_terms()]
    names = ["*".join("%s^%d" % (v.name, e) for v, e in m) for m in monos]
    assert names == ["z1^2", "z1^1*z2^1", "z1^1", "z2^1", ""]


def test_json_roundtrip_and_determinism():
    p = 3 * lp_var(X, 2) * lp_var(Q, -1) - lp_var(Y) + 7
    q = LaurentPoly.from_json(p.to_json())
    assert q == p
    assert p.to_json() == q.to_json()


def test_obj_shape_has_int_coefficients():
    p = 3 * lp_var(X, 2) - lp_var(Y) + 7
    assert p.to_obj() == [{"monomial": {"z1": 2}, "coeff": 3},
                          {"monomial": {"z2": 1}, "coeff": -1},
                          {"monomial": {}, "coeff": 7}]
    # string coefficients still parse
    assert LaurentPoly.from_obj([{"monomial": {"z1": 2}, "coeff": "3"}]) == 3 * lp_var(X, 2)


def test_parse_var_name_roundtrip():
    for v in [Q, X, Var.site(3, 1, 2), Var.aux(17)]:
        assert parse_var_name(v.name) == v
    for bad in ["", "x1", "z", "zq", "z1_k2", "w", "q2"]:
        with pytest.raises(ValueError):
            parse_var_name(bad)


def test_str_rendering():
    p = lp_var(X, 2) - 2 * lp_var(Y) + 1
    assert str(p) == "z1^2 - 2 z2 + 1"
    assert str(LaurentPoly.zero()) == "0"


def test_pow_negative_unit_term():
    p = LaurentPoly.monomial({X: 2}, -1)
    assert p ** -3 == LaurentPoly.monomial({X: -6}, -1)
    with pytest.raises(NegativeExponentSubstitution):
        (lp_var(X) + 1) ** -1
