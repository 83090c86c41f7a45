"""Laurent polynomial core: ring axioms, calculus, substitution, division."""

import copy
import heapq
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from trivertex.poly import (
    Alphabet,
    DivisionByZero,
    InexactDivision,
    LaurentPoly,
    Monomial,
    NegativeExponentSubstitution,
    PolyError,
    Var,
    add_product,
    monomial_degree,
    monomial_invert,
    monomial_mul,
    packing,
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
def monomials(draw, pool=tuple(vars_pool), low=-3, high=3):
    exps = {}
    for v in draw(st.sets(st.sampled_from(pool), max_size=3)):
        exps[v] = draw(st.integers(min_value=low, max_value=high).filter(lambda e: e != 0))
    return exps


@st.composite
def polys(draw, max_terms=5, **monomial_ranges):
    p = LaurentPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        c = draw(st.integers(min_value=-9, max_value=9))
        p = p + LaurentPoly.monomial(draw(monomials(**monomial_ranges)), c)
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

def exact_divide(a, b):
    """Quotient a / b, which must be exact (a == q * b for a Laurent q).

    Strips each operand's content (the per-variable minimum exponent) and
    packs every monomial into one int: the total degree in the top field,
    then the exponents in variable order, each field with a guard bit on
    top, so integer comparison is the graded-lex order.  The fields are as
    wide as the larger top degree of the two operands; sized by the
    dividend alone, a divisor of higher degree would overflow them.  The
    remainder is a dict keyed by packed int with a lazily pruned max-heap of
    its keys.  A quotient monomial is (lead | guard bits) - divisor lead, and
    a cleared guard bit there is a negative exponent: no exact quotient.

    No library route divides a general pair of polynomials: this is the
    reference the Schur oracles' division by the Vandermonde product
    (`symfunc._divide_pairs`) is checked against, itself checked against the
    term route below.  Raises DivisionByZero if b is zero and
    InexactDivision if no Laurent polynomial quotient with integer
    coefficients exists.
    """
    if b.is_zero():
        raise DivisionByZero("exact_divide by the zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero()
    universe = tuple(sorted(set(a.variables()) | set(b.variables()), key=Var.sort_key))
    pos = {v: i for i, v in enumerate(universe)}

    def stripped(p):
        vecs = [[0] * len(universe) for _ in p.terms]
        for vec, m in zip(vecs, p.terms):
            for v, e in m:
                vec[pos[v]] = e
        content = [min(col) for col in zip(*vecs)]
        return content, [[e - c for e, c in zip(vec, content)] for vec in vecs]

    ca, vecs_a = stripped(a)
    cb, vecs_b = stripped(b)
    width = max(sum(vec) for vec in vecs_a + vecs_b).bit_length()
    field = width + 1
    guard = sum(1 << (width + i * field) for i in range(len(universe) + 1))

    def pack(vec):
        key = sum(vec)
        for e in vec:
            key = key << field | e
        return key

    rem = {pack(vec): c for vec, c in zip(vecs_a, a.terms.values())}
    b_terms = sorted(zip(map(pack, vecs_b), b.terms.values()), reverse=True)
    (lead_b, lead_b_coeff), rest_b = b_terms[0], b_terms[1:]
    heap = [-key for key in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        lead_r = -heapq.heappop(heap)
        coeff_r = rem.pop(lead_r, 0)
        if not coeff_r:
            continue  # cancelled after it was pushed
        if coeff_r % lead_b_coeff != 0:
            raise InexactDivision("leading coefficient %d not divisible by %d" % (coeff_r, lead_b_coeff))
        qm = (lead_r | guard) - lead_b
        if qm & guard != guard:
            raise InexactDivision("no exact Laurent quotient")
        qm ^= guard
        qc = coeff_r // lead_b_coeff
        quot[qm] = qc
        for mb, cb_ in rest_b:
            m = qm + mb
            s = rem.get(m, 0) - qc * cb_
            if not s:
                rem.pop(m, None)
                continue
            if m not in rem:
                heapq.heappush(heap, -m)
            rem[m] = s
    # unpack, restoring the monomial quotient of the two contents
    mask = (1 << width) - 1
    fields = [(v, field * (len(universe) - 1 - i), ca[i] - cb[i]) for i, v in enumerate(universe)]

    def unpack(key):
        exps = ((v, (key >> off & mask) + shift) for v, off, shift in fields)
        return tuple((v, e) for v, e in exps if e)

    return LaurentPoly({unpack(key): c for key, c in quot.items()})


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


# -- the term route: division on Var-keyed monomials, rescanning the
# remainder for its leading term at every step ------------------------------

def term_content(p):
    """Per-variable minimum exponent over the support (0 for absent vars)."""
    mins = {}
    seen_in_all = None
    for m in p.terms:
        here = dict(m)
        for v, e in here.items():
            mins[v] = min(mins[v], e) if v in mins else e
        seen_in_all = set(here) if seen_in_all is None else seen_in_all & set(here)
    # A variable absent from some monomial has implicit exponent 0 there.
    for v in list(mins):
        if v not in seen_in_all and mins[v] > 0:
            mins[v] = 0
    return {v: e for v, e in mins.items() if e != 0}


def term_exact_divide(a, b):
    if b.is_zero():
        raise DivisionByZero("exact_divide by the zero polynomial")
    if a.is_zero():
        return LaurentPoly.zero()
    ca, cb = term_content(a), term_content(b)
    A = a * LaurentPoly.monomial({v: -e for v, e in ca.items()})
    B = b * LaurentPoly.monomial({v: -e for v, e in cb.items()})
    universe = tuple(sorted(set(A.variables()) | set(B.variables()), key=Var.sort_key))
    pos = {v: i for i, v in enumerate(universe)}

    def key(m: Monomial):
        vec = [0] * len(universe)
        for v, e in m:
            vec[pos[v]] = e
        return (monomial_degree(m), tuple(vec))

    lead_b = max(B.terms, key=key)
    lead_b_coeff = B.terms[lead_b]
    rem = dict(A.terms)
    quot = {}
    while rem:
        lead_r = max(rem, key=key)
        coeff_r = rem[lead_r]
        if coeff_r % lead_b_coeff != 0:
            raise InexactDivision("leading coefficient %d not divisible by %d" % (coeff_r, lead_b_coeff))
        qm = monomial_mul(lead_r, monomial_invert(lead_b))
        if any(e < 0 for _, e in qm):
            raise InexactDivision("no exact Laurent quotient")
        qc = coeff_r // lead_b_coeff
        quot[qm] = quot.get(qm, 0) + qc
        for mb, cb_ in B.terms.items():
            m = monomial_mul(qm, mb)
            s = rem.get(m, 0) - qc * cb_
            if s:
                rem[m] = s
            else:
                rem.pop(m, None)
    return LaurentPoly(quot) * LaurentPoly.monomial(ca) * LaurentPoly.monomial({v: -e for v, e in cb.items()})


def division_outcome(divide, a, b):
    """The quotient, or the type and message of the error raised."""
    try:
        return divide(a, b)
    except PolyError as exc:
        return type(exc), str(exc)


division_operands = polys(4, pool=(Q, X, Y, Z), low=-2, high=4)


@settings(max_examples=300, deadline=None)
@given(division_operands, division_operands)
# the divisor's degree exceeds the dividend's: fields sized by the dividend
# alone would misorder the divisor's terms
@example(lp_var(Q), lp_var(Q, 4) * lp_var(X, 3) + 2 * lp_var(Q, 3) * lp_var(Z, 4) + 1)
@example(lp_var(X) + 2 * lp_var(Y), lp_var(X, 5) + lp_var(Y) * lp_var(Z))
# exponents of 64 and more need fields wider than a machine word
@example(lp_var(X, 70) + lp_var(Y), lp_var(X) - lp_var(Y, 65))
# a constant divisor with a non-unit coefficient
@example(3 * lp_var(X) + 2 * lp_var(Y), LaurentPoly.const(-2))
# negative exponents in the quotient come back from the stripped contents
@example(lp_var(X, -3) * lp_var(Y, -3) * (lp_var(X) + lp_var(Y)),
         lp_var(X) * lp_var(Y, 2) * (lp_var(X) - 3 * lp_var(Y)))
def test_exact_divide_matches_term_route(a, b):
    for num in (a * b, a * b + b * b, a + 1):
        assert division_outcome(exact_divide, num, b) == division_outcome(term_exact_divide, num, b)


def test_exact_divide_known_quotients():
    x, y, z = lp_var(X), lp_var(Y), lp_var(Z)
    assert exact_divide((lp_var(X, 70) + y) * (x - lp_var(Y, 65)), x - lp_var(Y, 65)) == lp_var(X, 70) + y
    assert exact_divide(6 * x + 4 * y, LaurentPoly.const(-2)) == -3 * x - 2 * y
    with pytest.raises(InexactDivision, match="leading coefficient 3 not divisible by -2"):
        exact_divide(6 * x + 3, LaurentPoly.const(-2))
    with pytest.raises(InexactDivision, match="no exact Laurent quotient"):
        exact_divide(x + 2 * y + 1, lp_var(X, 5) + y * z)
    num = lp_var(X, -2) * lp_var(Y, -1) * (x + y) * (x - 3 * y)
    den = x * lp_var(Y, 2) * (x - 3 * y)
    assert exact_divide(num, den) == lp_var(X, -3) * lp_var(Y, -3) * (x + y)


# -- packed exponent vectors ----------------------------------------------

@st.composite
def packed_pairs(draw):
    """A reach and two vectors of one length (0..6) with entries within it."""
    reach = draw(st.integers(min_value=0, max_value=40))
    slots = draw(st.integers(min_value=0, max_value=6))
    vec = st.lists(st.integers(min_value=-reach, max_value=reach), min_size=slots,
                   max_size=slots)
    return reach, draw(vec), draw(vec)


@settings(max_examples=200, deadline=None)
@given(packed_pairs())
# reach 0, and entries at the reach where the width steps up
@example((0, [0, 0, 0], [0, 0, 0]))
@example((3, [3, -3, 3], [-3, 3, 0]))
@example((4, [-4, 4, -1], [4, -4, 0]))
def test_packing_roundtrip_sum_and_read(case):
    # entry s adds e_s << (width * s); unpack and read invert that, also on
    # the sum of two packed vectors while every entry stays within reach
    reach, a, b = case
    width, read, unpack = packing(reach, len(a))
    total = [x + y for x, y in zip(a, b)]
    keys = [(vec, sum(e << (width * s) for s, e in enumerate(vec))) for vec in (a, b)]
    if all(abs(e) <= reach for e in total):
        keys.append((total, keys[0][1] + keys[1][1]))
    for vec, key in keys:
        assert unpack(key) == tuple(vec)
        assert [read(key, s) for s in range(len(vec))] == vec
    assert unpack(0) == (0,) * len(a)


MIXED = [Q, X, Z, Var.site(1, 1, 1), Var.site(2, 1, 2), Var.aux(0), Var.aux(3)]


@settings(max_examples=200, deadline=None)
@given(st.permutations(MIXED), st.integers(min_value=0, max_value=9), st.data())
def test_alphabet_pack_poly_and_product(pool, reach, data):
    # over a permuted alphabet of mixed Var kinds, pack and poly invert each
    # other, and add_product multiplies while every exponent stays in reach
    atoms = pool[:data.draw(st.integers(min_value=0, max_value=len(pool)))]
    alphabet = Alphabet(atoms, reach)

    def draw_poly(bounds):
        exps = st.tuples(*[st.integers(min_value=lo, max_value=hi) for lo, hi in bounds])
        terms = data.draw(st.lists(st.tuples(exps, st.integers(-5, 5)), max_size=4))
        return sum((LaurentPoly.monomial(dict(zip(atoms, e)), c) for e, c in terms),
                   LaurentPoly.zero())

    a = draw_poly([(-reach, reach)] * len(atoms))
    # b's exponents stay within reach, and so do their sums with a's
    cols = [[dict(m).get(v, 0) for m in a.terms] or [0] for v in atoms]
    b = draw_poly([(max(-reach, -reach - min(col)), min(reach, reach - max(col)))
                   for col in cols])
    for p in (a, b):
        assert alphabet.poly(alphabet.pack(p)) == p
    assert alphabet.poly(add_product({}, alphabet.pack(a), alphabet.pack(b))) == a * b
    if atoms:
        at = data.draw(st.integers(min_value=0, max_value=len(atoms)))
        twice = atoms[:at] + [data.draw(st.sampled_from(atoms))] + atoms[at:]
        with pytest.raises(ValueError, match="appears more than once"):
            Alphabet(twice, reach)


# -- ordering and serialization -------------------------------------------

def test_var_order():
    assert Q < X < Y < Var.site(1, 1, 1) < Var.aux(0)
    assert Var.site(1, 1, 2) < Var.site(1, 2, 1) < Var.site(2, 1, 1)


def test_var_value_semantics():
    # Vars built by different routes are one dict key; the hash is that of
    # (kind, index), which fixes the iteration order of sets of Vars
    built = [Var.layer(3), parse_var_name("z3"), Var(Z.kind, (3,))]
    table = {Z: "z3"}
    for v in built:
        assert hash(v) == hash((v.kind, v.index))
        assert table[v] == "z3"
    assert Var(1, (3,)) != (1, (3,))
    assert not hasattr(Z, "__dict__")
    for name in ("kind", "index", "other"):
        with pytest.raises(AttributeError):
            setattr(Z, name, 0)
    with pytest.raises(AttributeError):
        del Z.kind
    assert pickle.loads(pickle.dumps(Z)) == Z == copy.copy(Z)


def test_canonical_term_order_graded_lex():
    x, y = lp_var(X), lp_var(Y)
    p = 1 + x + y + x * x + x * y
    monos = [m for m, _ in p.sorted_terms()]
    names = ["*".join("%s^%d" % (v.name, e) for v, e in m) for m in monos]
    assert names == ["z1^2", "z1^1*z2^1", "z1^1", "z2^1", ""]


def test_obj_shape_has_int_coefficients():
    p = 3 * lp_var(X, 2) - lp_var(Y) + 7
    assert p.to_obj() == [{"monomial": {"z1": 2}, "coeff": 3},
                          {"monomial": {"z2": 1}, "coeff": -1},
                          {"monomial": {}, "coeff": 7}]
    # the terms are a plain dict, so a polynomial has no hash to go stale
    with pytest.raises(TypeError):
        hash(p)


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


def test_results_never_share_terms_with_an_operand():
    # p * 1, 1 * p, p.substitute({}) and p.derivative(X, 0) equal p, but are
    # new polynomials, so writing into a result's terms leaves p as it was
    p = 3 * lp_var(X, 2) - lp_var(Y, -1)
    for q in (p * 1, 1 * p, p.substitute({}), p.derivative(X, 0)):
        assert q == p and q is not p and q.terms is not p.terms
        q.terms[()] = 5
        assert p == 3 * lp_var(X, 2) - lp_var(Y, -1)


def test_pow_negative_unit_term():
    p = LaurentPoly.monomial({X: 2}, -1)
    assert p ** -3 == LaurentPoly.monomial({X: -6}, -1)
    with pytest.raises(NegativeExponentSubstitution):
        (lp_var(X) + 1) ** -1
