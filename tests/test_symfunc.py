"""Symmetric-function oracles: three Schur routes, specializations, loops."""

import random
from itertools import combinations, groupby, permutations

import pytest
from hypothesis import given, settings, strategies as st

from trivertex import symfunc
from trivertex.poly import Alphabet, InexactDivision, LaurentPoly, Var
from trivertex.symfunc import (
    NonPolynomialResult,
    conjugate,
    elementary,
    loop_elementary,
    loop_elementary_general,
    pair_product,
    schur_at_one,
    schur_bialternant,
    schur_derivative_oracle,
    schur_jacobi_trudi,
    schur_pragacz,
    validate_partition,
)
from test_poly import exact_divide

Z = [Var.layer(t) for t in range(1, 8)]


def zp(i, e=1):
    return LaurentPoly.var(Z[i - 1], e)


def test_partition_validation():
    assert validate_partition((3, 1, 1, 0)) == (3, 1, 1, 0)
    with pytest.raises(ValueError):
        validate_partition((1, 2))
    with pytest.raises(ValueError):
        validate_partition((2, -1))


def test_conjugate_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    rng = random.Random(7)
    for _ in range(25):
        lam = sorted((rng.randrange(6) for _ in range(rng.randrange(5))), reverse=True)
        assert conjugate(conjugate(lam)) == tuple(p for p in lam if p > 0)


def test_elementary_values():
    vars3 = Z[:3]
    assert elementary(0, vars3).is_one()
    assert elementary(-1, vars3).is_zero()
    assert elementary(4, vars3).is_zero()
    e2 = zp(1) * zp(2) + zp(1) * zp(3) + zp(2) * zp(3)
    assert elementary(2, vars3) == e2


def test_elementary_derivative_drops_variable():
    # d/dz_k e_l = e_{l-1} over the other variables
    vars4 = Z[:4]
    for l in range(1, 5):
        for k in range(4):
            reduced = vars4[:k] + vars4[k + 1:]
            assert elementary(l, vars4).derivative(vars4[k]) == elementary(l - 1, reduced)


def test_det_poly_small():
    one = LaurentPoly.one()
    assert det_poly([]) == one
    assert det_poly([[zp(1)]]) == zp(1)
    m = [[zp(1), zp(2)], [zp(3), zp(4)]]
    assert det_poly(m) == zp(1) * zp(4) - zp(2) * zp(3)


def test_bialternant_examples():
    assert schur_bialternant((1,), Z[:2]) == zp(1) + zp(2)
    expected = (zp(1, 2) * zp(2, 2) * zp(3) + zp(1, 2) * zp(2) * zp(3, 2)
                + zp(1) * zp(2, 2) * zp(3, 2))
    assert schur_bialternant((2, 2, 1), Z[:3]) == expected
    assert schur_bialternant((), Z[:3]).is_one()


def test_jacobi_trudi_examples():
    assert schur_jacobi_trudi((2, 1), Z[:2]) == zp(1) * zp(2) * (zp(1) + zp(2))
    for k in range(1, 4):
        assert schur_jacobi_trudi((1,) * k, Z[:4]) == elementary(k, Z[:4])


def _random_partition(rng, max_weight=8):
    parts = []
    total = 0
    while True:
        p = rng.randrange(0, 5)
        if p == 0 or total + p > max_weight:
            break
        parts.append(p)
        total += p
    return tuple(sorted(parts, reverse=True))


def test_two_route_agreement_random():
    rng = random.Random(20260823)
    for _ in range(12):
        nv = rng.randrange(1, 5)
        lam = _random_partition(rng)
        lam = tuple(p for p in lam if p > 0)[:nv]
        assert schur_jacobi_trudi(lam, Z[:nv]) == schur_bialternant(lam, Z[:nv])


def test_pragacz_examples():
    # one block of two variables, part 1 -> s_(1,1) = e_2
    assert schur_pragacz([(1, 2)], [Z[:2]]) == elementary(2, Z[:2])
    # two blocks -> s_(2,2,1)
    got = schur_pragacz([(2, 2), (1, 1)], [Z[:2], [Z[2]]])
    assert got == schur_bialternant((2, 2, 1), Z[:3])
    # single block: no denominators, plain power product
    assert schur_pragacz([(3, 2)], [Z[:2]]) == LaurentPoly.monomial({Z[0]: 3, Z[1]: 3})
    # a non-final block of size 2: exponents count later variables, not blocks
    got = schur_pragacz([(2, 1), (1, 2), (0, 1)], [Z[:1], Z[1:3], Z[3:4]])
    assert got == schur_bialternant((2, 1, 1), Z[:4])


def test_pragacz_validation():
    with pytest.raises(ValueError):
        schur_pragacz([(1, 2)], [Z[:1]])
    with pytest.raises(ValueError):
        schur_pragacz([(1, 1), (2, 1)], [[Z[0]], [Z[1]]])


def test_repeated_variables_are_refused():
    # a repeated variable's fields would read back as one exponent, the last
    # overwriting the first: s_(1)(z1, z1) came out as z1, not 2 z1
    twice = [Z[0], Z[0]]
    for call in (lambda: schur_jacobi_trudi((1,), twice), lambda: schur_bialternant((1,), twice),
                 lambda: schur_pragacz([(1, 2)], [twice]), lambda: elementary(1, twice),
                 lambda: pair_product(twice)):
        with pytest.raises(ValueError, match=r"Var\(z1\) appears more than once"):
            call()
    # det_poly and loop_elementary_general de-duplicate their alphabets
    assert det_poly([[zp(1), zp(1)], [zp(1), zp(2)]]) == zp(1) * zp(2) - zp(1, 2)
    assert loop_elementary_general([1, 1], lambda i, k: Z[0], 3) == 3 * zp(1, 2)


def test_pragacz_rejects_a_perturbed_total(monkeypatch):
    # the first redistribution counted twice: the sum is not a polynomial
    redistributions = symfunc._redistributions

    def perturbed(units, sizes):
        yield next(redistributions(units, sizes))
        yield from redistributions(units, sizes)

    blocks, groups = [(2, 2), (1, 1)], [Z[:2], [Z[2]]]
    assert schur_pragacz(blocks, groups) == schur_bialternant((2, 2, 1), Z[:3])
    monkeypatch.setattr(symfunc, "_redistributions", perturbed)
    with pytest.raises(NonPolynomialResult):
        schur_pragacz(blocks, groups)


def test_divide_pairs_rejects_a_perturbed_alternant():
    # s_(3,1) in three variables is the alternant of exponents 5, 2, 0 over
    # the Vandermonde product, packed at twice the exponent reach 5
    alphabet = Alphabet(Z[:3], 10)
    units = alphabet.units
    alternant = symfunc._alternant((5, 2, 0), units)
    assert alphabet.poly(symfunc._divide_pairs(alternant, alphabet)) == schur_bialternant(
        (3, 1), Z[:3])
    # x_1^5 x_2^5 carries down to x_2^10, past what a field at reach 5 holds
    # (-8..7); a lone constant or x_3 leaves a remainder at once
    for extra in ({5 * units[0] + 5 * units[1]: 1}, {0: 7}, {units[2]: -1}):
        perturbed = dict(alternant)
        for key, c in extra.items():
            perturbed[key] = perturbed.get(key, 0) + c
        with pytest.raises(InexactDivision):
            symfunc._divide_pairs(perturbed, alphabet)
        with pytest.raises(InexactDivision):
            exact_divide(alphabet.poly(perturbed), pair_product(Z[:3]))


def test_routes_pack_numerators_wide_enough_for_carries(monkeypatch):
    # dividing by x_a - x_b carries e_b up to e_a + e_b: every numerator's
    # largest pair sum must stay within the reach of the fields it is packed in
    divide_pairs = symfunc._divide_pairs
    calls = []

    def checked(packed, alphabet):
        calls.append(max(sum(sorted(alphabet.unpack(key))[-2:]) for key in packed)
                     <= alphabet.reach)
        return divide_pairs(packed, alphabet)

    monkeypatch.setattr(symfunc, "_divide_pairs", checked)
    for parts in ((5,), (7, 2), (3, 3, 1)):
        schur_bialternant(parts, Z[:3])
        schur_pragacz([(parts[0], 1), (0, 2)], [Z[:1], Z[1:3]])
    assert calls == [True] * 6


def test_schur_at_one():
    assert schur_at_one((1, 0), 2) == 2
    assert schur_at_one((0, 0, 0), 3) == 1
    assert schur_at_one((2, 2, 1), 3) == 3
    rng = random.Random(5)
    for _ in range(15):
        nv = rng.randrange(1, 5)
        lam = tuple(p for p in _random_partition(rng) if p > 0)[:nv]
        assert schur_at_one(lam, nv) == schur_jacobi_trudi(lam, Z[:nv]).at_one()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_schur_symmetric_and_stable(nv, data):
    lam = data.draw(
        st.lists(st.integers(min_value=1, max_value=4), max_size=nv).map(
            lambda xs: tuple(sorted(xs, reverse=True))))
    s = schur_jacobi_trudi(lam, Z[:nv])
    # invariance under an adjacent transposition
    if nv >= 2:
        i = data.draw(st.integers(min_value=0, max_value=nv - 2))
        swapped = s.substitute({Z[i]: LaurentPoly.var(Z[i + 1]), Z[i + 1]: LaurentPoly.var(Z[i])})
        assert swapped == s
    # appending a zero variable changes nothing
    extended = schur_jacobi_trudi(lam, Z[:nv + 1]).substitute({Z[nv]: 0})
    assert extended == s


def test_derivative_oracle_m2():
    # d/dz1 (z1 * s_(1,0)) = d/dz1 (z1^2 + z1 z2) = 2 z1 + z2
    got = schur_derivative_oracle((1, 0), 2)
    assert got == 2 * zp(1) + zp(2)


def test_derivative_oracle_matches_formal_derivative():
    rng = random.Random(99)
    for _ in range(8):
        m = rng.randrange(1, 5)
        lam = tuple(p for p in _random_partition(rng, 6) if p > 0)[:m]
        lam = lam + (0,) * (m - len(lam))
        closed = LaurentPoly.monomial({Z[k]: m - k - 1 for k in range(m) if m - k - 1})
        closed = closed * schur_jacobi_trudi(lam, Z[:m])
        assert schur_derivative_oracle(lam, m) == closed.derivative(Z[0])


def test_derivative_oracle_elementary_case():
    # for lambda = (1^l, 0^(n-l)) the closed form collapses to
    # (n-1) z1^(n-2) prod_{k>=2} z_k^(n-k) e_l + prod z_k^(n-k) e_{l-1}(z2..zn)
    n = 4
    for l in (1, 2, 3):
        lam = (1,) * l + (0,) * (n - l)
        direct = schur_derivative_oracle(lam, n)
        pref1 = LaurentPoly.monomial({Z[0]: n - 2}) * LaurentPoly.monomial(
            {Z[k]: n - k - 1 for k in range(1, n) if n - k - 1})
        pref2 = LaurentPoly.monomial({Z[k]: n - k - 1 for k in range(n) if n - k - 1})
        expected = (n - 1) * pref1 * elementary(l, Z[:n]) + pref2 * elementary(l - 1, Z[1:n])
        assert direct == expected


def site(i, j):
    return Var.site(j, i, 1)


def test_loop_elementary_expansion():
    got = loop_elementary(2, site, 3)
    expected = (LaurentPoly.monomial({site(1, 1): 1, site(2, 2): 1})
                + LaurentPoly.monomial({site(1, 1): 1, site(2, 3): 1})
                + LaurentPoly.monomial({site(1, 2): 1, site(2, 3): 1}))
    assert got == expected


def test_loop_elementary_collapse_to_elementary():
    def flat(i, j):
        return Z[j - 1]

    for r in range(0, 4):
        assert loop_elementary(r, flat, 4) == elementary(r, Z[:4])


def test_loop_elementary_full_selection():
    got = loop_elementary(3, site, 3)
    assert got == LaurentPoly.monomial({site(1, 1): 1, site(2, 2): 1, site(3, 3): 1})


def test_loop_elementary_general():
    # sizes (2,1), 4 positions: 4 terms, slots 1,2 draw row 1, slot 3 row 2
    got = loop_elementary_general([2, 1], site, 4)
    assert len(got.terms) == 4
    expected = LaurentPoly.zero()
    from itertools import combinations
    for k1, k2, k3 in combinations(range(1, 5), 3):
        expected = expected + LaurentPoly.monomial(
            {site(1, k1): 1, site(1, k2): 1, site(2, k3): 1})
    assert got == expected
    # all sizes 1 specializes to loop_elementary
    assert loop_elementary_general([1, 1], site, 4) == loop_elementary(2, site, 4)
    with pytest.raises(ValueError):
        loop_elementary_general([3, 2], site, 4)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=5))
def test_loop_elementary_pascal_recursion(k, n):
    # E_k(n) = E_k(n-1) + z_n^(k) * E_{k-1}(n-1)
    if k > n:
        return
    lhs = loop_elementary(k, site, n)
    keep = loop_elementary(k, site, n - 1) if k <= n - 1 else LaurentPoly.zero()
    last = LaurentPoly.var(site(k, n))
    take = loop_elementary(k - 1, site, n - 1) if k - 1 <= n - 1 else LaurentPoly.zero()
    assert lhs == keep + last * take


# -- the LaurentPoly routes the packed oracles replaced, kept as references --

def det_poly(rows):
    """The packed determinant `symfunc._det` of a square matrix of
    polynomials, packed once over the entries' joint alphabet: a term
    multiplies `size` entries, so every exponent stays within size times the
    largest |exponent| of an entry.  A repeated variable is one atom."""
    monomials = [m for row in rows for p in row for m in p.terms]
    alphabet = Alphabet(dict.fromkeys(v for m in monomials for v, _ in m),
                        len(rows) * max((abs(e) for m in monomials for _, e in m), default=0))
    return alphabet.poly(symfunc._det([[alphabet.pack(p) for p in row] for row in rows]))


def ref_elementary(r, zvars):
    if r < 0:
        return LaurentPoly.zero()
    out = LaurentPoly.zero()
    for combo in combinations(zvars, r):
        out = out + LaurentPoly.monomial({v: 1 for v in combo})
    return out


def ref_det(rows):
    """Laplace expansion along rows, memoized on the remaining column set."""
    size = len(rows)
    memo = {}

    def minor(r, mask):
        if r == size:
            return LaurentPoly.one()
        if mask not in memo:
            acc = LaurentPoly.zero()
            sign = 1
            for c in range(size):
                if mask & (1 << c):
                    contrib = rows[r][c] * minor(r + 1, mask ^ (1 << c))
                    acc = acc + (contrib if sign > 0 else -contrib)
                    sign = -sign
            memo[mask] = acc
        return memo[mask]

    return minor(0, (1 << size) - 1)


def ref_pair_product(vs):
    out = LaurentPoly.one()
    for a, b in combinations(vs, 2):
        out = out * (LaurentPoly.var(a) - LaurentPoly.var(b))
    return out


def ref_pragacz(blocks, var_blocks):
    """The redistribution sum: a redistribution is an assignment of a block
    to each variable, with the block sizes kept."""
    values = [part for part, _ in blocks]
    sizes = [len(g) for g in var_blocks]
    all_vars = [v for g in var_blocks for v in g]
    later = [sum(sizes[k + 1:]) for k in range(len(sizes))]
    total = LaurentPoly.zero()
    for block_of in set(permutations([k for k, sz in enumerate(sizes) for _ in range(sz)])):
        term = LaurentPoly.monomial(
            {v: values[k] + later[k] for v, k in zip(all_vars, block_of)})
        for (va, ka), (vb, kb) in combinations(zip(all_vars, block_of), 2):
            if ka == kb:
                term = term * (LaurentPoly.var(va) - LaurentPoly.var(vb))
            elif ka > kb:
                term = -term
        total = total + term
    return exact_divide(total, ref_pair_product(all_vars))


# unsorted, and of every Var kind
MIXED = [Var.aux(2), Var.site(1, 2, 1), Var.q(), Var.layer(3), Var.layer(1),
         Var.site(2, 1, 1), Var.aux(1)]

laurent = st.lists(
    st.tuples(st.dictionaries(st.sampled_from(MIXED), st.integers(-3, 3), max_size=3),
              st.integers(-3, 3)),
    max_size=3).map(lambda terms: sum((LaurentPoly.monomial(m, c) for m, c in terms),
                                      LaurentPoly.zero()))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, 10), max_size=5), st.permutations(MIXED[:5]), st.data())
def test_packed_schur_routes_match_references(parts, alphabet, data):
    # at most 5 variables, weight at most 10
    lam = sorted(parts, reverse=True)
    while sum(lam) > 10:
        lam.pop(0)
    nv = data.draw(st.integers(max(1, len(lam)), 5))
    zvars = alphabet[:nv]
    mu = conjugate(lam)
    jt = ref_det([[ref_elementary(mu[i] - i + j, zvars) for j in range(len(mu))]
                  for i in range(len(mu))])
    assert schur_jacobi_trudi(lam, zvars) == jt
    full = lam + [0] * (nv - len(lam))
    numerator = ref_det([[LaurentPoly.var(v, full[j] + nv - 1 - j) for j in range(nv)]
                         for v in zvars])
    assert schur_bialternant(lam, zvars) == exact_divide(numerator, ref_pair_product(zvars))
    blocks = [(value, len(list(run))) for value, run in groupby(full)]
    groups = []
    for _, mult in blocks:
        groups.append(zvars[sum(len(g) for g in groups):][:mult])
    assert schur_pragacz(blocks, groups) == ref_pragacz(blocks, groups) == jt


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.permutations(MIXED), st.data())
def test_packed_det_and_pair_product_match_references(size, alphabet, data):
    rows = data.draw(st.lists(st.lists(laurent, min_size=size, max_size=size),
                              min_size=size, max_size=size))
    assert det_poly(rows) == ref_det(rows)
    # a 1 x 1 determinant reaches every exponent of its entry
    for p in (p for row in rows for p in row):
        assert det_poly([[p]]) == p
    vs = alphabet[:data.draw(st.integers(0, len(alphabet)))]
    assert pair_product(vs) == ref_pair_product(vs)


@settings(max_examples=60, deadline=None)
@given(st.permutations(MIXED[:5]), st.data())
def test_divide_pairs_matches_exact_divide(pool, data):
    # Q times the Vandermonde product divides back to Q, and one more term
    # leaves a remainder; at most 5 variables, coefficients -9..9
    vs = pool[:data.draw(st.integers(1, 5))]
    terms = data.draw(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * len(vs)),
                                         st.integers(-9, 9)), max_size=4))
    q = sum((LaurentPoly.monomial(dict(zip(vs, exps)), c) for exps, c in terms),
            LaurentPoly.zero())
    vandermonde = ref_pair_product(vs)
    numerator = q * vandermonde
    # a carry keeps e_a + e_b: pack at twice the largest |exponent|
    top = max((abs(e) for m in numerator.terms for _, e in m), default=0)
    alphabet = Alphabet(vs, 2 * top)
    assert alphabet.poly(symfunc._divide_pairs(alphabet.pack(numerator), alphabet)) == q
    assert exact_divide(numerator, vandermonde) == q
    if len(vs) > 1:
        exps = data.draw(st.tuples(*[st.integers(-top, top)] * len(vs)))
        c = data.draw(st.integers(-9, 9).filter(bool))
        perturbed = numerator + LaurentPoly.monomial(dict(zip(vs, exps)), c)
        with pytest.raises(InexactDivision):
            symfunc._divide_pairs(alphabet.pack(perturbed), alphabet)
        with pytest.raises(InexactDivision):
            exact_divide(perturbed, vandermonde)
