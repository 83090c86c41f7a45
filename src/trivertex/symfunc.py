"""Symmetric-function oracles, independent of the lattice machinery.

Schur polynomials come in three routes that are checked against each other:
the bialternant ratio of determinants, the dual Jacobi-Trudi determinant in
elementary symmetric polynomials, and a block sum over redistributions of
grouped variables with difference-product denominators.  Also here: plain and
"loop" elementary symmetric polynomials (the colored variant in which the
i-th selected variable carries its own alphabet), the all-ones
specialization, and the closed form for the first-variable derivative of a
Schur polynomial.

Everything returns exact LaurentPoly values; determinants use a
column-subset DP so the cost is rows * 2^rows polynomial operations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Sequence, Tuple

from .poly import InexactDivision, LaurentPoly, Var, exact_divide


class NonPolynomialResult(Exception):
    """A sum that should have cancelled to a polynomial did not."""


# -- partitions ------------------------------------------------------------

def validate_partition(parts: Sequence[int]) -> Tuple[int, ...]:
    """Check weakly decreasing non-negative integers; returns a tuple with
    trailing zeros intact (length matters for the main correspondence)."""
    parts = tuple(int(p) for p in parts)
    for p in parts:
        if p < 0:
            raise ValueError("negative part %d" % p)
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts not weakly decreasing: %r" % (parts,))
    return parts


def conjugate(parts: Sequence[int]) -> Tuple[int, ...]:
    """Conjugate partition (column lengths of the Young diagram)."""
    parts = validate_partition(parts)
    nonzero = [p for p in parts if p > 0]
    if not nonzero:
        return ()
    return tuple(sum(1 for p in nonzero if p >= c) for c in range(1, nonzero[0] + 1))


# -- elementary symmetric polynomials -------------------------------------

def elementary(r: int, zvars: Sequence[Var]) -> LaurentPoly:
    """e_r over the given variables: 1 for r=0, 0 for r<0 or r>#vars."""
    if r < 0 or r > len(zvars):
        return LaurentPoly.zero()
    if r == 0:
        return LaurentPoly.one()
    out = LaurentPoly.zero()
    for combo in combinations(zvars, r):
        out = out + LaurentPoly.monomial({v: 1 for v in combo})
    return out


# -- determinants ----------------------------------------------------------

def det_poly(rows: List[List[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square matrix of polynomials.

    Laplace expansion along rows with memoization on the remaining column
    set; the row index is implied by the popcount so the memo key is just the
    bitmask.
    """
    size = len(rows)
    if size == 0:
        return LaurentPoly.one()
    memo: Dict[int, LaurentPoly] = {}

    def minor(r: int, mask: int) -> LaurentPoly:
        if r == size:
            return LaurentPoly.one()
        cached = memo.get(mask)
        if cached is not None:
            return cached
        acc = LaurentPoly.zero()
        sign = 1
        for c in range(size):
            if mask & (1 << c):
                entry = rows[r][c]
                if not entry.is_zero():
                    contrib = entry * minor(r + 1, mask ^ (1 << c))
                    acc = acc + (contrib if sign > 0 else -contrib)
                sign = -sign
        memo[mask] = acc
        return acc

    return minor(0, (1 << size) - 1)


# -- Schur polynomials: three routes --------------------------------------

def schur_jacobi_trudi(parts: Sequence[int], zvars: Sequence[Var]) -> LaurentPoly:
    """Schur polynomial as the determinant det(e_{mu_i - i + j}) over the
    conjugate partition mu; division-free."""
    mu = conjugate(parts)
    size = len(mu)
    rows = [[elementary(mu[i] - (i + 1) + (j + 1), zvars) for j in range(size)]
            for i in range(size)]
    return det_poly(rows)


def schur_bialternant(parts: Sequence[int], zvars: Sequence[Var]) -> LaurentPoly:
    """Schur polynomial as det(z_i^(lambda_j + n - j)) divided by the
    Vandermonde product, via exact division."""
    parts = validate_partition(parts)
    n = len(zvars)
    if len([p for p in parts if p > 0]) > n:
        raise ValueError("partition longer than variable list")
    lam = tuple(parts) + (0,) * (n - len(parts))
    rows = [[LaurentPoly.var(zvars[i], lam[j] + n - (j + 1)) for j in range(n)]
            for i in range(n)]
    return exact_divide(det_poly(rows), pair_product(zvars))


def _ordered_set_partitions(items: Sequence, sizes: Sequence[int]):
    """All ways to split `items` into ordered blocks of the given sizes;
    blocks are index-sets so nothing is double counted."""
    if not sizes:
        yield []
        return
    first, rest_sizes = sizes[0], sizes[1:]
    idx = range(len(items))
    for chosen in combinations(idx, first):
        chosen_set = set(chosen)
        block = [items[i] for i in chosen]
        rest = [items[i] for i in idx if i not in chosen_set]
        for tail in _ordered_set_partitions(rest, rest_sizes):
            yield [block] + tail


def pair_product(vs: Sequence[Var]) -> LaurentPoly:
    """Product of (v_a - v_b) over all pairs a < b in the given order."""
    out = LaurentPoly.one()
    for a, b in combinations(vs, 2):
        out = out * (LaurentPoly.var(a) - LaurentPoly.var(b))
    return out


def redistributions(all_vars: Sequence[Var], sizes: Sequence[int]):
    """Yield (blocks, multiplier) for every split of `all_vars` into ordered
    blocks of the given sizes.

    `multiplier` is pair_product(all_vars) divided by the cross-block product
    prod_{j<k} prod_{x in w_j, y in w_k} (x - y), carried out exactly: it
    equals +-1 times the product of (va - vb) over co-blocked pairs, the sign
    flipping once for every canonical pair (a before b) split with a in the
    later block (the denominator then holds (b - a) instead of (a - b)).
    """
    for w in _ordered_set_partitions(list(all_vars), list(sizes)):
        block_of = {}
        for k, blk in enumerate(w):
            for v in blk:
                block_of[v] = k
        sign = 1
        multiplier = LaurentPoly.one()
        for va, vb in combinations(all_vars, 2):
            ka, kb = block_of[va], block_of[vb]
            if ka == kb:
                multiplier = multiplier * (LaurentPoly.var(va) - LaurentPoly.var(vb))
            elif ka > kb:
                sign = -sign
        if sign < 0:
            multiplier = -multiplier
        yield [tuple(blk) for blk in w], multiplier


def schur_pragacz(blocks: Sequence[Tuple[int, int]],
                  var_blocks: Sequence[Sequence[Var]]) -> LaurentPoly:
    """Schur polynomial of (p_1^{m_1}, ..., p_r^{m_r}) as a sum over
    redistributions of the variables into blocks of the same sizes.

    Each redistribution w contributes prod_k (prod_{v in w_k} v^{p_k + r - k})
    divided by prod_{j<k} prod_{x in w_j, y in w_k} (x - y); the sum is
    asserted to be a polynomial (NonPolynomialResult otherwise).
    """
    if len(blocks) != len(var_blocks):
        raise ValueError("blocks and variable groups must align")
    sizes = []
    for (part, mult), group in zip(blocks, var_blocks):
        if mult != len(group):
            raise ValueError("block multiplicity %d != group size %d" % (mult, len(group)))
        sizes.append(mult)
    values = [part for part, _ in blocks]
    if any(values[i] < values[i + 1] for i in range(len(values) - 1)):
        raise ValueError("block part values must be weakly decreasing")
    all_vars: List[Var] = [v for group in var_blocks for v in group]
    r = len(blocks)

    denom_full = pair_product(all_vars)
    total = LaurentPoly.zero()
    # every variable in block k carries the part value plus the number of
    # variables sitting in later blocks (reduces to p_k + r - k when all
    # multiplicities are 1)
    later = [sum(sizes[k + 1:]) for k in range(r)]
    for w, multiplier in redistributions(all_vars, sizes):
        exps = {}
        for k, blk in enumerate(w):
            p = values[k] + later[k]
            for v in blk:
                exps[v] = p
        term = multiplier * LaurentPoly.monomial({v: e for v, e in exps.items() if e != 0}, 1)
        total = total + term
    try:
        return exact_divide(total, denom_full)
    except InexactDivision as exc:
        raise NonPolynomialResult(str(exc))


def schur_at_one(parts: Sequence[int], n: int) -> int:
    """s_lambda with all n variables set to 1, by the hook-content style
    product prod_{k<l} (lambda_k - lambda_l + l - k)/(l - k); asserted
    integral."""
    parts = validate_partition(parts)
    if n < len([p for p in parts if p > 0]):
        raise ValueError("need at least length(lambda) variables")
    lam = tuple(parts) + (0,) * (n - len(parts))
    val = Fraction(1)
    for k in range(n):
        for l in range(k + 1, n):
            val *= Fraction(lam[k] - lam[l] + l - k, l - k)
    if val.denominator != 1:
        raise AssertionError("specialization %s not integral" % val)
    return int(val)


# -- derivative closed form ------------------------------------------------

def schur_derivative_oracle(parts: Sequence[int], m: int) -> LaurentPoly:
    """Closed form for d/dz_1 of prod_k z_k^{m-k} * s_lambda(z_1..z_m).

    The result is
    (m-1) z_1^{m-2} prod_{k>=2} z_k^{m-k} s_lambda
    + prod_k z_k^{m-k} * sum_l det(JT matrix with column l differentiated),
    where differentiating column l replaces e_s(all) by e_{s-1}(all but z_1).
    """
    parts = validate_partition(parts)
    zvars = [Var.layer(t) for t in range(1, m + 1)]
    s_lam = schur_jacobi_trudi(parts, zvars)
    out = LaurentPoly.zero()
    if m >= 2:
        exps = {zvars[0]: m - 2}
        for k in range(2, m + 1):
            exps[zvars[k - 1]] = m - k
        pref = LaurentPoly.monomial({v: e for v, e in exps.items() if e != 0})
        out = out + (m - 1) * pref * s_lam
    mu = conjugate(parts)
    size = len(mu)
    pref_full = LaurentPoly.monomial(
        {zvars[k]: m - (k + 1) for k in range(m) if m - (k + 1) != 0})
    reduced_vars = zvars[1:]
    deriv_sum = LaurentPoly.zero()
    for lcol in range(size):
        rows = []
        for i in range(size):
            row = []
            for j in range(size):
                s = mu[i] - (i + 1) + (j + 1)
                if j == lcol:
                    row.append(elementary(s - 1, reduced_vars))
                else:
                    row.append(elementary(s, zvars))
            rows.append(row)
        deriv_sum = deriv_sum + det_poly(rows)
    return out + pref_full * deriv_sum


# -- loop elementary symmetric functions ----------------------------------

VarTable = Callable[[int, int], Var]


def loop_elementary_general(sizes: Sequence[int], var_of: VarTable, n_cols: int) -> LaurentPoly:
    """Colored elementary symmetric sum with block-repeated superscripts.

    Selects 1 <= k_1 < ... < k_V <= n_cols with V = sum(sizes); the s-th
    selected position contributes var_of(i, k_s) where i is the block (row)
    that slot s falls in.  All sizes 1 recovers the plain loop elementary
    function; V = n_cols gives a single full product.
    """
    total = sum(sizes)
    if total > n_cols:
        raise ValueError("cannot select %d positions out of %d" % (total, n_cols))
    row_of_slot = []
    for i, sz in enumerate(sizes, start=1):
        row_of_slot.extend([i] * sz)
    out = LaurentPoly.zero()
    for chosen in combinations(range(1, n_cols + 1), total):
        term = LaurentPoly.one()
        for slot, pos in enumerate(chosen):
            term = term * LaurentPoly.var(var_of(row_of_slot[slot], pos))
        out = out + term
    return out


def loop_elementary(k_rows: int, var_of: VarTable, n_cols: int) -> LaurentPoly:
    """Sum over 1 <= k_1 < ... < k_r <= n_cols of prod_i z_{k_i}^{(i)},
    the i-th selected position drawing from alphabet i."""
    return loop_elementary_general([1] * k_rows, var_of, n_cols)
