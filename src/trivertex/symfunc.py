"""Symmetric-function oracles, independent of the lattice machinery.

Schur polynomials come in three routes that are checked against each other:
the bialternant ratio of determinants, the dual Jacobi-Trudi determinant in
elementary symmetric polynomials, and a block sum over redistributions of
grouped variables with difference-product denominators.  Also here: plain and
"loop" elementary symmetric polynomials (the colored variant in which the
i-th selected variable carries its own alphabet), the all-ones
specialization, and the closed form for the first-variable derivative of a
Schur polynomial.

Inside, each function computes on packed polynomials over one
`poly.Alphabet`, whose reach bounds every exponent reached, multiplies them
with `poly.add_product` and builds one exact LaurentPoly, at its return.
Determinants use a column-subset memo: rows * 2^rows products of packed
dicts.  The bialternant and redistribution routes divide their packed
numerators by the Vandermonde product one linear factor at a time
(`_divide_pairs`).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Sequence, Tuple

from .poly import Alphabet, InexactDivision, LaurentPoly, Packed, Var, add_product


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

def _elementary(r: int, units: Sequence[int]) -> Packed:
    """e_r over unit keys: {0: 1} for r = 0, empty for r < 0 or r > #units."""
    return {sum(combo): 1 for combo in combinations(units, r)} if r >= 0 else {}


def elementary(r: int, zvars: Sequence[Var]) -> LaurentPoly:
    """e_r over the given variables: 1 for r=0, 0 for r<0 or r>#vars."""
    alphabet = Alphabet(zvars, 1)
    return alphabet.poly(_elementary(r, alphabet.units))


# -- determinants ----------------------------------------------------------

def _det(rows: List[List[Packed]]) -> Packed:
    """Determinant of a square matrix of packed polynomials: Laplace
    expansion along rows, memoized on the remaining column set (the row index
    is implied by the popcount; the empty set closes an expansion with 1)."""
    size = len(rows)
    memo: Dict[int, Packed] = {0: {0: 1}}

    def minor(r: int, mask: int) -> Packed:
        cached = memo.get(mask)
        if cached is None:
            acc: Packed = {}
            sign = 1
            for c in range(size):
                if mask >> c & 1:
                    if rows[r][c]:
                        add_product(acc, rows[r][c], minor(r + 1, mask ^ 1 << c), sign)
                    sign = -sign
            cached = memo[mask] = {key: v for key, v in acc.items() if v}
        return cached

    return minor(0, (1 << size) - 1)


def _divide_pairs(packed: Packed, alphabet: Alphabet) -> Packed:
    """packed / prod_{a<b} (x_a - x_b) over the alphabet's atoms x_a, one
    factor at a time by synthetic division in x_a: from the top x_a level
    down, c x^k puts c x^k / x_a into the quotient and carries c x^k x_b / x_a
    to the level below, and the lowest level must cancel (InexactDivision
    otherwise).  A carry keeps e_a + e_b fixed, and the reach should cover it."""
    units, read = alphabet.units, alphabet.read
    for a, b in combinations(range(len(units)), 2):
        down = units[b] - units[a]
        levels: Dict[int, Packed] = {}
        for key, c in packed.items():
            if c:
                levels.setdefault(read(key, a), {})[key] = c
        if not levels:
            return {}
        quotient: Packed = {}
        low = min(levels)
        for level in range(max(levels), low, -1):
            below = levels.setdefault(level - 1, {})
            get = below.get
            for key, c in levels.pop(level).items():
                if c:
                    quotient[key - units[a]] = c
                    key += down
                    below[key] = get(key, 0) + c
        if any(levels[low].values()):
            raise InexactDivision("not divisible by a variable difference")
        packed = quotient
    return packed


def _alternant(exps: Sequence[int], units: Sequence[int]) -> Packed:
    """det(x_a ** e_j) over unit keys x_a and exponents e_j: the pair
    product prod_{a<b} (x_a - x_b) for exps n-1, ..., 1, 0."""
    return _det([[{u * e: 1} for e in exps] for u in units])


# -- Schur polynomials: three routes --------------------------------------

def _jacobi_trudi_rows(mu: Sequence[int], units: Sequence[int]) -> List[List[Packed]]:
    """The matrix (e_{mu_i - i + j}) over the conjugate partition mu."""
    return [[_elementary(mu[i] - i + j, units) for j in range(len(mu))] for i in range(len(mu))]


def schur_jacobi_trudi(parts: Sequence[int], zvars: Sequence[Var]) -> LaurentPoly:
    """Schur polynomial as the determinant det(e_{mu_i - i + j}) over the
    conjugate partition mu; division-free."""
    mu = conjugate(parts)
    # every entry has exponents at most 1, and a term multiplies len(mu)
    alphabet = Alphabet(zvars, len(mu))
    return alphabet.poly(_det(_jacobi_trudi_rows(mu, alphabet.units)))


def schur_bialternant(parts: Sequence[int], zvars: Sequence[Var]) -> LaurentPoly:
    """Schur polynomial as det(z_i^(lambda_j + n - j)) divided by the
    Vandermonde product, one linear factor at a time."""
    parts = validate_partition(parts)
    n = len(zvars)
    if len([p for p in parts if p > 0]) > n:
        raise ValueError("partition longer than variable list")
    lam = tuple(parts) + (0,) * (n - len(parts))
    # variable i sits in row i only, with exponent at most lam_1 + n - 1,
    # doubled for the division's carries
    alphabet = Alphabet(zvars, 2 * (lam[0] + n - 1) if n else 0)
    numerator = _alternant([lam[j] + n - (j + 1) for j in range(n)], alphabet.units)
    return alphabet.poly(_divide_pairs(numerator, alphabet))


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
    alphabet = Alphabet(vs, max(len(vs) - 1, 0))
    return alphabet.poly(_alternant(range(len(vs) - 1, -1, -1), alphabet.units))


def _redistributions(units: Sequence[int], sizes: Sequence[int]):
    """(index blocks, packed multiplier) for every split of range(#units)
    into ordered blocks of the given sizes; see `redistributions`."""
    n = len(units)
    for w in _ordered_set_partitions(range(n), list(sizes)):
        block_of = {i: k for k, blk in enumerate(w) for i in blk}
        crossed = sum(block_of[a] > block_of[b] for a, b in combinations(range(n), 2))
        multiplier = {0: -1 if crossed & 1 else 1}
        for blk in w:
            # a block lists its indices in increasing order
            multiplier = add_product({}, multiplier, _alternant(
                range(len(blk) - 1, -1, -1), [units[i] for i in blk]))
        yield w, multiplier


def redistributions(all_vars: Sequence[Var], sizes: Sequence[int]):
    """Yield (blocks, multiplier) for every split of `all_vars` into ordered
    blocks of the given sizes.

    `multiplier` is pair_product(all_vars) divided by the cross-block product
    prod_{j<k} prod_{x in w_j, y in w_k} (x - y), carried out exactly: it
    equals +-1 times the product of (va - vb) over co-blocked pairs, the sign
    flipping once for every canonical pair (a before b) split with a in the
    later block (the denominator then holds (b - a) instead of (a - b)).
    """
    # an exponent stays below its block's size
    alphabet = Alphabet(all_vars, max(sizes, default=1) - 1)
    for w, multiplier in _redistributions(alphabet.units, sizes):
        yield [tuple(all_vars[i] for i in blk) for blk in w], alphabet.poly(multiplier)


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

    # every variable in block k carries the part value plus the number of
    # variables sitting in later blocks (reduces to p_k + r - k when all
    # multiplicities are 1), and a multiplier exponent below its block size;
    # doubled for the division's carries
    later = [sum(sizes[k + 1:]) for k in range(len(blocks))]
    reach = max(map(abs, values), default=0) + len(all_vars) - 1
    alphabet = Alphabet(all_vars, 2 * reach)
    units = alphabet.units
    total: Packed = {}
    for w, multiplier in _redistributions(units, sizes):
        shift = sum(units[i] * (values[k] + later[k]) for k, blk in enumerate(w) for i in blk)
        add_product(total, multiplier, {shift: 1})
    try:
        return alphabet.poly(_divide_pairs(total, alphabet))
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
    num = den = 1
    for k in range(n):
        for l in range(k + 1, n):
            num *= lam[k] - lam[l] + l - k
            den *= l - k
    val, rem = divmod(num, den)
    if rem:
        raise AssertionError("specialization %d/%d not integral" % (num, den))
    return val


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
    mu = conjugate(parts)
    size = len(mu)
    # s_lambda sits under z_1^(m-2), and the determinant of column l, of
    # exponent at most size - 1 in z_1, under z_1^(m-1) z_2^(m-2) ...
    alphabet = Alphabet(zvars, max(size + m - 2, 0))
    units = alphabet.units
    rows = _jacobi_trudi_rows(mu, units)
    stair = sum(u * (m - 1 - k) for k, u in enumerate(units))
    out: Packed = {}
    if m >= 2:
        add_product(out, {stair - units[0]: m - 1}, _det(rows))
    for lcol in range(size):
        column = [_elementary(mu[i] - i + lcol - 1, units[1:]) for i in range(size)]
        differentiated = [row[:lcol] + [column[i]] + row[lcol + 1:] for i, row in enumerate(rows)]
        add_product(out, {stair: 1}, _det(differentiated))
    return alphabet.poly(out)


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
    row_of_slot = [i for i, sz in enumerate(sizes, start=1) for _ in range(sz)]
    atoms = {(i, k): var_of(i, k) for i in set(row_of_slot) for k in range(1, n_cols + 1)}
    # var_of may send several positions to one variable, at most `total` times
    alphabet = Alphabet(dict.fromkeys(atoms.values()), total)
    unit_of = dict(zip(alphabet.atoms, alphabet.units))
    key_of = {ik: unit_of[v] for ik, v in atoms.items()}
    out: Packed = {}
    for chosen in combinations(range(1, n_cols + 1), total):
        key = sum(key_of[ik] for ik in zip(row_of_slot, chosen))
        out[key] = out.get(key, 0) + 1
    return alphabet.poly(out)


def loop_elementary(k_rows: int, var_of: VarTable, n_cols: int) -> LaurentPoly:
    """Sum over 1 <= k_1 < ... < k_r <= n_cols of prod_i z_{k_i}^{(i)},
    the i-th selected position drawing from alphabet i."""
    return loop_elementary_general([1] * k_rows, var_of, n_cols)
