"""Identity battery: every expectation-value identity checked exactly
against the independent symmetric-function oracles.

All checks return a CheckReport; nothing is approximate, a report passes
only on exact Laurent-polynomial (or exact rational) equality.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import random
import time
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .fock import TensorKind, local_tensor
from .lattice import check_q0_relations, check_qosc_relations, q0_limit, tetrahedron_check
from .network import (
    CONVENTION,
    Convention,
    LayerPlan,
    _layer_plan,
    _sweep,
    _vev_counts,
    apply_stack,
    count_configurations,
    inhomogeneous_spec,
    resolve_convention,
    scalar_spec,
    strip_vev,
    vev,
)
from .poly import LaurentPoly, Var, packing
from .symfunc import (
    elementary,
    loop_elementary,
    loop_elementary_general,
    pair_product,
    redistributions,
    schur_at_one,
    schur_bialternant,
    schur_derivative_oracle,
    schur_jacobi_trudi,
    schur_pragacz,
)


class CheckReport:
    """The outcome of one check: its name and parameters, whether it passed,
    what it found (`detail`) and how long it took."""

    def __init__(self, name: str, params: dict, passed: bool,
                 detail: Optional[dict] = None, seconds: float = 0.0):
        self.name = name
        self.params = params
        self.passed = passed
        self.detail = {} if detail is None else detail
        self.seconds = seconds

    def _fields(self) -> tuple:
        return (self.name, self.params, self.passed, self.detail, self.seconds)

    def __eq__(self, other):
        if other.__class__ is CheckReport:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        return ("CheckReport(name=%r, params=%r, passed=%r, detail=%r, seconds=%r)"
                % self._fields())

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "passed": self.passed,
            "detail": self.detail,
            "seconds": round(self.seconds, 6),
        }


def reports_to_json(reports: Sequence[CheckReport]) -> str:
    return json.dumps([r.to_obj() for r in reports], indent=2, sort_keys=True)


def _report(name: str, params: dict, passed: bool, detail: Optional[dict],
            t0: float) -> CheckReport:
    return CheckReport(name, params, bool(passed), detail or {},
                       time.perf_counter() - t0)


def _mismatch(lhs: LaurentPoly, rhs: LaurentPoly) -> dict:
    """Both sides, and the first terms of lhs - rhs in canonical order."""
    diff = (lhs - rhs).to_obj()
    return {"lhs": str(lhs), "rhs": str(rhs), "diff": diff[:8], "diff_terms": len(diff)}


# -- exchange relations ----------------------------------------------------

# Packed occupancies and index sets.  An occupancy change is packed by
# `poly.packing` with reach 3 (a sum of up to three moves), so d_p at index
# p adds d_p << (3 p).  A set of indices is the bitmask with bit 3 p for
# index p, the low bit of p's field, so a change and the indices it raises
# or lowers share one layout.  A ket is read through two sets: `mask`, the
# indices it occupies, and `ones`, those holding exactly one.
_DELTA_REACH = 3


# One move on an occupied set: (raised indices, lowered indices, packed
# occupancy change, alpha, multiplicity).
PatternMove = Tuple[int, int, int, int, int]


@functools.lru_cache(maxsize=8192)
def _pattern_moves(plan: LayerPlan, mask: int, width: int) -> Tuple[PatternMove, ...]:
    """The moves of `plan` on every state of `width` indices whose occupied
    indices are the set `mask`, by one sweep of its 0/1 pattern.

    `_sweep` reads an occupancy only through m > 0, and a move changes each
    occupancy by -1, 0 or +1, so the moves on any such state are the moves
    on its pattern, shifted by the same changes.  They
    are `_sweep`'s moves wherever it would not overflow; the cutoff is the
    caller's to keep (`check_zf` takes kets at most cutoff-2, from which
    two layers never pass the cutoff).

    Memoized as tuples, so the checks of a grid share a layer's tables (the
    `zf` group sweeps 358 times).  The bound holds the 6502 tables of the
    grids up to n = 5, about 6 MiB (1 KiB a table at n = 5).  Hashing a
    plan costs time on every call, so each check reads through `_moves`.
    """
    bits, _, unpack = packing(_DELTA_REACH, width)
    weights = [1 << (bits * p) for p in range(width)]
    pattern = unpack(mask)
    units = sum(weights)
    moves: List[PatternMove] = []
    # a 0/1 pattern never passes cutoff 2
    for (out, alpha), mult in _sweep(plan, pattern, 2).items():
        # the pattern packs to `mask`, so each field holds its change plus
        # one: 0 where lowered, 1 where kept, 2 where raised
        fields = sum(map(operator.mul, out, weights)) - mask + units
        raised = (fields >> 1) & units
        moves.append((raised, units & ~(fields | raised), fields - units, alpha, mult))
    return tuple(moves)


# A move table per layer label: its sweep plan and occupied set -> moves,
# filled on demand from `_pattern_moves` and shared by the kets of one check.
ZfTables = Dict[int, Tuple[LayerPlan, Dict[int, Tuple[PatternMove, ...]]]]


def _zf_tables(n: int, conv: Convention, labels: Iterable[int]) -> ZfTables:
    return {label: (_layer_plan(n, label, conv), {}) for label in labels}


def _moves(tables: ZfTables, label: int, mask: int, width: int) -> Tuple[PatternMove, ...]:
    plan, table = tables[label]
    moves = table.get(mask)
    if moves is None:
        moves = table[mask] = _pattern_moves(plan, mask, width)
    return moves


def _product_map(tables: ZfTables, width: int, outer: int, inner: int, mask: int,
                 ones: int) -> Dict[tuple, int]:
    """Integer path map for X_outer(u) X_inner(v) on a ket with the sets
    `mask` and `ones`: keys are (packed occupancy change, exponent of u,
    exponent of v)."""
    plan_out, table_out = tables[outer]
    acc: Dict[tuple, int] = {}
    for up, down, d_in, a_in, c_in in _moves(tables, inner, mask, width):
        mid = (mask | up) & ~(down & ones)
        moves_out = table_out.get(mid)
        if moves_out is None:
            moves_out = table_out[mid] = _pattern_moves(plan_out, mid, width)
        for _, _, d_out, a_out, c_out in moves_out:
            key = (d_in + d_out, a_out, a_in)
            acc[key] = acc.get(key, 0) + c_in * c_out
    return acc


def _zf_sides(tables: ZfTables, i: int, j: int, state: Tuple[int, ...], cutoff: int,
              mask: int, ones: int) -> Tuple[Dict[tuple, int], Dict[tuple, int]]:
    """Both sides of the exchange relation for the pair (i, j) on `state`:
    X_i(x) X_j(y) on the left; X_i(y) X_j(x) for i = j, (x/y) X_i(y) X_j(x)
    for i > j and X_i(y) X_j(x) + (1 - x/y) X_j(y) X_i(x) for i < j on the
    right.  Keys are (packed occupancy change, e_x, e_y): every term of one
    ket reaches the ket plus its change (`_zf_key` decodes a key).

    `mask` and `ones` are the state's sets, which the caller holds.
    `tables` (`_zf_tables` for i and j) is shared across the kets of a
    check.  The state must lie in `check_zf`'s box, occupancies at most
    cutoff-2, where no move can pass the cutoff.
    """
    if max(state) > cutoff - 2:
        raise ValueError("state %r outside the ket box of cutoff %d" % (state, cutoff))
    width = len(state)
    lhs = _product_map(tables, width, i, j, mask, ones)
    shift = 1 if i > j else 0
    rhs = {(d, a_in + shift, a_out - shift): c for (d, a_out, a_in), c in lhs.items()}
    if i < j:
        for (d, a_out, a_in), c in _product_map(tables, width, j, i, mask, ones).items():
            key = (d, a_in, a_out)
            rhs[key] = rhs.get(key, 0) + c
            key = (d, a_in + 1, a_out - 1)
            rhs[key] = rhs.get(key, 0) - c
        rhs = {key: c for key, c in rhs.items() if c}
    return lhs, rhs


def _zf_key(state: Tuple[int, ...], key: tuple) -> tuple:
    """A `_zf_sides` key of the ket `state` as (out_state, e_x, e_y)."""
    delta, e_x, e_y = key
    changes = packing(_DELTA_REACH, len(state))[2](delta)
    return tuple(map(operator.add, state, changes)), e_x, e_y


def check_zf(n: int, pair: Tuple[int, int], cutoff: int = 4,
             convention: Convention = CONVENTION) -> CheckReport:
    """Exchange relation for the pair (i, j) on every basis ket with
    occupancy at most cutoff-2; ValueError for cutoff < 2, whose box is
    empty.

    Each layer is swept once per occupied set a ket or a middle state
    shows (`_pattern_moves`, shared by the checks of a grid).  A ket's two
    sides depend only on its class: its `mask`, and `ones` on the indices
    an inner move lowers (`_product_map` reads `ones` nowhere else).  The
    kets are walked in product order and only the first of each class is
    checked, so a failure names the same ket and key as a walk of every
    ket.  Above cutoff 4 the walk is the {0, 1, 2}^w corner, which holds a
    ket of every class."""
    t0 = time.perf_counter()
    if cutoff < 2:
        raise ValueError("the ket box of cutoff %d is empty; need cutoff >= 2" % cutoff)
    i, j = pair
    width = n * (n - 1) // 2
    tables = _zf_tables(n, convention, (i, j))
    inner = (j, i) if i < j else (j,)  # the inner layers of `_zf_sides`
    digits = ((0, 0), (1, 1), (1, 0))[:min(cutoff - 1, 3)]
    bits = packing(_DELTA_REACH, width)[0]
    # (mask, ones) of each ket, in product order
    masks = [(0, 0)]
    for p in range(width):
        bit = 1 << (bits * p)
        masks = [(m | bit * dm, o | bit * do) for m, o in masks for dm, do in digits]
    lowered: Dict[int, int] = {}
    seen = set()
    detail = None
    passed = True
    for state, (mask, ones) in zip(itertools.product(range(len(digits)), repeat=width),
                                   masks):
        down = lowered.get(mask)
        if down is None:
            down = 0
            for label in inner:
                for move in _moves(tables, label, mask, width):
                    down |= move[1]
            lowered[mask] = down
        ket_class = (mask, ones & down)
        if ket_class in seen:
            continue
        seen.add(ket_class)
        lhs, rhs = _zf_sides(tables, i, j, state, cutoff, mask, ones)
        if lhs != rhs:
            passed = False
            diff = sorted((_zf_key(state, k), k) for k in lhs.keys() | rhs.keys()
                          if lhs.get(k) != rhs.get(k))
            key, raw = diff[0]
            detail = {"state": state, "vars": ("x", "y"), "key": key,
                      "lhs": lhs.get(raw, 0), "rhs": rhs.get(raw, 0),
                      "diff_terms": len(diff)}
            break
    return _report("zf", {"n": n, "i": i, "j": j, "cutoff": cutoff}, passed,
                   detail, t0)


# -- factorized and Schur-valued expectation values ------------------------

def check_increasing_labels(n: int, labels: Sequence[int]) -> CheckReport:
    """Weakly increasing layer labels: the value is the pure monomial
    prod z_t^{i_t} from a single contributing configuration."""
    t0 = time.perf_counter()
    if any(labels[t] > labels[t + 1] for t in range(len(labels) - 1)):
        raise ValueError("labels must be weakly increasing")
    spec = scalar_spec(n, labels)
    got = vev(spec)
    expected = LaurentPoly.monomial(
        {Var.layer(t): i for t, i in enumerate(labels, start=1) if i}, 1)
    count = got.at_one()
    passed = got == expected and count == 1
    detail = None if passed else {**_mismatch(got, expected), "count": count}
    return _report("increasing_labels", {"n": n, "labels": list(labels)},
                   passed, detail, t0)


def _block_layout(blocks: Sequence[Tuple[int, int]]):
    """Flattened labels, per-block variable groups, partition, prefactor."""
    m = len(blocks)
    labels: List[int] = []
    var_groups: List[List[Var]] = []
    t = 1
    for label, mult in blocks:
        group = []
        for _ in range(mult):
            labels.append(label)
            group.append(Var.layer(t))
            t += 1
        var_groups.append(group)
    parts: List[int] = []
    pref_exp: Dict[Var, int] = {}
    for k, (label, mult) in enumerate(blocks, start=1):
        parts.extend([label - m + k] * mult)
        for v in var_groups[k - 1]:
            if m - k:
                pref_exp[v] = m - k
    prefactor = LaurentPoly.monomial(pref_exp, 1)
    return labels, var_groups, tuple(parts), prefactor


def check_schur_correspondence(n: int, blocks: Sequence[Tuple[int, int]]) -> CheckReport:
    """Strictly decreasing labels with multiplicities: the expectation value
    factors as prod_k (block variables)^(m-k) times a Schur polynomial."""
    t0 = time.perf_counter()
    _check_schur_blocks(n, blocks)
    layout = _block_layout(blocks)
    return _schur_report(n, blocks, layout, vev(scalar_spec(n, layout[0])), t0)


def _check_schur_blocks(n: int, blocks: Sequence[Tuple[int, int]]):
    values = [b[0] for b in blocks]
    if any(values[k] <= values[k + 1] for k in range(len(values) - 1)):
        raise ValueError("block labels must be strictly decreasing")
    if values[0] > n or values[-1] < 0:
        raise ValueError("labels must sit in 0..n")


def _schur_report(n: int, blocks: Sequence[Tuple[int, int]], layout: tuple,
                  got: LaurentPoly, t0: float) -> CheckReport:
    _, var_groups, parts, prefactor = layout
    expected = prefactor * schur_jacobi_trudi(parts, [v for g in var_groups for v in g])
    passed = got == expected
    return _report("schur_correspondence",
                   {"n": n, "blocks": [list(b) for b in blocks]},
                   passed, None if passed else _mismatch(got, expected), t0)


def _schur_and_counting(n: int, blocks: Sequence[Tuple[int, int]]) -> List[CheckReport]:
    """`check_schur_correspondence` and `check_counting` on one contraction
    of the stack: the count is the vev's counts summed."""
    t0 = time.perf_counter()
    _check_schur_blocks(n, blocks)
    layout = _block_layout(blocks)
    alphabet, counts = _vev_counts(scalar_spec(n, layout[0]), CONVENTION)
    schur = _schur_report(n, blocks, layout, alphabet.poly(counts), t0)
    return [schur, _counting_report(n, blocks, layout, sum(counts.values()),
                                    time.perf_counter())]


def check_multiple_commutation(n: int, blocks: Sequence[Tuple[int, int]],
                               kets: Optional[Iterable[Tuple[int, ...]]] = None
                               ) -> CheckReport:
    """Reordering identity: the label-decreasing product over its monomial
    prefactor equals the redistribution sum of label-increasing products.

    Checked as an identity of state combinations; denominators are cleared
    with the full pair product so both sides stay polynomial.
    """
    t0 = time.perf_counter()
    labels, var_groups, _, prefactor = _block_layout(blocks)
    sizes = [len(g) for g in var_groups]
    all_vars = [v for g in var_groups for v in g]
    width = n * (n - 1) // 2
    if kets is None:
        kets = [(0,) * width]
    full_pair = pair_product(all_vars)

    passed = True
    detail = None
    for ket_state in kets:
        lhs = apply_stack(scalar_spec(n, labels, all_vars), CONVENTION, ket_state)
        inv_pref = prefactor ** -1
        lhs = {s: c * inv_pref * full_pair for s, c in lhs.items()}
        rhs: Dict[Tuple[int, ...], LaurentPoly] = {}
        for groups, multiplier in redistributions(all_vars, sizes):
            rev_labels: List[int] = []
            rev_vars: List[Var] = []
            for k in range(len(blocks) - 1, -1, -1):
                rev_labels.extend([blocks[k][0]] * sizes[k])
                rev_vars.extend(groups[k])
            contrib = apply_stack(scalar_spec(n, rev_labels, rev_vars), CONVENTION, ket_state)
            for s, c in contrib.items():
                add = c * multiplier
                acc = rhs.get(s)
                rhs[s] = add if acc is None else acc + add
        lhs = {s: c for s, c in lhs.items() if not c.is_zero()}
        rhs = {s: c for s, c in rhs.items() if not c.is_zero()}
        if lhs != rhs:
            passed = False
            detail = {"ket": ket_state, "lhs_states": len(lhs), "rhs_states": len(rhs)}
            break
    return _report("multiple_commutation",
                   {"n": n, "blocks": [list(b) for b in blocks]},
                   passed, detail, t0)


# -- derivatives, counting, averages ---------------------------------------

def check_derivative_value(n: int, labels: Sequence[int]) -> CheckReport:
    """First derivative in the first layer variable against the symbolic
    derivative of the closed Schur form (distinct labels)."""
    t0 = time.perf_counter()
    m = len(labels)
    if any(labels[k] <= labels[k + 1] for k in range(m - 1)):
        raise ValueError("labels must be strictly decreasing")
    derivs = [1] + [0] * (m - 1)
    got = vev(scalar_spec(n, labels, derivs=derivs))
    parts = tuple(labels[k] - m + (k + 1) for k in range(m))
    expected = schur_derivative_oracle(parts, m)
    passed = got == expected
    return _report("derivative_value", {"n": n, "labels": list(labels)},
                   passed, None if passed else _mismatch(got, expected), t0)


def check_counting(n: int, blocks: Sequence[Tuple[int, int]]) -> CheckReport:
    """Configuration count at all-ones equals the specialized Schur value;
    for multiplicity-free labels also the pairwise product
    prod (i_k - i_l)/(l - k)."""
    t0 = time.perf_counter()
    layout = _block_layout(blocks)
    count = count_configurations(scalar_spec(n, layout[0]))
    return _counting_report(n, blocks, layout, count, t0)


def _counting_report(n: int, blocks: Sequence[Tuple[int, int]], layout: tuple,
                     count: int, t0: float) -> CheckReport:
    labels, _, parts, _ = layout
    expected = schur_at_one(parts, len(labels))
    passed = count == expected
    detail = None
    if passed and all(mult == 1 for _, mult in blocks):
        num = den = 1
        m = len(labels)
        for k in range(m):
            for l in range(k + 1, m):
                num *= labels[k] - labels[l]
                den *= l - k
        passed = num == count * den
        if not passed:
            detail = {"count": count, "product": str(Fraction(num, den))}
    elif not passed:
        detail = {"count": count, "expected": expected}
    return _report("counting", {"n": n, "blocks": [list(b) for b in blocks]},
                   passed, detail, t0)


def check_average_ratio(n: int, ell: int) -> CheckReport:
    """Label sequence n, n-1, ..., skipping n-ell, ..., 0: the plain value is
    prod z_k^{n-k} e_ell(z_1..z_n), the first-layer-derivative value is its
    z_1 derivative, and the ratio of the two at all-ones is
    n - 1 + C(n-1, ell-1)/C(n, ell) = n - 1 + ell/n.
    """
    t0 = time.perf_counter()
    if not 1 <= ell <= n - 1:
        raise ValueError("need 1 <= ell <= n-1")
    labels = [v for v in range(n, -1, -1) if v != n - ell]
    zv = [Var.layer(t) for t in range(1, n + 1)]
    stair = LaurentPoly.monomial({zv[k]: n - 1 - k for k in range(n - 1)}, 1)
    plain = vev(scalar_spec(n, labels))
    hat = vev(scalar_spec(n, labels, derivs=[1] + [0] * (n - 1)))
    e_full = elementary(ell, zv)
    closed_plain = stair * e_full
    closed_hat = ((stair * e_full).derivative(zv[0]))
    # spelled out: (n-1) z1^{n-2} prod_{k>=2} z_k^{n-k} e_ell(z)
    #              + prod z_k^{n-k} e_{ell-1}(z_2..z_n)
    split_hat = (stair * LaurentPoly.monomial({zv[0]: -1}, n - 1) * e_full
                 + stair * elementary(ell - 1, zv[1:]))
    passed = plain == closed_plain and hat == closed_hat and hat == split_hat
    detail = None
    if passed:
        got = Fraction(hat.at_one(), plain.at_one())
        expected = Fraction(n - 1) + Fraction(ell, n)
        passed = got == expected
        if not passed:
            detail = {"got": str(got), "expected": str(expected)}
        else:
            detail = {"ratio": str(got)}
    else:
        detail = _mismatch(hat, closed_hat)
    return _report("average_ratio", {"n": n, "ell": ell}, passed, detail, t0)


# -- per-site-variable layers and loop functions ---------------------------

def _col_var(t: int, p: int) -> Var:
    return Var.site(t, p, 1)


def check_inhomogeneous(n: int, sizes: Sequence[int]) -> CheckReport:
    """Stacks with independent site variables: the value is the inverse
    first-column prefactor times the block loop elementary function, and
    depends on first-column variables only."""
    t0 = time.perf_counter()
    if len(sizes) != n or any(s < 1 for s in sizes):
        raise ValueError("need n block sizes, all at least 1")
    labels: List[int] = []
    for i in range(1, n):
        labels.extend([n - i + 1] * sizes[i - 1])
    labels.extend([0] * sizes[-1])
    got = vev(inhomogeneous_spec(n, labels))
    W = sum(sizes)
    rows = [i for i in range(1, n) for _ in range(sizes[i - 1])]
    pref = LaurentPoly.monomial({_col_var(t, i): -1 for t, i in enumerate(rows, start=1)})
    loop = loop_elementary_general(list(sizes[:-1]),
                                   lambda i, k: _col_var(k, i), W)
    expected = pref * loop
    passed = got == expected
    detail = None
    if passed:
        col1 = {_col_var(t, i) for t in range(1, W + 1) for i in range(1, n)}
        extra = set(got.variables()) - col1
        passed = not extra
        if extra:
            detail = {"non_column_vars": sorted(v.name for v in extra)}
    else:
        detail = _mismatch(got, expected)
    return _report("inhomogeneous", {"n": n, "sizes": list(sizes)},
                   passed, detail, t0)


# -- one-column identities -------------------------------------------------

def _column_layers(k: int, n_layers: int, start_ell: int = 0):
    """Y_{start_ell}(z_1) Y_{start_ell+1}(z_2) ... capped at Y_k, width k, as
    the (ell, row_vars) pairs `strip_vev` takes."""
    return [(min(start_ell + t - 1, k), [_col_var(t, p) for p in range(1, k + 1)])
            for t in range(1, n_layers + 1)]


def _selection_sum(width: int, n_layers: int, first_row: int = 1,
                   first_col: int = 1) -> LaurentPoly:
    """sum over first_col <= j_1 < ... < j_width <= n_layers of
    prod_s z_{j_s}^{(first_row + s - 1)}."""
    span = n_layers - first_col + 1
    if width > span:
        return LaurentPoly.zero()
    return loop_elementary_general(
        [1] * width,
        lambda i, k: _col_var(k + first_col - 1, i + first_row - 1),
        span)


def check_one_column(k: int, n_layers: int,
                     bra_ones: int = 0) -> CheckReport:
    """Width-k column with bra <1^bra_ones, 0^(k-bra_ones)|: the chain of
    column operators equals the inverse staircase prefactor times the loop
    elementary selection sum."""
    t0 = time.perf_counter()
    if not 0 <= bra_ones <= k:
        raise ValueError("bra occupancies out of range")
    ell = k - bra_ones
    if n_layers < ell:
        raise ValueError("need at least %d layers" % ell)
    layers = _column_layers(k, n_layers, start_ell=bra_ones)
    bra = (1,) * bra_ones + (0,) * ell
    got = strip_vev(layers, bra, (0,) * k)
    pref = LaurentPoly.monomial({_col_var(t, bra_ones + t): -1 for t in range(1, ell + 1)})
    expected = pref * _selection_sum(k, n_layers)
    passed = got == expected
    name = "one_column" if bra_ones == 0 else "mixed_boundary_column"
    params = {"k": k, "n_layers": n_layers}
    if bra_ones:
        params["bra_ones"] = bra_ones
    return _report(name, params, passed,
                   None if passed else _mismatch(got, expected), t0)


def check_column_reduction(n: int, extra_zero_layers: int = 0) -> CheckReport:
    """The full-triangle per-site-variable stack with labels n, n-1, ..., 2,
    then 0 repeated, equals the width-(n-1) column chain."""
    t0 = time.perf_counter()
    labels = list(range(n, 1, -1)) + [0] * (extra_zero_layers + 1)
    lhs = vev(inhomogeneous_spec(n, labels))
    m = n - 1
    layers = _column_layers(m, len(labels))
    rhs = strip_vev(layers, (0,) * m, (0,) * m)
    passed = lhs == rhs
    return _report("column_reduction",
                   {"n": n, "zero_layers": extra_zero_layers + 1},
                   passed, None if passed else _mismatch(lhs, rhs), t0)


def check_column_decomposition(k: int, n_layers: int) -> CheckReport:
    """Top-slot projector decomposition of the width-k column value.

    The value splits over the position where the top slot returns to empty:
    piece i keeps occupancy 1 in the top slot through the first i-1 gaps and
    0 afterwards.  The pieces must sum to the total, match their closed
    forms, and the occupancy-2 and -3 projections at the first gap vanish.
    """
    t0 = time.perf_counter()
    if k < 2:
        raise ValueError("decomposition needs width at least 2")
    layers = _column_layers(k, n_layers)
    bra = ket = (0,) * k
    total = strip_vev(layers, bra, ket)
    passed = True
    detail: Dict[str, str] = {}

    pieces = []
    for i in range(1, n_layers + 1):
        projections = {g: (0, 1 if g < i else 0) for g in range(1, n_layers)}
        pieces.append(strip_vev(layers, bra, ket, projections))
    acc = LaurentPoly.zero()
    for p in pieces:
        acc = acc + p
    if acc != total:
        passed = False
        detail = _mismatch(acc, total)

    # closed forms: piece 1 skips the first layer entirely; piece i >= 2
    # routes the top slot through layer i
    if passed:
        base_pref = LaurentPoly.monomial({_col_var(p, p): -1 for p in range(1, k + 1)})
        first_pref = LaurentPoly.monomial({_col_var(p, p): -1 for p in range(2, k + 1)})
        expected_first = first_pref * _selection_sum(k - 1, n_layers,
                                                     first_row=2, first_col=2)
        if pieces[0] != expected_first:
            passed = False
            detail = {"piece": "1", **_mismatch(pieces[0], expected_first)}
    if passed:
        for i in range(2, n_layers + 1):
            zi = LaurentPoly.var(_col_var(i, 1))
            expected_i = (base_pref * zi
                          * _selection_sum(k - 1, n_layers,
                                           first_row=2, first_col=i + 1))
            if pieces[i - 1] != expected_i:
                passed = False
                detail = {"piece": str(i), **_mismatch(pieces[i - 1], expected_i)}
                break

    if passed:
        for m_ins in (2, 3):
            stray = strip_vev(layers, bra, ket, {1: (0, m_ins)})
            if not stray.is_zero():
                passed = False
                detail = {"projection": str(m_ins), "value": str(stray)}
                break
    return _report("column_decomposition", {"k": k, "n_layers": n_layers},
                   passed, detail if detail else None, t0)


# -- oracle cross-checks ---------------------------------------------------

def _random_partition(rng: random.Random) -> Tuple[int, ...]:
    """At most four parts of weight at most 8."""
    parts: List[int] = []
    budget = rng.randint(0, 8)
    while budget > 0 and len(parts) < 4:
        p = rng.randint(1, budget)
        parts.append(p)
        budget -= p
    parts.sort(reverse=True)
    return tuple(parts)


def check_schur_oracles(samples: int = 50, seed: int = 20260823) -> CheckReport:
    """Bialternant, determinant and redistribution forms of the Schur
    polynomial agree on random partitions."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    passed = True
    detail = None
    done = 0
    while done < samples:
        parts = _random_partition(rng)
        nv = rng.randint(max(1, len(parts)), 4)
        zvars = [Var.layer(t) for t in range(1, nv + 1)]
        jt = schur_jacobi_trudi(parts, zvars)
        bi = schur_bialternant(parts, zvars)
        lam = list(parts) + [0] * (nv - len(parts))
        blocks = [(value, len(list(grp)))
                  for value, grp in itertools.groupby(lam)]
        groups = []
        t = 0
        for _, mult in blocks:
            groups.append(zvars[t:t + mult])
            t += mult
        pr = schur_pragacz(blocks, groups)
        wrong = [(route, value) for route, value in (("bialternant", bi), ("pragacz", pr))
                 if value != jt]
        if wrong:
            passed = False
            route, value = wrong[0]
            detail = {"parts": list(parts), "vars": nv, "route": route,
                      **_mismatch(value, jt)}
            break
        done += 1
    return _report("schur_oracles", {"samples": samples, "seed": seed},
                   passed, detail, t0)


def check_loop_recursion(samples: int = 50, seed: int = 977) -> CheckReport:
    """Loop elementary functions satisfy the two-term column recursion
    E_r(cols 1..c) = E_r(cols 1..c-1) + E_{r-1}(cols 1..c-1) * z_c^{(r)}."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    passed = True
    detail = None
    var_of = lambda i, k: Var.site(k, i, 1)
    for _ in range(samples):
        c = rng.randint(1, 6)
        r = rng.randint(1, c)
        full = loop_elementary(r, var_of, c)
        drop = (loop_elementary(r, var_of, c - 1) if r <= c - 1
                else LaurentPoly.zero())
        shrink = (loop_elementary(r - 1, var_of, c - 1) if r >= 1
                  else LaurentPoly.zero())
        expected = drop + shrink * LaurentPoly.var(var_of(r, c))
        if full != expected:
            passed = False
            detail = {"rows": r, "cols": c, **_mismatch(full, expected)}
            break
    return _report("loop_recursion", {"samples": samples, "seed": seed},
                   passed, detail, t0)


def check_deformed_limit() -> CheckReport:
    """Entrywise q->0 limit of the deformed tensors equals the undeformed
    z-dressed tensor, including the operator relations at small cutoffs."""
    t0 = time.perf_counter()
    z = Var.layer(1)
    lz = local_tensor(TensorKind.LZ, z)
    passed = q0_limit(TensorKind.LQZ, z) == lz and q0_limit(TensorKind.MQZ, z) == lz
    detail = None
    if passed:
        for cutoff in (3, 4):
            a = check_q0_relations(cutoff)
            b = check_qosc_relations(cutoff)
            if not (a["passed"] and b["passed"]):
                passed = False
                detail = {"cutoff": cutoff}
                break
    return _report("deformed_limit", {}, passed, detail, t0)


def check_tetrahedron(cutoff: int = 4) -> CheckReport:
    t0 = time.perf_counter()
    result = tetrahedron_check(cutoff)
    return _report("tetrahedron", {"cutoff": cutoff}, result["passed"],
                   None if result["passed"] else result, t0)


def check_convention() -> CheckReport:
    """The reading `resolve_convention` selects, the one reading that gives
    the anchor values, is the pinned `CONVENTION`."""
    t0 = time.perf_counter()
    try:
        conv = resolve_convention()
    except Exception as exc:
        return _report("convention", {}, False, {"error": str(exc)}, t0)
    passed = conv == CONVENTION
    return _report("convention", {"resolved": str(conv)}, passed,
                   None if passed else {"resolved": str(conv), "pinned": str(CONVENTION)}, t0)


# -- instance grids --------------------------------------------------------

def schur_grid():
    """(n, blocks) instances: at most four strictly decreasing labels in
    0..n, block multiplicities 1-2, at most five variables."""
    for n in (2, 3, 4):
        for m in range(1, 5):
            for values in itertools.combinations(range(n, -1, -1), m):
                for mults in itertools.product((1, 2), repeat=m):
                    if sum(mults) <= 5:
                        yield n, tuple(zip(values, mults))


def increasing_grid():
    for n in (2, 3, 4):
        for m in range(1, 6):
            for labels in itertools.combinations_with_replacement(range(n + 1), m):
                yield n, labels


def zf_grid():
    for n in (2, 3, 4):
        for i in range(n + 1):
            for j in range(n + 1):
                yield n, (i, j)


def inhomogeneous_grid():
    for n in (3, 4):
        for m_last in (1, 2, 3):
            yield n, tuple([1] * (n - 1) + [m_last])
    yield 3, (2, 1, 1)
    yield 3, (1, 2, 2)


def column_grid():
    """check_one_column arguments: the all-zero bra, then the mixed bra
    <1^k_ones, 0^ell| on a width-(k_ones + ell) column."""
    for k in (1, 2, 3):
        for n_layers in range(k, 6):
            yield k, n_layers
    for k_ones in (1, 2, 3, 4):
        for ell in range(0, 4):
            if not 1 <= k_ones + ell <= 4:
                continue
            for n_layers in range(ell, 6):
                yield k_ones + ell, n_layers, k_ones


# -- battery ---------------------------------------------------------------

# group -> (checker, instances) in report order: each instance is a tuple of
# positional arguments.  A checker returns one report, or a list when checks
# share their work (one vev per Schur instance)
BATTERY = {
    "convention": [(check_convention, lambda: [()])],
    "tetrahedron": [(check_tetrahedron, lambda: [(4,)])],
    "zf": [(check_zf, zf_grid)],
    "schur": [(_schur_and_counting, schur_grid),
              (check_increasing_labels, increasing_grid),
              (check_multiple_commutation,
               lambda: [(4, ((3, 2), (1, 1))), (3, ((2, 1), (1, 1), (0, 1)))])],
    "hat": [(check_derivative_value,
             lambda: ((4, labels) for labels in itertools.combinations(range(4, -1, -1), 4))),
            (check_average_ratio, lambda: ((4, ell) for ell in (1, 2, 3)))],
    "inhomogeneous": [(check_inhomogeneous, inhomogeneous_grid)],
    "columns": [(check_one_column, column_grid),
                (check_column_reduction,
                 lambda: ((n, extra) for n in (3, 4) for extra in (0, 1))),
                (check_column_decomposition,
                 lambda: [(2, 3), (2, 4), (3, 3), (3, 4)])],
    "oracles": [(check, lambda: [()])
                for check in (check_schur_oracles, check_loop_recursion, check_deformed_limit)],
}

GROUPS = tuple(BATTERY)


def run_battery(selection: str = "all") -> List[CheckReport]:
    """Run the selected check group (or all) and return the reports."""
    if selection != "all" and selection not in GROUPS:
        raise ValueError("unknown group %r" % selection)
    wanted = GROUPS if selection == "all" else (selection,)
    reports: List[CheckReport] = []
    for group in wanted:
        for check, instances in BATTERY[group]:
            for args in instances():
                got = check(*args)
                reports.extend(got if isinstance(got, list) else [got])
    return reports
