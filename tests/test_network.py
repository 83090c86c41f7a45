"""Slice-network layer operators: convention resolution, enumeration,
exact contraction, and the one-column strip operators."""

import functools
import itertools
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from trivertex import network, verify
from trivertex.fock import CutoffOverflow, LocalOp
from trivertex.lattice import TensorKind, local_tensor
from trivertex.network import (
    CONVENTION,
    AmbiguousConvention,
    Convention,
    InvalidLabels,
    LayerSpec,
    NoConventionFound,
    PartitionSpec,
    _column_plan,
    _contract,
    _fanout,
    _layer_plan,
    _site_table,
    _sweep,
    _sweep_map,
    _with_units,
    all_conventions,
    apply_stack,
    count_configurations,
    enumerate_configurations,
    fixed_colors,
    input_stubs,
    inhomogeneous_spec,
    resolve_convention,
    scalar_spec,
    site_binding,
    sites,
    strip_vev,
    vacuum_state,
    vev,
    weighted_stubs,
)
from trivertex.poly import LaurentPoly, Var

Z = [Var.layer(t) for t in range(1, 7)]
RESOLVED = Convention("we", "staircase", "sum", "north_lateral")
# a reading whose layers map one (in-state, out-state, alpha) by several
# colorings: label 2 at n = 3 takes the vacuum to itself with alpha 2 twice
MULTI = Convention("we", "columns", "sum", "north")


def zmono(*exps):
    return LaurentPoly.monomial({Z[t]: e for t, e in enumerate(exps) if e}, 1)


def col_var(t, p):
    return Var.site(t, p, 1)


def row_vars(t, m):
    return [col_var(t, p) for p in range(1, m + 1)]


# -- the term route: every coloring of enumerate_layer_terms, one by one ----

@dataclass(frozen=True)
class LayerTerm:
    """One surviving coloring: its z-exponent and per-site local operators
    (aligned with the canonical site order)."""

    alpha: int
    ops: tuple


def r0_by_input():
    """(h_in, v_in) -> [(h_out, v_out, local operator)] of the R0 tensor."""
    by_in = {}
    for (ii, jj, aa, bb), (_, op) in sorted(local_tensor(TensorKind.R0).items()):
        by_in.setdefault((ii, jj), []).append((aa, bb, op))
    return by_in


R0_BY_INPUT = r0_by_input()


@functools.lru_cache(maxsize=None)
def enumerate_layer_terms(n, i, convention):
    """All surviving colorings of the layer with label i, as LayerTerms.

    Depth-first sweep over sites, bottom row first and along the horizontal
    flow within each row, so both input edges of a site are always known
    when it is reached; colorings hitting a zero tensor entry or violating a
    fixed output stub are pruned immediately.
    """
    canon = sites(n)
    index = {s: j for j, s in enumerate(canon)}
    fixed = fixed_colors(n, i, convention)
    free_inputs = {e for e in input_stubs(n, convention) if e not in fixed}
    residual_values = (0, 1) if convention.residual == "sum" else (0,)
    weighted = weighted_stubs(n, convention)
    west_flow = convention.flow == "we"

    order = []
    for k in range(n - 1, 0, -1):
        row = [(k, l) for l in range(1, n - k + 1)]
        order.extend(row if west_flow else reversed(row))

    colors = dict(fixed)
    ops = [None] * len(canon)
    results = []

    def sweep(t):
        if t == len(order):
            alpha = sum(colors[e] for e in weighted)
            results.append(LayerTerm(alpha, tuple(ops)))
            return
        k, l = order[t]
        h_in = ("h", k, l - 1) if west_flow else ("h", k, l)
        h_out = ("h", k, l) if west_flow else ("h", k, l - 1)
        v_in = ("v", k, l)
        v_out = ("v", k - 1, l)
        j = colors[v_in]
        if h_in in colors:
            h_choices = (colors[h_in],)
            fresh = False
        else:
            assert h_in in free_inputs, "edge %r reached before assignment" % (h_in,)
            h_choices = residual_values
            fresh = True
        for hv in h_choices:
            for aa, bb, op in R0_BY_INPUT.get((hv, j), ()):
                if h_out in colors and colors[h_out] != aa:
                    continue
                if v_out in colors and colors[v_out] != bb:
                    continue
                wrote = []
                if fresh:
                    colors[h_in] = hv
                    wrote.append(h_in)
                for e, c in ((h_out, aa), (v_out, bb)):
                    if e not in colors:
                        colors[e] = c
                        wrote.append(e)
                ops[index[(k, l)]] = op
                sweep(t + 1)
                for e in wrote:
                    del colors[e]
        ops[index[(k, l)]] = None

    sweep(0)
    return tuple(results)


def term_image(term, state, cutoff):
    """The occupancy state one coloring maps `state` to, or None."""
    occ = list(state)
    for idx, op in enumerate(term.ops):
        if op is LocalOp.B_PLUS:
            if occ[idx] >= cutoff:
                raise CutoffOverflow("internal: occupancy exceeded the layer budget")
            occ[idx] += 1
        elif op is LocalOp.B_MINUS:
            if occ[idx] == 0:
                return None
            occ[idx] -= 1
        elif op is LocalOp.T_PROJ:
            if occ[idx] != 0:
                return None
        elif op is not LocalOp.ID_B and op is not LocalOp.ID_R:
            raise ValueError("layers are built from undeformed operators")
    return tuple(occ)


def as_poly(v):
    return LaurentPoly.var(v) if isinstance(v, Var) else v


def term_apply_layer(n, terms, z_binding, derivative_order, ket, cutoff):
    """Reference layer action: every term on every ket state."""
    weights = []
    for t in terms:
        if isinstance(z_binding, Mapping):
            w = LaurentPoly.one()
            for s, op in zip(sites(n), t.ops):
                if op is LocalOp.B_PLUS:
                    w = w * as_poly(z_binding[s])
                elif op is LocalOp.B_MINUS:
                    w = w * as_poly(z_binding[s]) ** -1
        else:
            w = as_poly(z_binding) ** t.alpha
        weights.append(w)
    out = {}
    for state, coeff in ket.items():
        for term, w in zip(terms, weights):
            key = term_image(term, state, cutoff)
            if key is not None:
                add = coeff * w
                out[key] = add if key not in out else out[key] + add
    if derivative_order:
        out = {s: c.derivative(z_binding, derivative_order) for s, c in out.items()}
    return {s: c for s, c in out.items() if not c.is_zero()}


# -- the strip term route: every boundary-summed column term, one by one ----

def term_T(row_vars):
    """The chained one-column entries T_{i,j}^{a,b}: slot p carries the q=0
    z-dressed tensor with the p-th row variable, the vertical color enters at
    the bottom (j) and leaves at the top (b); entry() lists the surviving
    (coefficient, per-slot ops) pairs over the internal vertical colorings."""
    tables = [local_tensor(TensorKind.LZ, z) for z in row_vars]

    def entry(i_tuple, j, a_tuple, b):
        m = len(tables)
        out = []
        for ks in itertools.product((0, 1), repeat=m - 1):
            coeff = LaurentPoly.one()
            ops = []
            for p in range(m):
                vert_out = b if p == 0 else ks[p - 1]
                vert_in = ks[p] if p < m - 1 else j
                hit = tables[p].get((i_tuple[p], vert_in, a_tuple[p], vert_out))
                if hit is None:
                    break
                coeff = coeff * hit[0]
                ops.append(hit[1])
            else:
                out.append((coeff, tuple(ops)))
        return out

    return entry


def term_Y(ell, m, row_vars):
    """Y_ell as a term list: outputs 0^ell 1^(m-ell), bottom input 1, the
    first ell+1 horizontal inputs and the top output summed, the rest pinned
    to 1; for ell = m outputs all 0, bottom input 0, every input summed."""
    entry = term_T(row_vars)
    if ell == m:
        a, j, n_free = (0,) * m, 0, m
    else:
        a, j, n_free = (0,) * ell + (1,) * (m - ell), 1, ell + 1
    acc = {}
    for head in itertools.product((0, 1), repeat=n_free):
        i_tuple = head + (1,) * (m - n_free)
        for b in (0, 1):
            for coeff, ops in entry(i_tuple, j, a, b):
                acc[ops] = coeff if ops not in acc else acc[ops] + coeff
    return [(c, ops) for ops, c in sorted(acc.items(),
                                          key=lambda kv: [op.value for op in kv[0]])]


def term_apply_strip(terms, combo, cutoff):
    """Reference strip action: every term on every state."""
    out = {}
    for state, coeff in combo.items():
        for c, ops in terms:
            key = term_image(LayerTerm(0, ops), state, cutoff)
            if key is not None:
                add = coeff * c
                out[key] = add if key not in out else out[key] + add
    return {s: c for s, c in out.items() if not c.is_zero()}


def strip_steps(layers):
    """The engine steps of strip layers, as `strip_vev` builds them."""
    return [(functools.partial(_column_plan, ell, len(rv)), tuple(rv), 0) for ell, rv in layers]


def strip_image(ell, rv, state):
    """Y_ell with row variables `rv` on one basis state, by the engine:
    `_contract` on the strip's step, with no bra."""
    alphabet, image = _contract(strip_steps([(ell, rv)]), state)
    return {new: alphabet.poly(counts) for new, counts in image.items()}


def one_sided_strip_vev(layers, bra, ket, projections=None):
    """<bra| L_1 ... L_r |ket> on the ket side alone: the bra entry of the
    whole image `_contract` returns with no bra."""
    alphabet, image = _contract(strip_steps(layers), ket, None, projections)
    return alphabet.poly(image.get(tuple(bra), {}))


def term_strip_vev(layers, bra, ket, projections=None):
    """<bra| L_1 ... L_r |ket> over term lists, right to left, keeping only
    the states with occupancy v at slot p after gap g for {g: (p, v)}."""
    cutoff = len(layers) + max(ket, default=0)
    combo = {tuple(ket): LaurentPoly.one()}
    for gap in range(len(layers) - 1, -1, -1):
        combo = term_apply_strip(layers[gap], combo, cutoff)
        if projections and gap in projections:
            p, v = projections[gap]
            combo = {s: c for s, c in combo.items() if s[p] == v}
    return combo.get(tuple(bra), LaurentPoly.zero())


def test_sites_order_and_count():
    assert sites(2) == [(1, 1)]
    assert sites(4) == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    for n in range(2, 7):
        assert len(sites(n)) == n * (n - 1) // 2


def test_resolved_convention_is_unique():
    assert resolve_convention() == RESOLVED == CONVENTION


def test_resolution_error_modes():
    losers = [c for c in all_conventions() if c.residual == "zero"]
    with pytest.raises(NoConventionFound):
        resolve_convention(candidates=losers)
    winner = Convention("we", "staircase", "sum", "north_lateral")
    with pytest.raises(AmbiguousConvention):
        resolve_convention(candidates=[winner, winner])


def test_convention_and_spec_value_semantics():
    conv = Convention("we", "staircase", "sum", "north_lateral")
    # tests/data/verify_all.json and bench/cli_expected.json record this repr
    assert repr(conv) == ("Convention(flow='we', boundary='staircase', "
                          "residual='sum', weighted='north_lateral')")
    same = Convention("we", "staircase", "sum", "north_lateral")
    assert conv == same and hash(conv) == hash(same)
    assert len(set(all_conventions())) == 24
    assert conv != ("we", "staircase", "sum", "north_lateral")
    for name in ("flow", "other"):
        with pytest.raises(AttributeError):
            setattr(conv, name, "ew")
    with pytest.raises(ValueError):
        Convention("we", "staircase", "sum", "south")

    spec = scalar_spec(3, (2, 1))
    assert spec == PartitionSpec(3, [LayerSpec(2, Z[0]), LayerSpec(label=1, binding=Z[1])])
    assert spec != scalar_spec(3, (2, 2)) and spec.layers[0] != LayerSpec(2, Z[0], 1)
    assert repr(spec) == ("PartitionSpec(n=3, layers=("
                          "LayerSpec(label=2, binding=Var(z1), deriv=0), "
                          "LayerSpec(label=1, binding=Var(z2), deriv=0)))")
    for value in (spec, spec.layers[0]):
        with pytest.raises(TypeError):
            hash(value)


def test_anchor_expectation_values():
    assert vev(scalar_spec(4, (1, 2, 3, 3, 4))) == zmono(1, 2, 3, 3, 4)
    assert count_configurations(scalar_spec(4, (1, 2, 3, 3, 4))) == 1
    expected = zmono(3, 2, 2) + zmono(3, 3, 1) + zmono(2, 3, 2)
    assert vev(scalar_spec(4, (3, 3, 1))) == expected
    assert count_configurations(scalar_spec(4, (3, 3, 1))) == 3
    assert vev(scalar_spec(3, (2, 2))) == zmono(2, 2)


def test_single_site_layer_tables():
    conv = CONVENTION
    def table(i):
        return sorted((t.alpha, t.ops) for t in enumerate_layer_terms(2, i, conv))
    assert table(0) == [(0, (LocalOp.ID_B,)), (1, (LocalOp.B_PLUS,))]
    assert table(1) == [(1, (LocalOp.T_PROJ,))]
    assert table(2) == [(1, (LocalOp.B_MINUS,)), (2, (LocalOp.ID_R,))]


def test_all_blue_coloring_always_survives():
    conv = CONVENTION
    for n in (2, 3, 4):
        terms = enumerate_layer_terms(n, 0, conv)
        width = n * (n - 1) // 2
        assert any(t.alpha == 0 and t.ops == (LocalOp.ID_B,) * width for t in terms)


def test_neighbor_implications_hold_per_term():
    # with south neighbor at (k+1, l) and east neighbor at (k, l+1):
    # (1b, 1b) forces {1b, b+}; (1r, 1r) forces {1r, b-};
    # (t, 1b) forces t; (1r, t) forces t
    conv = CONVENTION
    for n in (3, 4, 5):
        order = sites(n)
        idx = {s: j for j, s in enumerate(order)}
        for i in range(n + 1):
            for term in enumerate_layer_terms(n, i, conv):
                for (k, l) in order:
                    if (k + 1, l) not in idx or (k, l + 1) not in idx:
                        continue
                    here = term.ops[idx[(k, l)]]
                    south = term.ops[idx[(k + 1, l)]]
                    east = term.ops[idx[(k, l + 1)]]
                    if south is LocalOp.ID_B and east is LocalOp.ID_B:
                        assert here in (LocalOp.ID_B, LocalOp.B_PLUS)
                    if south is LocalOp.ID_R and east is LocalOp.ID_R:
                        assert here in (LocalOp.ID_R, LocalOp.B_MINUS)
                    if south is LocalOp.T_PROJ and east is LocalOp.ID_B:
                        assert here is LocalOp.T_PROJ
                    if south is LocalOp.ID_R and east is LocalOp.T_PROJ:
                        assert here is LocalOp.T_PROJ


def test_vev_homogeneity():
    for n, labels in ((3, (2, 1)), (4, (3, 3, 1)), (4, (4, 2, 1)), (3, (3, 2, 1))):
        value = vev(scalar_spec(n, labels))
        want = sum(labels)
        for mono, _ in value.sorted_terms():
            assert sum(e for _, e in mono) == want


def test_occupancy_bound_under_application():
    n, labels = 3, (0, 0, 0, 0)
    for t in range(1, len(labels) + 1):
        image = apply_stack(scalar_spec(n, labels[:t]), CONVENTION, vacuum_state(n))
        assert max(max(s) for s in image) <= t


def test_same_label_layers_commute():
    conv = CONVENTION
    n, cutoff = 3, 4
    width = n * (n - 1) // 2
    for i in range(n + 1):
        plan = _layer_plan(n, i, conv)
        for state in itertools.product(range(cutoff - 1), repeat=width):
            seen = {}
            for first, second in (("x", "y"), ("y", "x")):
                acc = {}
                for (mid, a1), c1 in _sweep(plan, state, cutoff).items():
                    for (out, a2), c2 in _sweep(plan, mid, cutoff).items():
                        key = (out, a2, a1) if first == "x" else (out, a1, a2)
                        acc[key] = acc.get(key, 0) + c1 * c2
                seen[first] = {k: v for k, v in acc.items() if v}
            assert seen["x"] == seen["y"]


def test_per_site_binding_collapses_to_scalar():
    conv = CONVENTION
    n = 3
    z = Z[0]
    binding = {s: z for s in sites(n)}
    width = n * (n - 1) // 2
    for i in range(n + 1):
        for state in itertools.product(range(2), repeat=width):
            bar = apply_stack(PartitionSpec(n, [LayerSpec(i, binding)]), conv, state)
            hom = apply_stack(PartitionSpec(n, [LayerSpec(i, z)]), conv, state)
            shift = LaurentPoly.var(z) ** -i
            assert bar == {s: c * shift for s, c in hom.items()}


def test_configuration_listing():
    rows = enumerate_configurations(scalar_spec(4, (3, 3, 1)))
    assert rows == term_configurations(scalar_spec(4, (3, 3, 1)), CONVENTION)
    assert len(rows) == 3
    weights = sorted(str(w) for _, w in rows)
    assert weights == sorted(["z1^3 z2^2 z3^2", "z1^3 z2^3 z3", "z1^2 z2^3 z3^2"])
    total = LaurentPoly.zero()
    for _, w in rows:
        total = total + w
    assert total == vev(scalar_spec(4, (3, 3, 1)))

    assert len(enumerate_configurations(scalar_spec(4, (1, 2, 3, 3, 4)))) == 1

    rows = enumerate_configurations(scalar_spec(2, (2,)))
    assert [str(w) for _, w in rows] == ["z1^2"]


def test_count_configurations_examples():
    assert count_configurations(scalar_spec(4, (4, 2, 1))) == 3
    assert count_configurations(scalar_spec(4, (1, 2, 3, 3, 4))) == 1


def test_count_configurations_refuses_derivative_layers():
    # the z1-derivative stack has one configuration, but its vev 2 z1 z2
    # sums to 2: a derivative's falling factorials are not a count
    spec = scalar_spec(3, (2, 1), derivs=(1, 0))
    assert vev(spec) == 2 * zmono(1, 1)
    for listing in (count_configurations, enumerate_configurations):
        with pytest.raises(ValueError, match="plain layers"):
            listing(spec)


def test_invalid_labels():
    with pytest.raises(InvalidLabels):
        scalar_spec(3, (4,))
    with pytest.raises(InvalidLabels):
        fixed_colors(3, -1, CONVENTION)


def test_labels_and_derivative_orders_must_be_ints():
    # a label's or an order's class must be int itself, as an occupancy's in
    # `_contract`: a float order reached the alphabet as a bare
    # AttributeError, and a bool or a float label was read as 1
    for labels, derivs in (((1,), (1.0,)), ((1,), (True,)), ((True,), None), ((1.0,), None)):
        with pytest.raises(ValueError, match="layer 1: label .* must be ints"):
            scalar_spec(3, labels, derivs=derivs)
    with pytest.raises(ValueError, match="layer 2: label 2.0 "):
        PartitionSpec(3, [LayerSpec(1, Z[0]), LayerSpec(2.0, site_binding(3, 2))])
    with pytest.raises(ValueError, match="layer 2: negative derivative order"):
        scalar_spec(3, (1, 2), derivs=(0, -1))
    assert vev(scalar_spec(3, (1,), derivs=(1,))) == LaurentPoly.one()


def test_stack_argument_errors():
    with pytest.raises(ValueError, match="layer 1: derivative"):
        PartitionSpec(2, [LayerSpec(0, {(1, 1): Z[0]}, 1)])
    # an empty stack has no operator to take a width from
    for spec, ket in ((scalar_spec(2, (0,)), (0, 0)), (scalar_spec(3, ()), (0, 0)),
                      (scalar_spec(2, ()), ())):
        with pytest.raises(ValueError, match="width"):
            apply_stack(spec, CONVENTION, ket)
    for ket in ((-1, 0, 0), (0.5, 0, 0)):
        with pytest.raises(ValueError, match="non-negative int"):
            apply_stack(scalar_spec(3, (2,)), CONVENTION, ket)


def test_bindings_are_checked_when_the_spec_is_built():
    # a site map lacking a site, or a binding that is neither a Var nor a
    # site map of Vars, is refused by name, before any contraction
    z = Z[0]
    with pytest.raises(ValueError, match=r"layer 1: site map binds no Var at site \(1, 2\)"):
        vev(PartitionSpec(3, [LayerSpec(1, {(1, 1): z})]))
    partial = dict(site_binding(3, 2))
    del partial[(2, 1)]
    with pytest.raises(ValueError, match=r"layer 2: .* site \(2, 1\)"):
        PartitionSpec(3, [LayerSpec(1, z), LayerSpec(0, partial)])
    for binding in (LaurentPoly.var(z) + 1, 2, "z1"):
        with pytest.raises(ValueError, match="layer 2: binding .* neither a Var nor a site map"):
            PartitionSpec(3, [LayerSpec(1, z), LayerSpec(1, binding)])
    polys = {**site_binding(3, 1), (1, 1): LaurentPoly.var(z)}
    with pytest.raises(ValueError, match=r"layer 1: site map binds no Var at site \(1, 1\)"):
        PartitionSpec(3, [LayerSpec(1, polys)])


def test_checked_layers_cannot_be_reassigned():
    # a binding reassigned after PartitionSpec checked it would reach the
    # contraction unchecked and fail there with a bare KeyError
    spec = scalar_spec(3, (1,))
    layer = spec.layers[0]
    for name, value in (("binding", {(1, 1): Z[0]}), ("label", 5), ("deriv", -1), ("other", 0)):
        with pytest.raises(AttributeError, match="cannot assign to LayerSpec"):
            setattr(layer, name, value)
    with pytest.raises(AttributeError, match="cannot delete LayerSpec"):
        del layer.deriv
    assert layer == LayerSpec(1, Z[0]) and vev(spec) == zmono(1)


def test_checked_site_map_is_the_layers_own():
    # the caller's dict, changed after PartitionSpec checked it, would reach
    # the contraction unchecked and fail there with a bare KeyError
    binding = site_binding(3, 1)
    spec = PartitionSpec(3, [LayerSpec(1, binding)])
    del binding[(1, 2)]
    assert spec.layers[0].binding == site_binding(3, 1)
    assert vev(spec) == vev(inhomogeneous_spec(3, (1,)))
    with pytest.raises(ValueError, match="configuration counting needs plain layers"):
        count_configurations(scalar_spec(3, (1,), derivs=(1,)))


def test_derivative_layer():
    # <O|X_2(z1)X_1(z2)|O> = z1^2 z2, so the z1-derivative layer gives 2 z1 z2
    base = vev(scalar_spec(3, (2, 1)))
    assert base == zmono(2, 1)
    hat = vev(scalar_spec(3, (2, 1), derivs=(1, 0)))
    assert hat == base.derivative(Z[0])


def test_layer_action_on_vacuum_n4():
    ket = apply_stack(scalar_spec(4, (1,)), CONVENTION, vacuum_state(4))
    z = LaurentPoly.var(Z[0])
    # site order (1,1),(1,2),(1,3),(2,1),(2,2),(3,1)
    assert ket == {
        (0, 0, 0, 0, 0, 0): z,
        (0, 1, 0, 0, 0, 0): z ** 2,
        (0, 0, 0, 0, 1, 0): z ** 2,
        (0, 0, 1, 0, 1, 0): z ** 3,
    }


def test_chain_entry_examples():
    one = LaurentPoly.one()
    T1 = term_T([col_var(1, 1)])
    assert T1((0,), 1, (0,), 1) == [(one, (LocalOp.T_PROJ,))]
    assert T1((1,), 0, (0,), 1) == [(LaurentPoly.var(col_var(1, 1)), (LocalOp.B_PLUS,))]
    T2 = term_T(row_vars(1, 2))
    assert T2((0, 0), 0, (0, 0), 0) == [(one, (LocalOp.ID_B, LocalOp.ID_B))]
    # chain-inconsistent boundary: nothing survives for either top output
    assert T2((1, 0), 0, (0, 1), 0) == []
    assert T2((1, 0), 0, (0, 1), 1) == []


def test_column_operator_tables_width2():
    z1, z2 = (LaurentPoly.var(v) for v in row_vars(1, 2))
    expected = {
        0: {
            (LocalOp.ID_R, LocalOp.ID_R): LaurentPoly.one(),
            (LocalOp.B_MINUS, LocalOp.ID_R): z1 ** -1,
        },
        1: {
            (LocalOp.ID_B, LocalOp.B_MINUS): z2 ** -1,
            (LocalOp.B_PLUS, LocalOp.B_MINUS): z1 * z2 ** -1,
            (LocalOp.T_PROJ, LocalOp.ID_R): LaurentPoly.one(),
        },
        2: {
            (LocalOp.ID_B, LocalOp.ID_B): LaurentPoly.one(),
            (LocalOp.B_PLUS, LocalOp.ID_B): z1,
            (LocalOp.T_PROJ, LocalOp.B_PLUS): z2,
        },
    }
    for ell, table in expected.items():
        assert {ops: c for c, ops in term_Y(ell, 2, row_vars(1, 2))} == table
        terms = [(c, ops) for ops, c in table.items()]
        for state in itertools.product(range(3), repeat=2):
            assert (strip_image(ell, row_vars(1, 2), state)
                    == term_apply_strip(terms, {state: LaurentPoly.one()}, 3)), (ell, state)


def test_top_column_operator_fixes_vacuum():
    for m in (1, 2, 3):
        layer = (m, row_vars(1, m))
        assert strip_vev([layer], (0,) * m, (0,) * m) == LaurentPoly.one()


def test_projected_first_column_operator():
    # pairing the top slot: <0^k| Y_0 |0>_1 acts as <0^(k-1)| on the rest,
    # and <0^k| Y_0 |1>_1 as (z^(1))^-1 <0^(k-1)|
    for k in (2, 3):
        layer = (0, row_vars(1, k))
        zinv = LaurentPoly.var(col_var(1, 1)) ** -1
        for rest in itertools.product(range(2), repeat=k - 1):
            hit = LaurentPoly.one() if not any(rest) else LaurentPoly.zero()
            assert strip_vev([layer], (0,) * k, (0,) + rest) == hit
            assert strip_vev([layer], (0,) * k, (1,) + rest) == hit * zinv


def test_reduction_to_one_column():
    for n, extra in ((3, 0), (3, 1), (4, 0)):
        labels = list(range(n, 1, -1)) + [0] * (extra + 1)
        lhs = vev(inhomogeneous_spec(n, labels))
        m = n - 1
        layers = [(min(t - 1, m), row_vars(t, m)) for t in range(1, len(labels) + 1)]
        rhs = strip_vev(layers, (0,) * m, (0,) * m)
        assert lhs == rhs


def test_strip_sweep_matches_term_route():
    for m in range(1, 5):
        for ell in range(m + 1):
            rv = row_vars(1, m)
            terms = term_Y(ell, m, rv)
            for state in itertools.product(range(3), repeat=m):
                assert (strip_image(ell, rv, state)
                        == term_apply_strip(terms, {state: LaurentPoly.one()}, 3)), \
                    (m, ell, state)
    # two-layer stacks Y_ell1(z_1) Y_ell2(z_2) between bras and kets with
    # occupancies up to 2, plain and with the gap projected on the top slot
    for m in range(1, 4):
        for ell1, ell2 in itertools.product(range(m + 1), repeat=2):
            layers = [(ell1, row_vars(1, m)), (ell2, row_vars(2, m))]
            term_layers = [term_Y(ell, m, rv) for ell, rv in layers]
            for bra in itertools.product(range(3), repeat=m):
                for ket in itertools.product(range(3), repeat=m):
                    for proj in (None, {1: (0, ket[0])}, {1: (0, bra[0])}):
                        assert (strip_vev(layers, bra, ket, proj)
                                == term_strip_vev(term_layers, bra, ket, proj)), \
                            (m, ell1, ell2, bra, ket, proj)
    # two layers sharing their row variables, on both sides of one layer
    # whose row variables are all one Var: several indices in one exponent slot
    m, rv, w = 2, row_vars(1, 2), [col_var(2, 1)] * 2
    for ells in itertools.product(range(m + 1), repeat=3):
        layers = list(zip(ells, (rv, w, rv)))
        term_layers = [term_Y(ell, m, vs) for ell, vs in layers]
        for bra in itertools.product(range(3), repeat=m):
            for ket in itertools.product(range(3), repeat=m):
                assert (strip_vev(layers, bra, ket)
                        == term_strip_vev(term_layers, bra, ket)), (ells, bra, ket)


def test_strip_overflow_at_cutoff():
    rv = row_vars(1, 2)
    # Y_2 on width 2: b+ on slot 2 comes with t on slot 1; with slot 1 empty
    # the raise survives, so slot 2 at the cutoff overflows
    with pytest.raises(CutoffOverflow):
        _sweep(_column_plan(2, 2), (0, 2), 2)
    # with slot 1 occupied t kills that branch after the raise: no overflow
    assert _sweep(_column_plan(2, 2), (1, 2), 2) == {((1, 2), 0): 1, ((2, 2), 0): 1}
    z1 = LaurentPoly.var(rv[0])
    assert strip_image(2, rv, (1, 2)) == {(1, 2): LaurentPoly.one(), (2, 2): z1}
    with pytest.raises(ValueError):
        _column_plan(3, 2)
    # a width-0 strip is refused by name, not left to fail inside the engine;
    # an empty stack is the identity
    with pytest.raises(ValueError, match="width m >= 1"):
        _column_plan(0, 0)
    with pytest.raises(ValueError, match="width m >= 1"):
        strip_vev([(0, [])], (), ())
    assert strip_vev([], (), ()) == LaurentPoly.one()


def test_strip_width_mismatch():
    z = col_var(1, 1)
    with pytest.raises(ValueError):
        strip_vev([(1, [z])], (1, 5), (0, 5))
    with pytest.raises(ValueError):
        strip_vev([(1, [z])], (1, 5), (0,))
    with pytest.raises(ValueError):
        strip_vev([(1, [z]), (1, row_vars(2, 2))], (0,), (0,))
    with pytest.raises(ValueError, match="strip layer 2: every row variable must be a Var"):
        strip_vev([(1, [z]), (0, [LaurentPoly.var(z)])], (0,), (0,))
    # an occupancy that is negative or not an int is refused too
    for state in ((0, -1), (0.5, 0), (True, 0)):
        with pytest.raises(ValueError, match="non-negative int"):
            strip_vev([(1, row_vars(1, 2))], state, state)


def test_strip_projections_are_checked():
    # a gap outside 1..r-1 or a slot outside the strip is refused, not
    # ignored, read from the end or left to fail inside the engine
    layers = [(0, row_vars(1, 2)), (1, row_vars(2, 2))]
    for proj in ({7: (0, 0)}, {0: (0, 0)}, {2: (0, 0)}, {1: (5, 0)}, {1: (2, 0)},
                 {1: (-1, 0)}):
        with pytest.raises(ValueError, match="projection"):
            strip_vev(layers, (0, 0), (0, 0), proj)
    # so is an occupancy that is negative or whose class is not int: 1.0 and
    # True would read as 1, -1 and "1" would match no state
    for m in (1.0, True, -1, "1"):
        with pytest.raises(ValueError, match="projection at gap 1, slot 0, occupancy"):
            strip_vev(verify._column_layers(3, 4), (0, 0, 0), (0, 0, 0), {1: (0, m)})
    for slot in (0, 1):
        proj = {1: (slot, 1)}
        assert strip_vev(layers, (0, 0), (0, 1), proj) == term_strip_vev(
            [term_Y(ell, 2, rv) for ell, rv in layers], (0, 0), (0, 1), proj)


@st.composite
def strip_products(draw):
    """(layers, bra, ket, projections): widths 1-5, 1-7 layers of any ells
    on three row-variable families, states in {0,1,2}^m, and up to two
    projections onto occupancies 0-2."""
    m = draw(st.integers(1, 5), label="m")
    r = draw(st.integers(1, 7), label="r")
    layers = [(draw(st.integers(0, m), label="ell"), row_vars(draw(st.integers(1, 3)), m))
              for _ in range(r)]
    state = st.tuples(*[st.integers(0, 2)] * m)
    projections = draw(st.dictionaries(
        st.integers(1, max(r - 1, 1)), st.tuples(st.integers(0, m - 1), st.integers(0, 2)),
        max_size=2 if r > 1 else 0), label="projections")
    return layers, draw(state, label="bra"), draw(state, label="ket"), projections or None


@settings(max_examples=100, deadline=None)
@given(strip_products())
# ells 1 and 3 at width 5: the bra side closes their transposes in one sweep
@example(([(1, row_vars(1, 5)), (3, row_vars(2, 5)), (5, row_vars(3, 5))],
          (0, 1, 0, 0, 0), (0,) * 5, None))
@example(([(2, row_vars(1, 3)), (0, row_vars(2, 3)), (3, row_vars(1, 3)), (1, row_vars(3, 3))],
          (1, 0, 2), (0, 1, 1), {2: (1, 1)}))
# bras far above the ket: the bra side's transposes raise occupancies from
# the bra, so the cutoff must count from the bra too
@example(([(ell, row_vars(1, 1)) for ell in (0, 0, 1, 0)], (6,), (1,), None))
@example(([(ell, row_vars(1, 1)) for ell in (0, 1, 0, 1, 0)], (6,), (0,), None))
@example(([(ell, row_vars(1, 2)) for ell in (0, 1, 0, 1, 1)], (6, 1), (1, 1), None))
def test_two_sided_strip_vev_is_the_bra_entry_of_the_ket_side(product):
    # the two-sided contraction against the ket side alone, which sweeps no
    # transpose (`test_strip_sweep_matches_term_route` checks both against
    # the term lists)
    layers, bra, ket, projections = product
    assert strip_vev(layers, bra, ket, projections) == one_sided_strip_vev(
        layers, bra, ket, projections)


def test_strips_cross_and_close_two_ells_in_one_sweep(monkeypatch):
    # a strip product with a bra runs rounds on both sides, and its last two
    # steps close in one two-plan sweep even where one plan branches on a
    # stub the other pins: at width 5, Y_3 sums the horizontal inputs of
    # slots 1-4, Y_1 only those of slots 1-2.  Plans are told apart by
    # their initial colors, which `_with_units` keeps
    m = 5
    known = {_column_plan(ell, m, reverse)[0]: (ell, reverse)
             for ell in range(m + 1) for reverse in (False, True)}
    sweep_map, calls = network._sweep_map, []

    def recording(layers, *args):
        calls.append([known[plan[0]] for plan, _ in layers])
        return sweep_map(layers, *args)

    monkeypatch.setattr(network, "_sweep_map", recording)
    vac = (0,) * m
    for ells, bra, rounds in (
            ((1, 3), vac, [[(3, False), (1, False)]]),
            ((1, 3, 5), vac, [[(5, False)], [(1, True), (3, True)]]),
            ((3, 1, 5), (0, 1, 0, 0, 0), [[(5, False)], [(3, True), (1, True)]]),
            # with the ket side at 6 states, the next round is predicted:
            # the recorder also sees the two probes of the zero state, of
            # Y_2's transpose (2 states) and of Y_4 (1 state), and the bra
            # side, predicted at 4 states against 6, moves
            ((1, 2, 3, 4, 5), vac, [[(5, False)], [(1, True)], [(2, True)], [(4, False)],
                                    [(2, True)], [(3, True), (4, True)]])):
        layers = [(ell, row_vars(t, m)) for t, ell in enumerate(ells, start=1)]
        # no fan-out is known before the product, so every probe runs
        monkeypatch.setattr(network, "_FANOUT", {})
        calls.clear()
        got = strip_vev(layers, bra, vac)
        assert calls == rounds, ells
        assert got == one_sided_strip_vev(layers, bra, vac) != 0, ells


def test_fanout_is_the_size_of_the_zero_states_image(monkeypatch):
    # f, the number of states a plan takes the zero state to, against the
    # engine without a bra: a plan's image of the zero state, and for the
    # transpose the 0/1 kets whose image holds the zero state (one operator
    # changes an occupancy by at most one)
    monkeypatch.setattr(network, "_FANOUT", {})
    for n in (2, 3, 4):
        zero = vacuum_state(n)
        kets = list(itertools.product((0, 1), repeat=len(zero)))
        for conv in all_conventions():
            for i in range(n + 1):
                spec = scalar_spec(n, (i,))
                plan_of = functools.partial(_layer_plan, n, i, conv)
                assert _fanout(plan_of, False) == len(apply_stack(spec, conv, zero))
                assert _fanout(plan_of, True) == sum(zero in apply_stack(spec, conv, ket)
                                                     for ket in kets)
    for m in range(1, 5):
        zero = (0,) * m
        kets = list(itertools.product((0, 1), repeat=m))
        for ell in range(m + 1):
            plan_of = functools.partial(_column_plan, ell, m)
            assert _fanout(plan_of, False) == len(strip_image(ell, row_vars(1, m), zero))
            assert _fanout(plan_of, True) == sum(zero in strip_image(ell, row_vars(1, m), ket)
                                                 for ket in kets)


def test_fanout_seeded_by_a_round_equals_the_probe(monkeypatch):
    # the first round of each side of these products sweeps the zero state
    # alone and fills in the fan-out of its plan; the next round closes, so
    # nothing is probed.  A probe from an empty memo gives the same values
    conv = MULTI
    for run, seeded in (
            (lambda: vev(inhomogeneous_spec(4, (4, 3, 0, 0)), conv),
             {(_layer_plan, (4, 0, conv), False), (_layer_plan, (4, 4, conv), True)}),
            (lambda: strip_vev([(ell, row_vars(t, 4)) for t, ell in enumerate((0, 2, 3, 4))],
                               (0,) * 4, (0,) * 4),
             {(_column_plan, (4, 4), False), (_column_plan, (0, 4), True)})):
        memo = {}
        monkeypatch.setattr(network, "_FANOUT", memo)
        run()
        assert set(memo) == seeded
        for (func, args, reverse), f in memo.items():
            monkeypatch.setattr(network, "_FANOUT", {})
            assert _fanout(functools.partial(func, *args), reverse) == f


# -- the site sweep against the term route ---------------------------------

def term_moves(n, i, conv, state, cutoff):
    """(out_state, alpha) multiset of the colorings that survive on `state`."""
    moves = Counter()
    for term in enumerate_layer_terms(n, i, conv):
        out = term_image(term, state, cutoff)
        if out is not None:
            moves[(out, term.alpha)] += 1
    return moves


def term_configurations(spec, conv):
    """The configuration rows of a scalar spec by the term route: every
    coloring of each layer, right to left from the vacuum, one row per path
    back to the vacuum, weighted by prod_t binding_t ** alpha_t; sorted."""
    n, cutoff = spec.n, len(spec.layers)
    vac = vacuum_state(n)
    paths = {vac: Counter({(): 1})}  # state -> Counter(alphas of the layers so far)
    for layer in reversed(spec.layers):
        reached = {}
        for state, tails in paths.items():
            for (out, alpha), mult in term_moves(n, layer.label, conv, state, cutoff).items():
                acc = reached.setdefault(out, Counter())
                for tail, c in tails.items():
                    acc[(alpha,) + tail] += c * mult
        paths = reached
    rows = []
    for alphas, count in sorted(paths.get(vac, Counter()).items()):
        weight = LaurentPoly.one()
        for layer, a in zip(spec.layers, alphas):
            weight = weight * as_poly(layer.binding) ** a
        rows.extend([(alphas, weight)] * count)
    return rows


def test_sweep_matches_term_kernel():
    default = CONVENTION
    cases = [(n, conv, 3) for n in (2, 3) for conv in all_conventions()]
    cases += [(4, default, 3), (5, default, 2)]
    for n, conv, levels in cases:
        for state in itertools.product(range(levels), repeat=n * (n - 1) // 2):
            for i in range(n + 1):
                got = _sweep(_layer_plan(n, i, conv), state, 3)
                assert got == term_moves(n, i, conv, state, 3), (n, conv, i, state)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sweep_map_matches_one_state_at_a_time(data):
    # one sweep of a whole map, its states read as a trie, against each
    # state on its own: the coloring list for a layer, `_sweep` for its
    # transpose.  Each move adds alpha << offset to its state's keys; with
    # `onto` only moves onto those states count
    n = data.draw(st.integers(2, 4), label="n")
    conv = data.draw(st.sampled_from(all_conventions()), label="conv")
    i = data.draw(st.integers(0, n), label="i")
    reverse = data.draw(st.booleans(), label="reverse")
    box = list(itertools.product(range(3), repeat=n * (n - 1) // 2))
    states = data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=12, unique=True),
                       label="states")
    counts = st.dictionaries(st.integers(-8, 8), st.integers(1, 3), min_size=1, max_size=3)
    side = {state: data.draw(counts, label="counts") for state in states}
    offset = data.draw(st.sampled_from((0, 5)), label="offset")
    onto = data.draw(st.none() | st.lists(st.sampled_from(box), min_size=1, unique=True),
                     label="onto")
    plan = _layer_plan(n, i, conv, reverse)
    expected = {}
    for state, coeff in side.items():
        moves = _sweep(plan, state, 4) if reverse else cached_term_moves(n, i, conv, state, 4)
        for (out, alpha), mult in moves.items():
            if onto is not None and out not in onto:
                continue
            acc = expected.setdefault(out, Counter())
            for key, c in coeff.items():
                acc[key + (alpha << offset)] += c * mult
    assert _sweep_map([(plan, offset)], side, 4, onto) == {
        out: dict(acc) for out, acc in expected.items()}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_sweep_pair_is_two_sweeps_onto_the_other_side(data):
    # the two-layer close against two one-layer sweeps and the `onto`
    # filter: forward plans or transposes, each scalar (alpha at an offset)
    # or per-index (`_with_units`, units negated on transposes as in
    # `_contract`), on states and `onto` states reached from the vacuum
    n = data.draw(st.integers(2, 4), label="n")
    conv = data.draw(st.sampled_from(all_conventions()), label="conv")
    reverse = data.draw(st.booleans(), label="reverse")
    width = n * (n - 1) // 2
    units = tuple((-1 if reverse else 1) << (6 * p) for p in range(width))

    def moves(label):
        plan = _layer_plan(n, data.draw(st.integers(0, n), label=label), conv, reverse)
        if data.draw(st.booleans(), label=label + " per index"):
            return _with_units(plan, units), 0
        return plan, data.draw(st.sampled_from((0, 5, 40)), label=label + " offset")

    reached = {vacuum_state(n): {0: 1}}
    for _ in range(data.draw(st.integers(0, 2), label="depth")):
        reached = _sweep_map([(_layer_plan(n, data.draw(st.integers(0, n), label="prefix"), conv,
                                           reverse), 0)], reached, 4) or reached
    pool = sorted(reached)
    states = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True),
                       label="states")
    counts = st.dictionaries(st.integers(-8, 8), st.integers(1, 3), min_size=1, max_size=3)
    side = {state: data.draw(counts, label="counts") for state in states}
    first, second = moves("first"), moves("second")
    cutoff = max(map(max, side)) + 2
    full = _sweep_map([second], _sweep_map([first], side, cutoff), cutoff)
    # some of the states both layers reach, and some they may not
    onto = set(data.draw(st.lists(st.sampled_from(pool), max_size=4), label="onto"))
    if full:
        onto.update(data.draw(st.lists(st.sampled_from(sorted(full)), min_size=1),
                              label="onto reached"))
    assert _sweep_map([first, second], side, cutoff, onto=onto) == {
        state: coeff for state, coeff in full.items() if state in onto}


def test_sweep_pair_reads_the_occupancy_between_the_layers():
    # every state of the box {0,1,2}^w at once, every reading, both
    # directions and every label pair: the second table must read the
    # occupancy the first leaves, also where that is still 2 or more.  At
    # n = 2 labels 2 then 1 take (2,) through (1,) and kill it there, so a
    # second table read at min(m, 1) + delta would keep (1,)
    for n in (2, 3):
        width = n * (n - 1) // 2
        box = list(itertools.product(range(3), repeat=width))
        side = {state: {j << 10: 1} for j, state in enumerate(box)}
        onto = set(box)
        for conv in all_conventions():
            for reverse in (False, True):
                for a, b in itertools.product(range(n + 1), repeat=2):
                    first, second = ((_layer_plan(n, a, conv, reverse), 0),
                                     (_layer_plan(n, b, conv, reverse), 5))
                    full = _sweep_map([second], _sweep_map([first], side, 4), 4)
                    assert _sweep_map([first, second], side, 4, onto=onto) == {
                        state: coeff for state, coeff in full.items() if state in onto
                    }, (n, conv, reverse, a, b)
    # column plans of one width and direction, any two ells: one plan may
    # branch on a horizontal input the other pins
    for m in (1, 2, 3, 4):
        box = list(itertools.product(range(3), repeat=m))
        side = {state: {j << 20: 1} for j, state in enumerate(box)}
        onto = set(box)
        for reverse in (False, True):
            units = tuple((-1 if reverse else 1) << (4 * p) for p in range(m))
            for a, b in itertools.product(range(m + 1), repeat=2):
                first, second = ((_with_units(_column_plan(ell, m, reverse), units), 0)
                                 for ell in (a, b))
                full = _sweep_map([second], _sweep_map([first], side, 4), 4)
                assert _sweep_map([first, second], side, 4, onto=onto) == {
                    state: coeff for state, coeff in full.items() if state in onto
                }, (m, reverse, a, b)
    # two plans sweep only onto given states
    with pytest.raises(ValueError):
        _sweep_map([first, second], side, 4)


def test_sweep_pair_refuses_plans_whose_site_steps_differ():
    # two plans pair only where their site steps agree in occupancy index
    # and all four slots, in one order, with no site left over on either
    # side, and where their residual colors agree: a forward and a reverse
    # layer plan, a layer and a column plan, a plan and itself with one
    # site field bent or one site cut off, and one layer of the same frame
    # under residual "sum" and "zero"
    box = list(itertools.product(range(2), repeat=3))
    side, onto = {state: {0: 1} for state in box}, set(box)
    fwd, rev = _layer_plan(3, 2, CONVENTION), _layer_plan(3, 1, CONVENTION, True)
    column = _column_plan(1, 3)
    cut = column[:1] + (column[1][:-1],) + column[2:]
    colors, steps, residual, order = fwd
    site = next(k for k, step in enumerate(steps) if step[0] >= 0)
    bent = []
    for field in range(5):
        step = list(steps[site])
        step[field] += 1
        bent.append((colors, steps[:site] + (tuple(step),) + steps[site + 1:], residual, order))
    summed, pinned = (_layer_plan(3, 1, Convention("we", "staircase", residual, "north"))
                      for residual in ("sum", "zero"))
    pairs = [(fwd, rev), (rev, fwd), (fwd, column), (column, fwd), (column, cut), (cut, column),
             (summed, pinned), (pinned, summed)]
    for first, second in pairs + [(fwd, plan) for plan in bent]:
        with pytest.raises(ValueError, match="two plans pair only where their site steps"):
            _sweep_map([(first, 0), (second, 4)], side, 5, onto=onto)
    # without the check the first pair gave {}, where two one-plan sweeps
    # reach the box
    two = _sweep_map([(rev, 4)], _sweep_map([(fwd, 0)], side, 5), 5)
    assert {state: coeff for state, coeff in two.items() if state in onto} == {
        (0, 0, 0): {18: 1, 17: 1}}


def test_column_reverse_plan_sweeps_the_transpose():
    # for every 0 <= ell <= m <= 4, on the box {0,1,2}^m, the reverse column
    # plan's moves are the forward moves turned around, with multiplicity,
    # and nothing else; with negated units (`_with_units`) they sum the same
    # packed shift from the out-state back to the in-state
    for m in range(1, 5):
        box = list(itertools.product(range(3), repeat=m))
        units = tuple(1 << (8 * p) for p in range(m))
        for ell in range(m + 1):
            for fwd_units, back_units in ((None, None), (units, tuple(-u for u in units))):
                fwd = transposed_moves(_column_plan(ell, m), box, 3, fwd_units)
                back = transposed_moves(_column_plan(ell, m, True), box, 3, back_units)
                assert {(s, out, a): mult for (out, s, a), mult in back.items()} == fwd, (m, ell)


TRANSPOSE = {LocalOp.B_PLUS: LocalOp.B_MINUS, LocalOp.B_MINUS: LocalOp.B_PLUS,
             LocalOp.T_PROJ: LocalOp.T_PROJ, LocalOp.ID_B: LocalOp.ID_B,
             LocalOp.ID_R: LocalOp.ID_R}


def test_r0_is_its_own_transpose_against_the_flow():
    # read from its outputs to its inputs, R0 is R0 with b+ and b- swapped
    r0 = {edges: op for edges, (_, op) in local_tensor(TensorKind.R0).items()}
    assert {(aa, bb, ii, jj): TRANSPOSE[op] for (ii, jj, aa, bb), op in r0.items()} == r0
    # so on every site table, a hit read back from the occupancy it leaves,
    # on the table pinning the hit's inputs, returns its inputs and undoes
    # its occupancy change
    for h_fixed, v_fixed in itertools.product((None, 0, 1), repeat=2):
        for j, hit in enumerate(_site_table(h_fixed, v_fixed, False, False)):
            if hit is None:
                continue
            h, v = j >> 2, j >> 1 & 1
            aa, bb, delta, _ = hit
            for m in ((1, 2) if j & 1 else (0,)):
                back = _site_table(h, v, False, False)[4 * aa + 2 * bb + (m + delta > 0)]
                assert back == (h, v, -delta, 0), (h_fixed, v_fixed, j, m)


def transposed_moves(plan, states, cutoff, units=None):
    """(state swept, state reached, alpha) -> multiplicity of `plan`'s moves
    between members of `states`; `units` as in `_with_units`."""
    if units is not None:
        plan = _with_units(plan, units)
    moves = {}
    for state in states:
        for (out, alpha), mult in _sweep(plan, state, cutoff).items():
            if max(out) < cutoff:
                moves[state, out, alpha] = mult
    return moves


def test_reverse_plan_sweeps_the_transpose():
    # on the box {0,1,2}^w for n <= 4 and every reading, the reverse plan's
    # moves are the forward moves turned around, with alpha and
    # multiplicity.  The same loop records the largest multiplicity: the
    # "columns" reading with residual "sum" maps one (in, out, alpha) by
    # several colorings, every other reading by one
    top = Counter()
    for n in (2, 3, 4):
        box = list(itertools.product(range(3), repeat=n * (n - 1) // 2))
        for conv in all_conventions():
            for i in range(n + 1):
                fwd = transposed_moves(_layer_plan(n, i, conv), box, 3)
                back = transposed_moves(_layer_plan(n, i, conv, True), box, 3)
                assert {(s, out, a): m for (out, s, a), m in back.items()} == fwd, (n, conv, i)
                family = (n, conv.boundary, conv.residual)
                top[family] = max(top[family], *fwd.values())
    assert top == {(n, b, r): 2 ** (n - 2) if (b, r) == ("columns", "sum") else 1
                   for n in (2, 3, 4) for b in ("staircase", "columns") for r in ("sum", "zero")}
    # per-index shifts: the reverse plan with negated units sums the same
    # packed shift from the out-state back to the in-state
    for n in (2, 3):
        width = n * (n - 1) // 2
        box = list(itertools.product(range(3), repeat=width))
        units = tuple(1 << (8 * p) for p in range(width))
        for conv in all_conventions():
            for i in range(n + 1):
                fwd = transposed_moves(_layer_plan(n, i, conv), box, 3, units)
                back = transposed_moves(_layer_plan(n, i, conv, True), box, 3,
                                        tuple(-u for u in units))
                assert {(s, out, a): m for (out, s, a), m in back.items()} == fwd, (n, conv, i)


@functools.lru_cache(maxsize=None)
def cached_term_moves(n, i, conv, state, cutoff):
    return term_moves(n, i, conv, state, cutoff)


def term_product_map(n, conv, outer, inner, state, cutoff, moves=cached_term_moves):
    """X_outer(u) X_inner(v) |state> by the coloring list: (out_state, e_u,
    e_v) -> count.  `moves` is `term_moves` or a stand-in for it."""
    acc = Counter()
    for (mid, a_in), c_in in moves(n, inner, conv, state, cutoff).items():
        for (out, a_out), c_out in moves(n, outer, conv, mid, cutoff).items():
            acc[(out, a_out, a_in)] += c_in * c_out
    return acc


def term_zf_sides(n, conv, i, j, state, cutoff, moves=cached_term_moves):
    """Both sides of the exchange relation for (i, j) on `state` by the
    coloring list, keyed (out_state, e_x, e_y)."""
    lhs = term_product_map(n, conv, i, j, state, cutoff, moves)
    rhs = Counter()
    # X_i(y) X_j(x), times x/y when i > j
    shift = 1 if i > j else 0
    for (out, a_out, a_in), c in lhs.items():
        rhs[(out, a_in + shift, a_out - shift)] += c
    if i < j:
        # + (1 - x/y) X_j(y) X_i(x)
        for (out, a_out, a_in), c in term_product_map(n, conv, j, i, state, cutoff,
                                                      moves).items():
            rhs[(out, a_in, a_out)] += c
            rhs[(out, a_in + 1, a_out - 1)] -= c
    return dict(lhs), {k: c for k, c in rhs.items() if c}


def term_zf_report(n, conv, pair, cutoff, moves=cached_term_moves):
    """`(passed, detail)` of `verify.check_zf` by the coloring list: the
    first ket of the box, in product order, whose sides differ, with the
    first key they differ at."""
    for state in itertools.product(range(cutoff - 1), repeat=n * (n - 1) // 2):
        lhs, rhs = term_zf_sides(n, conv, *pair, state, cutoff, moves)
        diff = sorted(k for k in lhs.keys() | rhs.keys() if lhs.get(k, 0) != rhs.get(k, 0))
        if diff:
            return False, {"state": state, "vars": ("x", "y"), "key": diff[0],
                           "lhs": lhs.get(diff[0], 0), "rhs": rhs.get(diff[0], 0),
                           "diff_terms": len(diff)}
    return True, {}


def zf_sets(state):
    """The `mask` and `ones` that `verify._zf_sides` reads: bit 3 p for
    each occupied index p, and for each index holding exactly one."""
    return (sum(1 << 3 * p for p, m in enumerate(state) if m > 0),
            sum(1 << 3 * p for p, m in enumerate(state) if m == 1))


def test_zf_sides_match_term_route():
    conv = CONVENTION
    # the resolved reading, and one whose moves have multiplicities above 1
    cases = [(n, (i, j), c) for n in (2, 3) for i in range(n + 1) for j in range(n + 1)
             for c in (conv, MULTI)]
    cases.append((4, (1, 3), conv))
    for n, (i, j), conv in cases:
        tables = verify._zf_tables(n, conv, (i, j))
        for state in itertools.product(range(3), repeat=n * (n - 1) // 2):
            sides = verify._zf_sides(tables, i, j, state, 4, *zf_sets(state))
            got = tuple({verify._zf_key(state, k): c for k, c in side.items()}
                        for side in sides)
            assert got == term_zf_sides(n, conv, i, j, state, 4), (n, (i, j), conv, state)
    # a ket outside the box could raise an index past the cutoff
    with pytest.raises(ValueError, match="outside the ket box"):
        verify._zf_sides(verify._zf_tables(3, conv, (0, 3)), 0, 3, (0, 3, 0), 4,
                         *zf_sets((0, 3, 0)))


def test_failing_zf_reports_match_term_route():
    # under MULTI most relations fail, some with counts above 1: each
    # report names the ket, key and values the coloring list finds
    failed = 0
    for n in (2, 3):
        for pair in itertools.product(range(n + 1), repeat=2):
            r = verify.check_zf(n, pair, cutoff=4, convention=MULTI)
            assert (r.passed, r.detail) == term_zf_report(n, MULTI, pair, 4), (n, pair)
            failed += not r.passed
    assert failed == 20


def test_broken_zf_report_matches_term_route(monkeypatch):
    # one move of one layer on one occupied set gets an extra count, in the
    # move tables (as in tests/test_verify.py) and on the coloring list: the
    # failing report's ket, key and values are the coloring list's
    n, width, cutoff = 3, 3, 4
    pattern_moves = verify._pattern_moves
    failed = 0
    for label in range(n + 1):
        plan = _layer_plan(n, label, RESOLVED)
        for flags in itertools.product((0, 1), repeat=width):
            moves = cached_term_moves(n, label, RESOLVED, flags, cutoff)
            if not moves:
                continue
            out, alpha = min(moves)
            change = tuple(b - a for a, b in zip(flags, out))
            packed = sum(d << 3 * p for p, d in enumerate(change))
            mask = sum(1 << 3 * p for p, f in enumerate(flags) if f)

            def wrong(plan_, mask_, width_, plan=plan, mask=mask, packed=packed, alpha=alpha):
                got = pattern_moves(plan_, mask_, width_)
                if plan_ == plan and mask_ == mask:
                    got = tuple(m[:4] + (m[4] + 1,) if m[2:4] == (packed, alpha) else m
                                for m in got)
                return got

            def broken(n_, i, conv, state, cutoff_, label=label, flags=flags,
                       change=change, alpha=alpha):
                got = cached_term_moves(n_, i, conv, state, cutoff_)
                if i == label and tuple(int(m > 0) for m in state) == flags:
                    got = got.copy()
                    got[tuple(m + d for m, d in zip(state, change)), alpha] += 1
                return got

            monkeypatch.setattr(verify, "_pattern_moves", wrong)
            for other in range(n + 1):
                for pair in {(label, other), (other, label)}:
                    r = verify.check_zf(n, pair, cutoff=cutoff, convention=RESOLVED)
                    assert (r.passed, r.detail) == term_zf_report(
                        n, RESOLVED, pair, cutoff, broken), (label, flags, pair)
                    failed += not r.passed
    assert failed


def test_sweep_overflow_at_cutoff():
    # label 0 at n = 2: 1b or b+ on the single site; b+ at the cutoff overflows
    with pytest.raises(CutoffOverflow):
        _sweep(_layer_plan(2, 0, CONVENTION), (2,), 2)
    # label 2 only lowers or keeps, so a full site is fine
    assert _sweep(_layer_plan(2, 2, CONVENTION), (2,), 2)
    # the two-layer close raises for a surviving move of either layer, and
    # only for one that reaches the other side
    raises, keeps = (_layer_plan(2, 0, CONVENTION), 0), (_layer_plan(2, 2, CONVENTION), 0)
    full = {(2,): {0: 1}}
    for first, second in ((raises, raises), (raises, keeps), (keeps, raises)):
        with pytest.raises(CutoffOverflow):
            _sweep_map([first, second], full, 2, onto=[(2,), (3,), (4,)])
    assert _sweep_map([raises, raises], full, 2, onto=[(2,)]) == {(2,): {0: 1}}
    assert _sweep_map([keeps, keeps], full, 2, onto=[(0,), (1,), (2,)])


def test_derivative_reads_its_field_over_negative_lower_fields():
    # one site map on both sides of a derivative layer takes the lower
    # exponent slots, and a lowering move there leaves them negative when the
    # derivative reads the slot of its variable above them
    n = 3
    site_map = site_binding(n, 1)
    for labels in itertools.product(range(n + 1), repeat=3):
        spec = PartitionSpec(n, [LayerSpec(labels[0], site_map), LayerSpec(labels[1], Z[0], 1),
                                 LayerSpec(labels[2], site_map)])
        for state in itertools.product((0, 1), repeat=3):
            ket = {state: LaurentPoly.one()}
            for layer in reversed(spec.layers):
                ket = term_apply_layer(n, enumerate_layer_terms(n, layer.label, CONVENTION),
                                       layer.binding, layer.deriv, ket, max(state) + 3)
            assert apply_stack(spec, CONVENTION, state) == ket, (labels, state)


@st.composite
def small_stacks(draw, max_n=5):
    """Stacks at n <= max_n (depth <= 3 from n = 5) of per-site layers and
    scalar layers whose variables come from a pool of three, so layers share
    them, with derivative orders 0..2.  A per-site layer sometimes reuses an
    earlier layer's site map, so two per-index steps add into the same
    exponent slots."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    depth = draw(st.integers(min_value=1, max_value=3 if n >= 5 else 4))
    layers = []
    site_maps = []
    for t in range(1, depth + 1):
        label = draw(st.integers(min_value=0, max_value=n))
        if draw(st.booleans()):
            if site_maps and draw(st.booleans()):
                binding = draw(st.sampled_from(site_maps))
            else:
                binding = site_binding(n, t)
                site_maps.append(binding)
            layers.append(LayerSpec(label, binding))
        else:
            layers.append(LayerSpec(label, draw(st.sampled_from(Z[:3])),
                                    draw(st.integers(0, 2))))
    return PartitionSpec(n, layers)


@settings(max_examples=60, deadline=None)
@given(small_stacks(), st.sampled_from(all_conventions()))
# derivatives in a variable another layer shares, on either side of it
@example(PartitionSpec(4, [LayerSpec(3, Z[0], 2), LayerSpec(3, Z[0]),
                           LayerSpec(1, site_binding(4, 3))]), RESOLVED)
@example(PartitionSpec(5, [LayerSpec(4, Z[0], 1), LayerSpec(3, Z[0], 2),
                           LayerSpec(1, Z[1])]), RESOLVED)
# one site map on both sides of a scalar layer, and a site map onto the
# scalar layer's own variable: per-index shifts and alpha in shared slots
@example(PartitionSpec(3, [LayerSpec(3, site_binding(3, 1)), LayerSpec(0, Z[0]),
                           LayerSpec(1, site_binding(3, 1))]), RESOLVED)
@example(PartitionSpec(3, [LayerSpec(1, {s: Z[0] for s in sites(3)}),
                           LayerSpec(2, Z[0], 1), LayerSpec(0, site_binding(3, 2))]),
         RESOLVED)
# s_(2,1)(z1, z2, z3) has z1 z2 z3 twice: a configuration row that repeats
@example(scalar_spec(4, (4, 2, 0)), RESOLVED)
# multiplicities above 1, on the ket side and on both sides of the join
@example(scalar_spec(3, (2,)), MULTI)
@example(scalar_spec(4, (3, 2)), MULTI)
@example(scalar_spec(3, (2, 2, 1)), MULTI)
@example(PartitionSpec(3, [LayerSpec(2, site_binding(3, 1)), LayerSpec(2, Z[0]),
                           LayerSpec(1, site_binding(3, 3))]), MULTI)
def test_stack_vev_matches_term_route(spec, conv):
    n, cutoff = spec.n, len(spec.layers)
    vac = vacuum_state(n)
    ket = {vac: LaurentPoly.one()}
    for layer in reversed(spec.layers):
        ket = term_apply_layer(n, enumerate_layer_terms(n, layer.label, conv),
                               layer.binding, layer.deriv, ket, cutoff)
    expected = ket.get(vac, LaurentPoly.zero())
    assert apply_stack(spec, conv, vac) == ket
    value = vev(spec, conv)
    assert value == expected
    if spec.all_scalar:
        plain = PartitionSpec(n, [LayerSpec(l.label, l.binding) for l in spec.layers])
        rows = enumerate_configurations(plain, conv)
        assert rows == term_configurations(plain, conv)
        total = LaurentPoly.zero()
        for _, w in rows:
            total = total + w
        assert total == vev(plain, conv)
        assert len(rows) == count_configurations(plain, conv)


@settings(max_examples=40, deadline=None)
@given(small_stacks(max_n=6), st.sampled_from(all_conventions()))
# Schur-rich and staircase stacks, where both sides sweep layers before one
# sweep of the last two closes: from the ket side
@example(scalar_spec(6, (5, 5, 3, 3)), RESOLVED)
@example(scalar_spec(5, (4, 3, 2, 1)), RESOLVED)
@example(scalar_spec(6, (6, 4, 4, 2, 2, 0)), RESOLVED)
# from the bra side, on scalar layers after a predicted round and on per-site
# layers
@example(scalar_spec(5, (4, 4, 2, 2, 0)), RESOLVED)
@example(scalar_spec(7, (6, 5, 3, 2, 1)), RESOLVED)
@example(inhomogeneous_spec(4, (3, 3, 0, 0)), RESOLVED)
# per-site layers from the ket side
@example(inhomogeneous_spec(4, (4, 3, 0, 0)), RESOLVED)
# a derivative, which the bra side cannot cross: the ket side sweeps it
# alone before the last two close from the bra side
@example(scalar_spec(5, (4, 4, 2, 2, 0), derivs=(0, 0, 0, 1, 0)), RESOLVED)
def test_two_sided_vev_is_the_vacuum_entry_of_the_ket_side(spec, conv):
    # `vev` contracts from the ket and the bra at once; `apply_stack` has no
    # bra, so it sweeps every layer from the ket
    vac = vacuum_state(spec.n)
    image = apply_stack(spec, conv, vac)
    assert vev(spec, conv) == image.get(vac, LaurentPoly.zero())


def test_rounds_are_chosen_by_predicted_map_size(monkeypatch):
    # the paper's column-reduction stacks (labels n, n-1, ..., 2, 0, 0):
    # chosen by growth alone, the ket side swept both label-0 layers and
    # built maps of 462 states at n = 6 and 1716 at n = 7, of which 3 met
    # the bra side.  Predicted from growth and fan-out, the bra side sweeps
    # the decreasing labels instead, and no round, probes included, builds
    # a map that large
    sweep_map, sizes = network._sweep_map, []

    def recording(layers, states, *args):
        out = sweep_map(layers, states, *args)
        sizes.append(len(out))
        return out

    for spec, growth_rule_built in ((inhomogeneous_spec(6, (6, 5, 4, 3, 2, 0, 0)), 462),
                                    (scalar_spec(7, (7, 6, 5, 4, 3, 2, 0, 0)), 1716)):
        vac = vacuum_state(spec.n)
        monkeypatch.setattr(network, "_sweep_map", recording)
        sizes.clear()
        value = vev(spec)
        assert max(sizes) < growth_rule_built, sizes
        monkeypatch.setattr(network, "_sweep_map", sweep_map)
        assert value == apply_stack(spec, CONVENTION, vac)[vac]
