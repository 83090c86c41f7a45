"""Vertex tensor tables and the tetrahedron equation."""

from itertools import product

import pytest

from trivertex import lattice
from trivertex.fock import CutoffOverflow, LocalOp
from trivertex.lattice import (
    CutoffTooSmall,
    MissingVariable,
    TensorKind,
    _apply,
    _sectors,
    _tables,
    apply_entry,
    local_tensor,
    q0_limit,
    tetrahedron_check,
)
from trivertex.poly import LaurentPoly, Var

Z = Var.layer(1)
Q = Var.q()


def test_r0_entries():
    table = local_tensor(TensorKind.R0)
    expected = {
        (0, 0, 0, 0): LocalOp.ID_B,
        (1, 1, 1, 1): LocalOp.ID_R,
        (1, 0, 0, 1): LocalOp.B_PLUS,
        (0, 1, 1, 0): LocalOp.B_MINUS,
        (0, 1, 0, 1): LocalOp.T_PROJ,
    }
    assert {k: op for k, (_, op) in table.items()} == expected
    assert all(pref.is_one() for pref, _ in table.values())


def test_lz_spectral_weights():
    table = local_tensor(TensorKind.LZ, Z)
    pref, op = table[(0, 1, 1, 0)]
    assert op is LocalOp.B_MINUS and pref == LaurentPoly.var(Z, -1)
    pref, op = table[(1, 0, 0, 1)]
    assert op is LocalOp.B_PLUS and pref == LaurentPoly.var(Z)


def test_lz_at_one_is_r0():
    table = local_tensor(TensorKind.LZ, Z)
    at_one = {k: (pref.substitute({Z: 1}), op) for k, (pref, op) in table.items()}
    assert at_one == local_tensor(TensorKind.R0)


def test_missing_variable():
    with pytest.raises(MissingVariable):
        local_tensor(TensorKind.LZ)
    with pytest.raises(MissingVariable):
        local_tensor(TensorKind.MQZ)


@pytest.mark.parametrize("kind, z", [
    ("r0", None),                                  # a value, not a TensorKind
    (None, None),
    (TensorKind.LZ, 3),                            # a number is no spectral variable
    (TensorKind.LZ, 0),
    (TensorKind.LQZ, True),
    (TensorKind.MQZ, LaurentPoly.var(Z) + 1),      # not an invertible monomial
    (TensorKind.LZ, LaurentPoly.var(Z) * 2),
])
def test_local_tensor_refuses_bad_input(kind, z):
    with pytest.raises(ValueError):
        local_tensor(kind, z)


def test_color_conservation_all_kinds():
    tables = [
        local_tensor(TensorKind.R0),
        local_tensor(TensorKind.LZ, Z),
        local_tensor(TensorKind.LQZ, Z),
        local_tensor(TensorKind.MQZ, Z),
    ]
    for table in tables:
        for idx in product((0, 1), repeat=4):
            if idx in table:
                i, j, a, b = idx
                assert i + j == a + b


def test_q0_limits_reproduce_undeformed_tensor():
    lz = local_tensor(TensorKind.LZ, Z)
    assert q0_limit(TensorKind.LQZ, Z) == lz
    assert q0_limit(TensorKind.MQZ, Z) == lz
    with pytest.raises(ValueError):
        q0_limit(TensorKind.R0, Z)


def test_mqz_negates_action_coefficients():
    # diagonal entry applied to |m> picks up (-q)^m
    table = local_tensor(TensorKind.MQZ, Z)
    entry = table[(0, 1, 0, 1)]
    [(m2, coeff)] = apply_entry(TensorKind.MQZ, entry, 3, 6)
    assert m2 == 3 and coeff == LaurentPoly.monomial({Q: 3}, -1)
    # and the extra diagonal entry becomes +q * (-q)^m
    entry = table[(1, 0, 1, 0)]
    [(m2, coeff)] = apply_entry(TensorKind.MQZ, entry, 2, 6)
    assert m2 == 2 and coeff == LaurentPoly.monomial({Q: 3})


def test_tetrahedron_cutoff_bound():
    with pytest.raises(CutoffTooSmall):
        tetrahedron_check(2)


@pytest.mark.parametrize("cutoff", [3, 4, 5])
def test_tetrahedron_holds(cutoff):
    report = tetrahedron_check(cutoff)
    assert report["passed"], report["mismatches"][:3]
    assert report["sectors"] == 16 * (cutoff - 1) ** 2
    assert report["mismatches"] == []


# -- the reference route: LaurentPoly coefficients, tensors rebuilt per call

def reference_apply(states, factor, space):
    """One factor on state -> LaurentPoly, its tensor rebuilt and each entry
    applied per state: the reference route for `_tables` and `_apply`."""
    kind, line_a, line_b, fock, z = factor
    by_input = {}
    for (i, j, a, b), entry in lattice.local_tensor(kind, z).items():
        by_input.setdefault((i, j), []).append((a, b, entry))
    fock_pos = fock - 1
    out = {}
    for state, coeff in states.items():
        i, j, m = state[line_a - 1], state[line_b - 1], state[fock_pos]
        for a, b, entry in by_input.get((i, j), ()):
            for m2, c in lattice.apply_entry(kind, entry, m, space):
                nxt = list(state)
                nxt[line_a - 1], nxt[line_b - 1], nxt[fock_pos] = a, b, m2
                key = tuple(nxt)
                acc = out.get(key, LaurentPoly.zero()) + coeff * c
                if acc.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = acc
    return out


def reference_sides(start, cutoff, zvars):
    def ratio(i, j):
        return LaurentPoly.monomial({zvars[i - 1]: 1, zvars[j - 1]: -1})

    m126 = (TensorKind.MQZ, 1, 2, 6, ratio(1, 2))
    m346 = (TensorKind.MQZ, 3, 4, 6, ratio(3, 4))
    l135 = (TensorKind.LQZ, 1, 3, 5, ratio(1, 3))
    l245 = (TensorKind.LQZ, 2, 4, 5, ratio(2, 4))
    lhs = rhs = {start: LaurentPoly.one()}
    for f in (l245, l135, m346, m126):
        lhs = reference_apply(lhs, f, cutoff + 1)
    for f in (m126, m346, l135, l245):
        rhs = reference_apply(rhs, f, cutoff + 1)
    return lhs, rhs


LAYER_VARS = tuple(Var.layer(i) for i in (1, 2, 3, 4))
SITE_VARS = (Var.site(2, 1, 3), Var.aux(1), Var.layer(7), Var.site(1, 2, 2))


def reference_mismatches(cutoff, zvars=LAYER_VARS):
    out = []
    for colors in product((0, 1), repeat=4):
        for m5 in range(cutoff - 1):
            for m6 in range(cutoff - 1):
                start = colors + (m5, m6)
                lhs, rhs = reference_sides(start, cutoff, zvars)
                if lhs != rhs:
                    out.append((start, lhs, rhs))
    return out


@pytest.mark.parametrize("cutoff, zvars", [(3, LAYER_VARS), (4, LAYER_VARS), (3, SITE_VARS)])
def test_packed_sectors_match_reference_route(cutoff, zvars):
    starts = []
    for start, lhs, rhs, decode in _sectors(cutoff, zvars):
        starts.append(start)
        ref_lhs, ref_rhs = reference_sides(start, cutoff, zvars)
        assert decode(lhs) == ref_lhs and decode(rhs) == ref_rhs, start
        assert ref_lhs == ref_rhs
    assert len(starts) == len(set(starts)) == 16 * (cutoff - 1) ** 2


def test_packing_holds_every_factor_at_its_largest_exponent():
    # z^5 on the raise is the tables' largest exponent; four factors on
    # separate lines of one state raise together to z^20
    z5 = LaurentPoly.var(Z, 5)
    tables, decode = _tables([(TensorKind.LQZ, z5)] * 4, 2)
    side, ref = {(1, 0, 0) * 4: {0: 1}}, {(1, 0, 0) * 4: LaurentPoly.one()}
    for k, table in enumerate(tables):
        side = _apply(side, 3 * k, 3 * k + 1, 3 * k + 2, table)
        ref = reference_apply(ref, (TensorKind.LQZ, 3 * k + 1, 3 * k + 2, 3 * k + 3, z5), 2)
    assert decode(side) == ref and len(ref) == 16
    assert ref[(0, 1, 1) * 4] == LaurentPoly.var(Z, 20)


def test_tetrahedron_holds_with_other_variables():
    report = tetrahedron_check(4, SITE_VARS)
    assert report["passed"] and report["sectors"] == 144


@pytest.fixture
def broken_lqz(monkeypatch):
    """LQZ with the sign of its (1,0,1,0) prefactor flipped."""
    def broken(kind, z=None):
        table = local_tensor(kind, z)
        if kind is TensorKind.LQZ:
            prefactor, op = table[(1, 0, 1, 0)]
            table[(1, 0, 1, 0)] = (prefactor * -1, op)
        return table
    monkeypatch.setattr(lattice, "local_tensor", broken)


def test_broken_tensor_fails_on_the_reference_sectors(broken_lqz):
    report = tetrahedron_check(3)
    expected = reference_mismatches(3)
    assert not report["passed"] and report["sectors"] == 64
    assert [m["input"] for m in report["mismatches"]] == [start for start, _, _ in expected]
    assert len(expected) == 14 and expected[0][0] == (0, 1, 0, 1, 0, 1)
    assert all(set(m) == {"input"} for m in report["mismatches"][1:])


def test_first_mismatch_names_a_differing_output(broken_lqz):
    first = tetrahedron_check(3)["mismatches"][0]
    start, lhs, rhs = reference_mismatches(3)[0]
    zero = LaurentPoly.zero()
    out = first["output"]
    assert first["input"] == start
    assert out == min(s for s in lhs.keys() | rhs.keys() if lhs.get(s, zero) != rhs.get(s, zero))
    assert first["lhs"] == str(lhs.get(out, zero)) and first["rhs"] == str(rhs.get(out, zero))
    assert first["lhs"] != first["rhs"]


def test_overflow_marker_raises_when_reached():
    # LQZ raises on (i, j) = (1, 0): from the top occupancy that overflows
    [table], decode = _tables([(TensorKind.LQZ, LaurentPoly.var(Z))], 3)
    assert [move[2:] for move in table[1, 0, 2] if move[2] is None] == [
        (None, "raising occupancy 2 at cutoff 3")]
    with pytest.raises(CutoffOverflow, match="raising occupancy 2 at cutoff 3"):
        _apply({(1, 0, 0, 0, 2, 0): {0: 1}}, 0, 1, 4, table)
    # one level lower the raise lands on the top occupancy
    out = decode(_apply({(1, 0, 0, 0, 1, 0): {0: 1}}, 0, 1, 4, table))
    assert out == {(0, 1, 0, 0, 2, 0): LaurentPoly.var(Z),
                   (1, 0, 0, 0, 1, 0): LaurentPoly.monomial({Q: 2}, -1)}
