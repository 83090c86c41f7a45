"""Local operator actions, defining relations, truncation behavior."""

import pytest
from hypothesis import given, settings, strategies as st

from trivertex.fock import CutoffOverflow, LocalOp, apply_local, q_to_zero
from trivertex.lattice import check_q0_relations, check_qosc_relations, op_matrix
from trivertex.poly import LaurentPoly, Var

Q = Var.q()


def qpow(e):
    return LaurentPoly.var(Q, e)


def test_actions_crystal_family():
    c = 5
    assert apply_local(LocalOp.B_PLUS, 2, c) == [(3, LaurentPoly.one())]
    assert apply_local(LocalOp.B_MINUS, 2, c) == [(1, LaurentPoly.one())]
    assert apply_local(LocalOp.B_MINUS, 0, c) == []
    assert apply_local(LocalOp.T_PROJ, 0, c) == [(0, LaurentPoly.one())]
    assert apply_local(LocalOp.T_PROJ, 3, c) == []
    assert apply_local(LocalOp.ID_B, 4, c) == [(4, LaurentPoly.one())]
    assert apply_local(LocalOp.ID_R, 4, c) == [(4, LaurentPoly.one())]


def test_actions_q_oscillator_family():
    c = 5
    assert apply_local(LocalOp.A_PLUS, 1, c) == [(2, LaurentPoly.one())]
    assert apply_local(LocalOp.A_MINUS, 0, c) == []
    assert apply_local(LocalOp.A_MINUS, 3, c) == [(2, LaurentPoly.one() - qpow(6))]
    assert apply_local(LocalOp.K, 3, c) == [(3, qpow(3))]


def test_cutoff_overflow():
    with pytest.raises(CutoffOverflow):
        apply_local(LocalOp.B_PLUS, 2, 3)
    with pytest.raises(CutoffOverflow):
        apply_local(LocalOp.A_PLUS, 2, 3)
    with pytest.raises(ValueError):
        apply_local(LocalOp.B_PLUS, 3, 3)


@pytest.mark.parametrize("m", [1.5, 1.0, True, False, None])
def test_occupancy_must_be_an_int(m):
    # a float or a bool is refused rather than carried into the image
    with pytest.raises(ValueError):
        apply_local(LocalOp.B_PLUS, m, 5)


def test_relations_cutoff_3():
    rep = check_q0_relations(3)
    assert rep["passed"] and all(rep["relations"].values())
    rep = check_qosc_relations(3)
    assert rep["passed"] and all(rep["relations"].values())


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=2, max_value=7))
def test_relations_any_cutoff(cutoff):
    assert check_q0_relations(cutoff)["passed"]
    assert check_qosc_relations(cutoff)["passed"]


def test_relations_reject_tiny_cutoff():
    with pytest.raises(ValueError):
        check_q0_relations(1)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(LocalOp)), st.integers(min_value=0, max_value=8))
def test_band_diagonal(op, m):
    cutoff = 10
    for m2, _ in apply_local(op, m, cutoff):
        assert abs(m2 - m) <= 1


def test_q_to_zero_mapping():
    assert q_to_zero(LocalOp.A_PLUS) is LocalOp.B_PLUS
    assert q_to_zero(LocalOp.A_MINUS) is LocalOp.B_MINUS
    assert q_to_zero(LocalOp.K) is LocalOp.T_PROJ
    assert q_to_zero(LocalOp.ID_B) is LocalOp.ID_B
    assert q_to_zero(LocalOp.ID_R) is LocalOp.ID_R
    with pytest.raises(ValueError):
        q_to_zero(LocalOp.B_PLUS)


def test_q_to_zero_matches_matrix_limit():
    # substituting q = 0 into the deformed matrices reproduces the matrices of
    # the mapped operators, entry by entry
    cutoff = 6
    for op in (LocalOp.A_PLUS, LocalOp.A_MINUS, LocalOp.K):
        deformed = op_matrix([op], cutoff)
        limit = {key: c.substitute({Q: 0}) for key, c in deformed.items()}
        limit = {key: c for key, c in limit.items() if not c.is_zero()}
        assert limit == op_matrix([q_to_zero(op)], cutoff)
