"""Boson occupation spaces and the two local operator families acting on them.

States are occupation numbers m = 0, 1, ..., cutoff-1; `cutoff` is the
dimension of the truncated space.  Two families act:

* the crystal-like family with a vacuum projector: identities (kept in two
  flavors, one for each edge color context), a raising operator, a lowering
  operator, and the projector onto m = 0; raising annihilates nothing but can
  overflow the truncation, lowering kills m = 0;
* the q-deformed oscillator family: raising/lowering whose products produce
  (1 - q^{2m}) factors, and the diagonal operator with eigenvalue q^m.

Coefficients are exact Laurent polynomials in q.  Raising past the truncation
raises CutoffOverflow rather than silently truncating, so callers must size
the space to the operator content they apply.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Sequence, Tuple

from .poly import LaurentPoly, Var


class CutoffOverflow(Exception):
    """An operator tried to raise an occupation number past the truncation."""


class LocalOp(Enum):
    ID_B = "1b"      # identity, blue context
    ID_R = "1r"      # identity, red context
    B_PLUS = "b+"    # raising, coefficient 1
    B_MINUS = "b-"   # lowering, coefficient 1 (kills m=0)
    T_PROJ = "t"     # projector onto m=0
    A_PLUS = "a+"    # q-oscillator raising
    A_MINUS = "a-"   # q-oscillator lowering, coefficient 1 - q^(2m)
    K = "k"          # diagonal q^m

    def __repr__(self):
        return self.value


Q = Var.q()

_ONE = LaurentPoly.one()


def apply_local(op: LocalOp, m: int, cutoff: int) -> List[Tuple[int, LaurentPoly]]:
    """Image of the basis state |m> under a single local operator.

    Returns a list of (occupancy, coefficient) pairs; the empty list means the
    state is annihilated.  Raises CutoffOverflow if the image would leave the
    truncated space, and ValueError for m outside 0..cutoff-1.
    """
    if not 0 <= m < cutoff:
        raise ValueError("occupancy %d outside truncation 0..%d" % (m, cutoff - 1))
    if op is LocalOp.ID_B or op is LocalOp.ID_R:
        return [(m, _ONE)]
    if op is LocalOp.B_PLUS:
        if m + 1 >= cutoff:
            raise CutoffOverflow("raising occupancy %d at cutoff %d" % (m, cutoff))
        return [(m + 1, _ONE)]
    if op is LocalOp.B_MINUS:
        return [] if m == 0 else [(m - 1, _ONE)]
    if op is LocalOp.T_PROJ:
        return [(0, _ONE)] if m == 0 else []
    if op is LocalOp.A_PLUS:
        if m + 1 >= cutoff:
            raise CutoffOverflow("raising occupancy %d at cutoff %d" % (m, cutoff))
        return [(m + 1, _ONE)]
    if op is LocalOp.A_MINUS:
        if m == 0:
            return []
        return [(m - 1, _ONE - LaurentPoly.var(Q, 2 * m))]
    if op is LocalOp.K:
        return [(m, LaurentPoly.var(Q, m))]
    raise ValueError("unknown operator %r" % (op,))


def q_to_zero(op: LocalOp) -> LocalOp:
    """Image of a q-oscillator operator in the q -> 0 limit.

    The diagonal q^m becomes the vacuum projector, raising/lowering lose their
    deformation factors, identities stay put.
    """
    table = {
        LocalOp.ID_B: LocalOp.ID_B,
        LocalOp.ID_R: LocalOp.ID_R,
        LocalOp.A_PLUS: LocalOp.B_PLUS,
        LocalOp.A_MINUS: LocalOp.B_MINUS,
        LocalOp.K: LocalOp.T_PROJ,
    }
    if op not in table:
        raise ValueError("%r is not a q-oscillator operator" % (op,))
    return table[op]


# -- matrices and relation checks -----------------------------------------

Matrix = Dict[Tuple[int, int], LaurentPoly]


def op_matrix(ops: Sequence[LocalOp], cutoff: int, scalar: LaurentPoly = None) -> Matrix:
    """Matrix of a product of operators (applied right to left) on inputs
    0..cutoff-1.

    One extra occupancy level is allowed for intermediate states, so
    products like lowering∘raising can be evaluated at the top of the window
    exactly as they act on the untruncated space.
    """
    mat: Matrix = {}
    for m_in in range(cutoff):
        states = {m_in: _ONE if scalar is None else scalar}
        for op in reversed(list(ops)):
            nxt: Dict[int, LaurentPoly] = {}
            for m, coeff in states.items():
                for m2, c2 in apply_local(op, m, cutoff + 1):
                    acc = nxt.get(m2, LaurentPoly.zero()) + coeff * c2
                    if acc.is_zero():
                        nxt.pop(m2, None)
                    else:
                        nxt[m2] = acc
            states = nxt
        for m_out, coeff in states.items():
            mat[(m_out, m_in)] = coeff
    return mat


def _combo(terms, cutoff: int) -> Matrix:
    """Matrix of sum_i scalar_i * (product of ops_i)."""
    out: Matrix = {}
    for s, ops in terms:
        for key, coeff in op_matrix(ops, cutoff, scalar=s).items():
            acc = out.get(key, LaurentPoly.zero()) + coeff
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def _check_relations(cutoff: int, cases) -> dict:
    """Each case, name -> (lhs, rhs) as `_combo` terms, compared as matrices
    on occupancies 0..cutoff-1 (cutoff >= 2 required)."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    relations = {name: _combo(lhs, cutoff) == _combo(rhs, cutoff)
                 for name, (lhs, rhs) in cases.items()}
    return {"cutoff": cutoff, "relations": relations, "passed": all(relations.values())}


def check_q0_relations(cutoff: int) -> dict:
    """Verify the defining relations of the crystal-like family as matrices
    on occupancies 0..cutoff-1 (cutoff >= 2 required).

    Relations: proj∘raise = 0, lower∘proj = 0, raise∘lower = 1 - proj,
    lower∘raise = 1.
    """
    t, bp, bm = LocalOp.T_PROJ, LocalOp.B_PLUS, LocalOp.B_MINUS
    return _check_relations(cutoff, {
        "proj_after_raise_is_zero": ([(_ONE, [t, bp])], []),
        "lower_after_proj_is_zero": ([(_ONE, [bm, t])], []),
        "raise_lower_is_one_minus_proj": ([(_ONE, [bp, bm])], [(_ONE, []), (-_ONE, [t])]),
        "lower_raise_is_one": ([(_ONE, [bm, bp])], [(_ONE, [])]),
    })


def check_qosc_relations(cutoff: int) -> dict:
    """Verify the defining relations of the q-oscillator family as matrices
    on occupancies 0..cutoff-1 (cutoff >= 2 required).

    Relations: k a+ = q a+ k, k a- = q^-1 a- k, a- a+ = 1 - q^2 k^2,
    a+ a- = 1 - k^2.
    """
    ap, am, k = LocalOp.A_PLUS, LocalOp.A_MINUS, LocalOp.K
    return _check_relations(cutoff, {
        "k_raise_twist": ([(_ONE, [k, ap])], [(LaurentPoly.var(Q), [ap, k])]),
        "k_lower_twist": ([(_ONE, [k, am])], [(LaurentPoly.var(Q, -1), [am, k])]),
        "lower_raise": ([(_ONE, [am, ap])], [(_ONE, []), (-LaurentPoly.var(Q, 2), [k, k])]),
        "raise_lower": ([(_ONE, [ap, am])], [(_ONE, []), (-_ONE, [k, k])]),
    })
