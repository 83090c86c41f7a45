"""Boson occupation spaces, the two local operator families acting on them,
and the vertex tensors built from the operators.

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

A local tensor is a 2x2x2x2 table: subscripts (i, j) are the two incoming
edge colors, superscripts (a, b) the outgoing ones, and each nonzero entry is
one of these operators dressed with a monomial prefactor.  Every nonzero
entry conserves color: i + j = a + b.  Four kinds exist:

* R0    — undeformed, no spectral variable (identities, raise, lower, project);
* LZ    — same entries with spectral weights z / z^-1 on raise / lower;
* LQZ   — the q-oscillator version (raise/lower/diagonal, plus a -q·k entry);
* MQZ   — LQZ with the deformation parameter negated, q -> -q.

The layer engine (`trivertex.network`) reads R0 and `apply_local` only; the
checks of the operator relations and of the tetrahedron equation, and the
MQZ negation (`apply_entry`), live in `trivertex.lattice`, which only the
identity battery loads.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Tuple, Union

from .poly import LaurentPoly, NegativeExponentSubstitution, Var


class CutoffOverflow(Exception):
    """An operator tried to raise an occupation number past the truncation."""


class MissingVariable(Exception):
    """A tensor kind that needs a spectral variable was built without one."""


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
MINUS_Q = LaurentPoly.var(Q) * -1

_ONE = LaurentPoly.one()


def apply_local(op: LocalOp, m: int, cutoff: int) -> List[Tuple[int, LaurentPoly]]:
    """Image of the basis state |m> under a single local operator.

    Returns a list of (occupancy, coefficient) pairs; the empty list means the
    state is annihilated.  Raises CutoffOverflow if the image would leave the
    truncated space, and ValueError for a cutoff that is not an int or for m
    outside 0..cutoff-1 or not an int.
    """
    # a bool or a float is refused, as an occupancy is in `network._contract`
    if cutoff.__class__ is not int:
        raise ValueError("cutoff %r is not an int" % (cutoff,))
    if m.__class__ is not int or not 0 <= m < cutoff:
        raise ValueError("occupancy %r is not an int in 0..%d" % (m, cutoff - 1))
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


# -- local tensors ---------------------------------------------------------

class TensorKind(Enum):
    R0 = "r0"
    LZ = "lz"
    LQZ = "lqz"
    MQZ = "mqz"


Entry = Tuple[LaurentPoly, LocalOp]
EntryTable = Dict[Tuple[int, int, int, int], Entry]


def local_tensor(kind: TensorKind, z: Optional[Union[Var, LaurentPoly]] = None) -> EntryTable:
    """Entry table for one tensor kind.

    `z` (a variable or an invertible Laurent monomial) is required for every
    kind except R0, which ignores it; MissingVariable if it is None, and
    ValueError for any other value or for a `kind` that is not a
    `TensorKind`.  For MQZ the returned prefactors are written in the
    un-negated deformation variable; `lattice.apply_entry` applies the
    negation.
    """
    if not isinstance(kind, TensorKind):
        raise ValueError("unknown tensor kind %r" % (kind,))
    if kind is TensorKind.R0:
        zp = zm = _ONE
    elif z is None:
        raise MissingVariable("tensor kind %s needs a spectral variable" % kind.value)
    elif not isinstance(z, (Var, LaurentPoly)):
        raise ValueError("spectral variable %r is neither a Var nor a LaurentPoly" % (z,))
    else:
        zp = LaurentPoly.var(z) if isinstance(z, Var) else z
        try:
            zm = zp ** -1
        except NegativeExponentSubstitution:
            raise ValueError("spectral weight %s is not an invertible monomial" % (z,)) from None
    if kind is TensorKind.R0 or kind is TensorKind.LZ:
        up, down, diag, extra = LocalOp.B_PLUS, LocalOp.B_MINUS, LocalOp.T_PROJ, {}
    else:
        up, down, diag = LocalOp.A_PLUS, LocalOp.A_MINUS, LocalOp.K
        extra = {(1, 0, 1, 0): (MINUS_Q, LocalOp.K)}
    return {(0, 0, 0, 0): (_ONE, LocalOp.ID_B), (1, 1, 1, 1): (_ONE, LocalOp.ID_R),
            (1, 0, 0, 1): (zp, up), (0, 1, 1, 0): (zm, down), (0, 1, 0, 1): (_ONE, diag), **extra}
