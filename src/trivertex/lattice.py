"""The verifiers of the local algebra: the operator relations, the vertex
tensors' q -> 0 limit, and the tetrahedron equation.

The operators and the tensors built from them live in `trivertex.fock`;
this module checks what they satisfy, and only the identity battery
(`trivertex.verify`) and `trivertex verify` load it.

* `check_q0_relations` and `check_qosc_relations` compare products of the
  local operators as matrices on a truncated occupancy space (`op_matrix`).
* `apply_entry` acts with one tensor entry.  The negation of MQZ lives here,
  not in the stored table: `apply_entry` substitutes q -> -q into the
  combined coefficient, which also negates the q's produced by the operator
  action itself.  `q0_limit` takes a deformed tensor entrywise to q = 0.
* The tetrahedron-equation check composes four tensors on four color lines
  and two Fock lines, in both orders, and compares the resulting maps sector
  by sector.  Each factor's action is tabled once per check, and
  coefficients are packed polynomials over one `poly.Alphabet`, multiplied
  by `poly.add_product` (`_tables`, `_apply`).

The tensor names (`TensorKind`, `local_tensor`, `MissingVariable`, `Entry`,
`EntryTable`) are imported from `fock` and stay reachable here.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .fock import (MINUS_Q, Q, CutoffOverflow, Entry, EntryTable, LocalOp, MissingVariable,
                   TensorKind, apply_local, local_tensor, q_to_zero)
from .poly import Alphabet, LaurentPoly, Var, add_product


class CutoffTooSmall(Exception):
    """The requested check needs a larger truncation to be exact."""


_ONE = LaurentPoly.one()


# -- operator relations ----------------------------------------------------

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


# -- vertex tensors --------------------------------------------------------

def apply_entry(kind: TensorKind, entry: Entry, m: int, cutoff: int) -> List[Tuple[int, LaurentPoly]]:
    """Act with one tensor entry on Fock occupancy m.

    Returns (occupancy, coefficient) pairs with the prefactor folded in and,
    for the negated kind, q -> -q applied to the combined coefficient.
    """
    prefactor, op = entry
    out = []
    for m2, c in apply_local(op, m, cutoff):
        coeff = prefactor * c
        if kind is TensorKind.MQZ:
            coeff = coeff.substitute({Q: MINUS_Q})
        if not coeff.is_zero():
            out.append((m2, coeff))
    return out


def q0_limit(kind: TensorKind, z: Union[Var, LaurentPoly]) -> EntryTable:
    """Entrywise q -> 0 limit of a deformed tensor (LQZ or MQZ).

    Prefactors are evaluated at q = 0 (entries whose prefactor vanishes are
    dropped) and operators are mapped through their undeformed limits.
    """
    if kind not in (TensorKind.LQZ, TensorKind.MQZ):
        raise ValueError("q0_limit applies to the deformed kinds only")
    out: EntryTable = {}
    for key, (prefactor, op) in local_tensor(kind, z).items():
        if kind is TensorKind.MQZ:
            prefactor = prefactor.substitute({Q: MINUS_Q})
        at0 = prefactor.substitute({Q: 0})
        if not at0.is_zero():
            out[key] = (at0, q_to_zero(op))
    return out


# -- tetrahedron equation --------------------------------------------------

def _tables(factors, space):
    """Each factor's table on occupancies 0..space-1, (i, j, m) -> moves
    (a, b, m2, packed coefficient), built once through `local_tensor` and
    `apply_entry`; a move past the truncation stays as (a, b, None, message)
    and raises CutoffOverflow when reached.  The coefficients are packed over
    one `poly.Alphabet` of their variables.  A side applies each factor once,
    so the reach is len(factors) times the largest |e_s|: a product adds
    keys, and dict equality is polynomial equality.  Also returns `decode`,
    packed side -> poly side.
    """
    tables = [{key: [] for key in product((0, 1), (0, 1), range(space))} for _ in factors]
    for (kind, z), table in zip(factors, tables):
        for ((i, j, a, b), entry), m in product(local_tensor(kind, z).items(), range(space)):
            try:
                table[i, j, m] += [(a, b, m2, c) for m2, c in apply_entry(kind, entry, m, space)]
            except CutoffOverflow as exc:
                table[i, j, m].append((a, b, None, str(exc)))
    monos = [mono for t in tables for ms in t.values() for _, _, m2, c in ms if m2 is not None
             for mono in c.terms]
    alphabet = Alphabet(dict.fromkeys(v for mono in monos for v, _ in mono),
                        len(factors) * max((abs(e) for mono in monos for _, e in mono), default=0))
    for moves in [moves for t in tables for moves in t.values()]:
        moves[:] = [(a, b, m2, c if m2 is None else alphabet.pack(c)) for a, b, m2, c in moves]

    def decode(side):
        return {state: alphabet.poly(coeff) for state, coeff in side.items()}
    return tables, decode


def _apply(states, line_a, line_b, fock, table):
    """One factor on state (four colors, two occupancies) -> packed coefficient,
    acting on the colors at line_a (i/a) and line_b (j/b) and occupancy fock."""
    out = {}
    for state, coeff in states.items():
        for a, b, m2, mc in table[state[line_a], state[line_b], state[fock]]:
            if m2 is None:
                raise CutoffOverflow(mc)
            nxt = list(state)
            nxt[line_a], nxt[line_b], nxt[fock] = a, b, m2
            add_product(out.setdefault(tuple(nxt), {}), coeff, mc)
    return {state: kept for state, coeff in out.items()
            if (kept := {key: c for key, c in coeff.items() if c})}


def _sectors(cutoff, zvars):
    """(input, lhs, rhs, decode) per sector of `tetrahedron_check`, sides packed."""
    # kind, color lines carrying i/a and j/b, Fock line; z is their ratio
    geometry = [(TensorKind.MQZ, 1, 2, 6), (TensorKind.MQZ, 3, 4, 6),
                (TensorKind.LQZ, 1, 3, 5), (TensorKind.LQZ, 2, 4, 5)]
    space = cutoff + 1  # occupancies 0..cutoff reachable from cutoff-2 inputs
    tables, decode = _tables([(kind, LaurentPoly.monomial({zvars[a - 1]: 1, zvars[b - 1]: -1}))
                              for kind, a, b, _ in geometry], space)
    m126, m346, l135, l245 = [(a - 1, b - 1, fock - 1, table)
                              for (_, a, b, fock), table in zip(geometry, tables)]
    for colors, m5, m6 in product(product((0, 1), repeat=4), range(cutoff - 1), range(cutoff - 1)):
        start = colors + (m5, m6)
        lhs = rhs = {start: {0: 1}}
        for step in (l245, l135, m346, m126):  # rightmost first
            lhs = _apply(lhs, *step)
        for step in (m126, m346, l135, l245):
            rhs = _apply(rhs, *step)
        yield start, lhs, rhs, decode


def tetrahedron_check(cutoff: int, zvars: Optional[Tuple[Var, Var, Var, Var]] = None) -> dict:
    """Verify the tetrahedron equation

        M_126(z1/z2) M_346(z3/z4) L_135(z1/z3) L_245(z2/z4)
          = L_245(z2/z4) L_135(z1/z3) M_346(z3/z4) M_126(z1/z2)

    on four color lines and two Fock lines, composing right to left, for all
    input sectors with Fock occupancies <= cutoff-2, with exact integer
    coefficients keyed by packed exponents (`_tables`).  Each Fock line is
    hit by exactly two factors, so two levels of headroom make the truncated
    check exact; cutoff < 3 raises CutoffTooSmall.  The first failing sector
    also gives its first differing output state and both coefficients there.
    """
    if cutoff < 3:
        raise CutoffTooSmall("tetrahedron check needs cutoff >= 3")
    if zvars is None:
        zvars = tuple(Var.layer(i) for i in (1, 2, 3, 4))
    sectors, mismatches = 0, []
    for start, lhs, rhs, decode in _sectors(cutoff, zvars):
        sectors += 1
        if lhs != rhs:
            mismatches.append({"input": start})
            if len(mismatches) == 1:
                lhs, rhs = decode(lhs), decode(rhs)
                out = min(s for s in lhs.keys() | rhs.keys() if lhs.get(s) != rhs.get(s))
                mismatches[0].update(output=out, lhs=str(lhs.get(out, 0)),
                                     rhs=str(rhs.get(out, 0)))
    return {"cutoff": cutoff, "sectors": sectors, "mismatches": mismatches,
            "passed": not mismatches}
