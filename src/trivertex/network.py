"""Triangular slice networks built from the undeformed vertex tensor.

A slice of size n is the triangle D_n = {(k, l) : k, l >= 1, k + l <= n}
with one Fock space per site.  A layer operator with label i is the sum over
all edge 2-colorings compatible with a fixed staircase boundary (the first i
boundary positions carry color 1), each coloring contributing the tensor
product of its per-site local operators weighted by z to the number of 1s on
the designated output boundary.

A layer acts on occupancy states by a pruned depth-first sweep over the
sites (`_sweep`): each site's local operator acts as soon as the site is
reached, so a branch ends at the first site that kills the state or
disagrees with a fixed output stub, and only the colors of free input stubs
are branched over.  A one-column strip operator is the same sweep over the
slots of the column.

Every operator product but one is contracted by one engine, `_contract`, on
exact integers: each state carries exponent vector -> count, one exponent
per binding atom, and `LaurentPoly`s are built only from its result.  It
serves vacuum expectation values (`vev`, `count_configurations`, convention
resolution), the configuration listing (one exponent slot per layer, so an
exponent vector is a row), strip matrix elements (`strip_vev`) and the
operator images `apply_layer`, `apply_strip` and `apply_stack` (one engine
call per ket state, times its coefficient).  Given a bra, the engine drops
states that can no longer reach it and sweeps the last operator only toward
it; without one it returns every reached state.

A move leaves the sweep with its exponent shift.  A scalar layer's move
carries alpha, which the engine shifts into the layer's slot.  A per-index
step (a per-site layer or a strip) is swept on a plan whose site tables
hold each occupancy change times the packed unit of its index
(`_with_units`), so its moves carry their packed shifts, summed at the
sites where they happen.

The exception is the exchange-relation check `verify.check_zf`, which needs
every state a two-layer product reaches from every ket of a box.  Without a
target `_sweep` reads an occupancy only through whether it is positive, so
the check sweeps a layer once per occupied set (`verify._pattern_moves`),
keeps the moves as packed occupancy changes in a bounded memo shared by the
checks of a grid, and contracts one ket per class: the `zf` group sweeps
358 times, where one engine call per ket swept 114292 times.

The pictures defining the boundary geometry admit several readings; the
`Convention` type records one reading and `resolve_convention` selects the
unique reading that reproduces a battery of independently known expectation
values.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .fock import CutoffOverflow, LocalOp
from .lattice import TensorKind, local_tensor
from .poly import LaurentPoly, Var


class NoConventionFound(Exception):
    """No candidate boundary reading reproduces the anchor values."""


class AmbiguousConvention(Exception):
    """More than one candidate reading survives the anchor battery."""


class InvalidLabels(ValueError):
    """A layer label is outside 0..n."""


Site = Tuple[int, int]
# ("v", k, l) is the south edge of site (k, l), equal to the north edge of
# (k+1, l); ("v", 0, l) is the north stub of column l.  ("h", k, l) is the
# east edge of site (k, l), equal to the west edge of (k, l+1); ("h", k, 0)
# is the west stub of row k.
Edge = Tuple[str, int, int]

SiteState = Tuple[int, ...]
KetCombo = Dict[SiteState, LaurentPoly]


def sites(n: int) -> List[Site]:
    """The triangle D_n in canonical (lexicographic) order."""
    if n < 2:
        raise ValueError("need n >= 2 for a nonempty triangle")
    return [(k, l) for k in range(1, n) for l in range(1, n - k + 1)]


def vacuum_state(n: int) -> SiteState:
    return (0,) * (n * (n - 1) // 2)


class Convention:
    """One reading of the boundary pictures.

    flow: which horizontal direction colors propagate ("we" or "ew").
    boundary: how the n fixed positions sit on the staircase side --
        "staircase" walks the full staircase (2(n-1) stubs grouped into n
        positions), "columns" takes the n-1 column-south stubs then the
        bottom row's lateral input stub.
    residual: unfixed input stubs are summed over both colors ("sum") or
        pinned to 0 ("zero").
    weighted: which output stubs count toward the z-exponent -- the north
        stubs ("north"), north plus the top lateral stub ("north_lateral"),
        or every output stub ("all").

    Immutable, and equal and hashed by its four fields.
    """

    def __init__(self, flow: str, boundary: str, residual: str, weighted: str):
        if flow not in ("we", "ew"):
            raise ValueError("flow must be 'we' or 'ew'")
        if boundary not in ("staircase", "columns"):
            raise ValueError("boundary must be 'staircase' or 'columns'")
        if residual not in ("sum", "zero"):
            raise ValueError("residual must be 'sum' or 'zero'")
        if weighted not in ("north", "north_lateral", "all"):
            raise ValueError("weighted must be 'north', 'north_lateral' or 'all'")
        self.__dict__.update(flow=flow, boundary=boundary, residual=residual,
                             weighted=weighted)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to Convention.%s" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete Convention.%s" % name)

    def _fields(self) -> Tuple[str, str, str, str]:
        return (self.flow, self.boundary, self.residual, self.weighted)

    def __eq__(self, other):
        if other.__class__ is Convention:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("Convention(flow=%r, boundary=%r, residual=%r, weighted=%r)"
                % self._fields())


def all_conventions() -> List[Convention]:
    return [
        Convention(f, b, r, w)
        for f in ("we", "ew")
        for b in ("staircase", "columns")
        for r in ("sum", "zero")
        for w in ("north", "north_lateral", "all")
    ]


def north_stubs(n: int) -> List[Edge]:
    return [("v", 0, l) for l in range(1, n)]


def west_stubs(n: int) -> List[Edge]:
    return [("h", k, 0) for k in range(1, n)]


def south_staircase_stubs(n: int) -> List[Edge]:
    return [("v", k, n - k) for k in range(1, n)]


def east_staircase_stubs(n: int) -> List[Edge]:
    return [("h", k, n - k) for k in range(1, n)]


def boundary_positions(n: int, convention: Convention) -> List[List[Edge]]:
    """The n ordered fixed-boundary positions (each one or two stubs)."""
    if convention.boundary == "staircase":
        pos: List[List[Edge]] = [[("v", n - 1, 1)]]
        for p in range(2, n):
            pos.append([("h", n - p + 1, p - 1), ("v", n - p, p)])
        pos.append([("h", 1, n - 1)])
        return pos
    # columns reading: south end of each Fock column, then the bottom row's
    # lateral input stub
    pos = [[("v", n - l, l)] for l in range(1, n)]
    lateral = ("h", n - 1, 0) if convention.flow == "we" else ("h", n - 1, 1)
    return pos + [[lateral]]


def fixed_colors(n: int, i: int, convention: Convention) -> Dict[Edge, int]:
    """Colors pinned by the fixed boundary: position p carries 1 iff p <= i."""
    if not 0 <= i <= n:
        raise InvalidLabels("label %d outside 0..%d" % (i, n))
    colors: Dict[Edge, int] = {}
    for p, stubs in enumerate(boundary_positions(n, convention), start=1):
        c = 1 if p <= i else 0
        for e in stubs:
            colors[e] = c
    return colors


def input_stubs(n: int, convention: Convention) -> List[Edge]:
    out = list(south_staircase_stubs(n))
    out += west_stubs(n) if convention.flow == "we" else east_staircase_stubs(n)
    return out


def output_stubs(n: int, convention: Convention) -> List[Edge]:
    out = list(north_stubs(n))
    out += east_staircase_stubs(n) if convention.flow == "we" else west_stubs(n)
    return out


def weighted_stubs(n: int, convention: Convention) -> List[Edge]:
    if convention.weighted == "north":
        return north_stubs(n)
    if convention.weighted == "north_lateral":
        top = ("h", 1, n - 1) if convention.flow == "we" else ("h", 1, 0)
        return north_stubs(n) + [top]
    return output_stubs(n, convention)


def _r0_by_input() -> Dict[Tuple[int, int], List[Tuple[int, int, LocalOp]]]:
    by_in: Dict[Tuple[int, int], List[Tuple[int, int, LocalOp]]] = {}
    for (ii, jj, aa, bb), (_, op) in sorted(local_tensor(TensorKind.R0).items()):
        by_in.setdefault((ii, jj), []).append((aa, bb, op))
    return by_in


_R0_BY_INPUT = _r0_by_input()


# -- layer application -----------------------------------------------------

Binding = Union[Var, LaurentPoly, Mapping[Site, Union[Var, LaurentPoly]]]

# One step of a site sweep (of a layer or a column strip): a branch over the
# colors of a free input stub, (-1, slot), or a site, (occupancy index, h_in,
# v_in, h_out, v_out slots, table).  The site table is indexed by 4 h_in +
# 2 v_in + (occupancy > 0) and holds (h_out color, v_out color, occupancy
# change, alpha increment), or None where no R0 entry survives; `_with_units`
# turns the increment into a packed exponent shift.
LayerPlan = Tuple[Tuple[int, ...], Tuple[tuple, ...], Tuple[int, ...]]

_OCCUPANCY_CHANGE = {LocalOp.ID_B: 0, LocalOp.ID_R: 0, LocalOp.T_PROJ: 0,
                     LocalOp.B_PLUS: 1, LocalOp.B_MINUS: -1}


def _acts_on(op: LocalOp, occupied: bool) -> bool:
    """Whether an R0 operator leaves an empty/occupied site alive."""
    if op is LocalOp.B_MINUS:
        return occupied
    if op is LocalOp.T_PROJ:
        return not occupied
    return True


@functools.lru_cache(maxsize=None)
def _site_table(h_fixed: Optional[int], v_fixed: Optional[int], h_weighted: bool,
                v_weighted: bool) -> Tuple[Optional[Tuple[int, int, int, int]], ...]:
    """The table of one sweep site whose output edges carry the given fixed
    colors (None where free) and count toward alpha or not."""
    table: List[Optional[Tuple[int, int, int, int]]] = []
    for hv in (0, 1):
        for j in (0, 1):
            for occupied in (False, True):
                hits = [(aa, bb, _OCCUPANCY_CHANGE[op], aa * h_weighted + bb * v_weighted)
                        for aa, bb, op in _R0_BY_INPUT.get((hv, j), ())
                        if h_fixed in (None, aa) and v_fixed in (None, bb)
                        and _acts_on(op, occupied)]
                # R0 entries sharing an input pair differ in which
                # occupancies they kill, so a site never branches
                if len(hits) > 1:
                    raise AssertionError("R0 entries for input %r overlap" % ((hv, j),))
                table.append(hits[0] if hits else None)
    return tuple(table)


@functools.lru_cache(maxsize=None)
def _layer_plan(n: int, i: int, convention: Convention) -> LayerPlan:
    """The site sweep of the layer with label i: the initial edge colors by
    slot (-1 where not fixed), the steps, and the colors a free input stub
    is summed over.

    Sites come bottom row first and along the flow, so both inputs of a
    site are known when it is reached.  Each site table is already filtered
    against the fixed output stubs.
    """
    fixed = fixed_colors(n, i, convention)
    free_inputs = {e for e in input_stubs(n, convention) if e not in fixed}
    weighted = set(weighted_stubs(n, convention))
    west_flow = convention.flow == "we"
    index = {s: j for j, s in enumerate(sites(n))}
    slots: Dict[Edge, int] = {}

    def slot(e: Edge) -> int:
        return slots.setdefault(e, len(slots))

    known = set(fixed)
    steps: List[tuple] = []
    for k in range(n - 1, 0, -1):
        row = range(1, n - k + 1)
        for l in (row if west_flow else reversed(row)):
            h_in = ("h", k, l - 1) if west_flow else ("h", k, l)
            h_out = ("h", k, l) if west_flow else ("h", k, l - 1)
            v_in, v_out = ("v", k, l), ("v", k - 1, l)
            if v_in not in known or (h_in not in known and h_in not in free_inputs):
                raise AssertionError("site %r reached before its inputs" % ((k, l),))
            if h_in not in known:
                steps.append((-1, slot(h_in)))
            table = _site_table(fixed.get(h_out), fixed.get(v_out),
                                h_out in weighted, v_out in weighted)
            steps.append((index[(k, l)], slot(h_in), slot(v_in), slot(h_out),
                          slot(v_out), table))
            known.update((h_in, h_out, v_out))
    colors = [-1] * len(slots)
    for e, c in fixed.items():
        colors[slots[e]] = c
    residual = (0, 1) if convention.residual == "sum" else (0,)
    return tuple(colors), tuple(steps), residual


def _sweep(plan: LayerPlan, state: SiteState, cutoff: int,
           target: Optional[SiteState] = None, slack: int = 0
           ) -> Dict[Tuple[SiteState, int], int]:
    """(out_state, alpha) -> multiplicity for one plan acting on `state`,
    alpha the sum of the site increments along the move: its weighted output
    colors for a layer plan, its packed exponent shift for a plan from
    `_with_units`.

    A depth-first sweep over the sites: each site's operator acts on the
    occupancy as soon as the site is reached, so a branch ends at the first
    site that kills the state or disagrees with a fixed output stub, and the
    only branching is over the colors of free input stubs.  With a `target`
    only moves onto states within `slack` of it in every index are kept: a
    branch also ends at the first site whose (final) occupancy is farther
    from the target than that.  Raises CutoffOverflow if a surviving move
    raises an occupancy past `cutoff`.
    """
    colors0, steps, residual = plan
    colors = list(colors0)
    last = len(steps)
    moves: Dict[Tuple[SiteState, int], int] = {}

    # A branch writes only the slots of its own later steps, and every slot
    # is written before it is read, so returning from a branch needs no undo.
    def visit(t: int, occ: List[int], alpha: int, over: bool):
        while t < last:
            step = steps[t]
            t += 1
            if step[0] < 0:
                for hv in residual[1:]:
                    colors[step[1]] = hv
                    visit(t, occ[:], alpha, over)
                colors[step[1]] = residual[0]
                continue
            idx, h_in, v_in, h_out, v_out, table = step
            m = occ[idx]
            hit = table[4 * colors[h_in] + 2 * colors[v_in] + (m > 0)]
            if hit is None:
                return
            colors[h_out], colors[v_out], delta, d_alpha = hit
            if delta:
                if delta > 0 and m >= cutoff:
                    over = True
                m += delta
                occ[idx] = m
            # each occupancy index belongs to one step, so m is final here
            if target is not None and not -slack <= m - target[idx] <= slack:
                return
            alpha += d_alpha
        if over:
            raise CutoffOverflow("internal: occupancy exceeded the layer budget")
        out = tuple(occ)
        # share the input tuple when nothing moved, so a state the engine
        # keeps is held by one tuple, not two
        key = (state if out == state else out, alpha)
        moves[key] = moves.get(key, 0) + 1

    visit(0, list(state), 0, False)
    return moves


@functools.lru_cache(maxsize=256)
def _with_units(plan: LayerPlan, units: Tuple[int, ...]) -> LayerPlan:
    """`plan` with each site's alpha increment replaced by its occupancy
    change times units[p], p its occupancy index: a move's swept sum is then
    sum_p (out_p - in_p) units[p], which `_contract` adds to a packed
    exponent vector as it is.  Memoized with a bound: hashing a plan costs
    about a tenth of rebuilding it, which matters for small contractions."""
    colors, steps, residual = plan
    return colors, tuple(
        step if step[0] < 0 else step[:5] + (tuple(
            hit and hit[:3] + (hit[2] * units[step[0]],) for hit in step[5]),)
        for step in steps), residual


def _check_width(states: Iterable[Tuple[int, ...]], width: int):
    for state in states:
        if len(state) != width:
            raise ValueError("state width %d != operator width %d" % (len(state), width))


# -- the contraction engine -------------------------------------------------

# A coefficient of the engine: exponent vector -> integer count, with one
# exponent slot per distinct binding atom (a Var, or a polynomial raised to
# its power only when the result is built).
Counts = Dict[Tuple[int, ...], int]
# One operator of a product: its sweep plan, its weighing -- the slot of a
# scalar atom (an int; a move adds alpha there) or one slot per occupancy
# index (a tuple; a move adds out_p - in_p at slot p) -- and the derivative
# (slot, order) applied after it, or None.
ContractStep = Tuple[LayerPlan, Union[int, Tuple[int, ...]], Optional[Tuple[int, int]]]


def _contract(steps: Sequence[ContractStep], ket: SiteState, bra: Optional[SiteState],
              cutoff: int, n_slots: int,
              projections: Optional[Mapping[int, Tuple[int, int]]] = None
              ) -> Dict[SiteState, Counts]:
    """S_1 S_2 ... S_r |ket> for steps written left to right, as state ->
    exponent vector -> count.

    Without a `bra` every reached state is returned.  With one, only its
    entry is (if reached): each operator changes each occupancy by at most
    one, so the sweep of each step keeps only states within the number of
    steps left of `bra` in every index, and the last step sweeps only toward
    `bra`.  A derivative of order k maps exponent e at its slot to e - k
    with the count times e (e-1) ... (e-k+1).  `projections` maps a gap g
    (between S_g and S_{g+1}, 1-based) to (index, occupancy): only states
    with that occupancy pass the gap.

    Inside, an exponent vector is one integer holding e_s + bias in the
    `width` bits from bit width * s, so a move shifts a vector by one
    integer addition, and a vector over the r n(n-1)/2 slots of a per-site
    stack takes a few machine words where a tuple takes one per slot.
    """
    # |e_s| is at most the sum of what every step can change at slot s: a
    # scalar move's alpha is at most 2 per site, an index move is +-1
    reach = [0] * n_slots
    for plan, weigh, deriv in steps:
        if isinstance(weigh, tuple):
            for s in weigh:
                reach[s] += 1
        else:
            reach[weigh] += 2 * len(plan[1])
        if deriv:
            reach[deriv[0]] += deriv[1]
    width = max(reach, default=0).bit_length() + 1
    bias, mask = 1 << (width - 1), (1 << width) - 1
    zero = sum(bias << (width * s) for s in range(n_slots))
    # a scalar move's alpha is shifted into its slot; a per-index plan sweeps
    # its moves' packed shifts already (`_with_units`)
    sweeps = [(_with_units(plan, tuple(1 << (width * s) for s in weigh)), 0)
              if isinstance(weigh, tuple) else (plan, width * weigh)
              for plan, weigh, _ in steps]

    combo: Dict[SiteState, Dict[int, int]] = {ket: {zero: 1}}
    for left in range(len(steps) - 1, -1, -1):
        plan, offset = sweeps[left]
        deriv = steps[left][2]
        out: Dict[SiteState, Dict[int, int]] = {}
        for state, coeff in combo.items():
            for (new, alpha), mult in _sweep(plan, state, cutoff, bra, left).items():
                shift = alpha << offset
                acc = out.get(new)
                if acc is None:
                    acc = out[new] = {}
                for key, c in coeff.items():
                    key += shift
                    acc[key] = acc.get(key, 0) + c * mult
        if deriv:
            s, k = deriv
            for state, coeff in out.items():
                lowered: Dict[int, int] = {}
                for key, c in coeff.items():
                    e = ((key >> (width * s)) & mask) - bias
                    for j in range(k):
                        c *= e - j
                    if c:
                        lowered[key - (k << (width * s))] = c
                out[state] = lowered
        keep = projections.get(left) if projections and left >= 1 else None
        combo = {state: coeff for state, coeff in out.items()
                 if coeff and (keep is None or state[keep[0]] == keep[1])}
        if not combo:
            return {}
    if bra is not None:
        combo = {bra: combo[bra]} if bra in combo else {}
    return {state: {tuple(((key >> (width * s)) & mask) - bias for s in range(n_slots)): c
                    for key, c in coeff.items()}
            for state, coeff in combo.items()}


def _image(atoms: Sequence[Union[Var, LaurentPoly]], steps: Sequence[ContractStep],
           ket: KetCombo, cutoff: int) -> KetCombo:
    """The product of `steps` acting on a combination of states: one engine
    call per ket state, whose polynomials multiply its coefficient."""
    out: KetCombo = {}
    for state, coeff in ket.items():
        for new, counts in _contract(steps, state, None, cutoff, len(atoms)).items():
            add = LaurentPoly.from_exponents(atoms, counts) * coeff
            acc = out.get(new)
            out[new] = add if acc is None else acc + add
    return {s: c for s, c in out.items() if not c.is_zero()}


# -- partition specifications ---------------------------------------------

class LayerSpec:
    """One layer X_label(binding), differentiated `deriv` times in its
    variable."""

    def __init__(self, label: int, binding: Binding, deriv: int = 0):
        self.label = label
        self.binding = binding
        self.deriv = deriv

    def __eq__(self, other):
        if other.__class__ is LayerSpec:
            return ((self.label, self.binding, self.deriv)
                    == (other.label, other.binding, other.deriv))
        return NotImplemented

    def __repr__(self) -> str:
        return "LayerSpec(label=%r, binding=%r, deriv=%r)" % (
            self.label, self.binding, self.deriv)


class PartitionSpec:
    """A stack of layers on the triangle of size n, first layer first."""

    def __init__(self, n: int, layers: Iterable[LayerSpec]):
        if n < 2:
            raise ValueError("need n >= 2 for a nonempty triangle, got %d" % n)
        self.n = n
        self.layers: Tuple[LayerSpec, ...] = tuple(layers)
        for spec in self.layers:
            if not 0 <= spec.label <= n:
                raise InvalidLabels("label %d outside 0..%d" % (spec.label, n))
            if spec.deriv < 0:
                raise ValueError("negative derivative order")

    def __eq__(self, other):
        if other.__class__ is PartitionSpec:
            return (self.n, self.layers) == (other.n, other.layers)
        return NotImplemented

    def __repr__(self) -> str:
        return "PartitionSpec(n=%r, layers=%r)" % (self.n, self.layers)

    @property
    def all_scalar(self) -> bool:
        return all(not isinstance(s.binding, Mapping) for s in self.layers)


def scalar_spec(n: int, labels: Sequence[int], zvars: Optional[Sequence[Var]] = None,
                derivs: Optional[Sequence[int]] = None) -> PartitionSpec:
    """Layers X_{labels[0]}(z1) X_{labels[1]}(z2) ... with scalar variables."""
    if zvars is None:
        zvars = [Var.layer(t) for t in range(1, len(labels) + 1)]
    if derivs is None:
        derivs = [0] * len(labels)
    if not (len(labels) == len(zvars) == len(derivs)):
        raise ValueError("labels, variables and derivative orders must align")
    return PartitionSpec(n, tuple(
        LayerSpec(i, z, d) for i, z, d in zip(labels, zvars, derivs)))


def site_binding(n: int, t: int) -> Dict[Site, Var]:
    """The per-site variable family z_t^{(k,l)} of layer t."""
    return {(k, l): Var.site(t, k, l) for (k, l) in sites(n)}


def inhomogeneous_spec(n: int, labels: Sequence[int]) -> PartitionSpec:
    """Layers with independent site variables z_t^{(k,l)} (layer t)."""
    return PartitionSpec(n, tuple(
        LayerSpec(i, site_binding(n, t), 0)
        for t, i in enumerate(labels, start=1)))


# -- convention resolution -------------------------------------------------

_RESOLVED: Optional[Convention] = None


def _layer_steps(spec: PartitionSpec, convention: Convention
                 ) -> Tuple[List[Union[Var, LaurentPoly]], List[ContractStep]]:
    """The binding atoms of a stack, one exponent slot each, and its engine
    steps."""
    n = spec.n
    slots: Dict[Union[Var, LaurentPoly], int] = {}
    steps: List[ContractStep] = []
    for layer in spec.layers:
        binding = layer.binding
        if layer.deriv and not isinstance(binding, Var):
            raise ValueError("derivative layers need a scalar Var binding")
        if isinstance(binding, Mapping):
            weigh: Union[int, Tuple[int, ...]] = tuple(
                slots.setdefault(binding[s], len(slots)) for s in sites(n))
        else:
            weigh = slots.setdefault(binding, len(slots))
        steps.append((_layer_plan(n, layer.label, convention), weigh,
                      (weigh, layer.deriv) if layer.deriv else None))
    atoms = list(slots)
    # the derivative acts on exponent slots, so it must not hide inside a
    # polynomial atom
    for layer in spec.layers:
        if layer.deriv and any(isinstance(a, LaurentPoly) and layer.binding in a.variables()
                               for a in atoms):
            raise ValueError("a derivative variable also occurs in a polynomial binding")
    return atoms, steps


def _vev_counts(spec: PartitionSpec, convention: Convention
                ) -> Tuple[List[Union[Var, LaurentPoly]], Counts]:
    """The vev as binding atoms and exponent vector -> count (`_contract`)."""
    atoms, steps = _layer_steps(spec, convention)
    vac = vacuum_state(spec.n)
    counts = _contract(steps, vac, vac, len(spec.layers), len(atoms))
    return atoms, counts.get(vac, {})


def _vev(spec: PartitionSpec, convention: Convention) -> LaurentPoly:
    return LaurentPoly.from_exponents(*_vev_counts(spec, convention))


def _monomial_anchor(n: int, labels: Sequence[int], convention: Convention) -> bool:
    expected = LaurentPoly.monomial(
        {Var.layer(t): i for t, i in enumerate(labels, start=1) if i}, 1)
    return _vev(scalar_spec(n, labels), convention) == expected


def _passes_anchors(convention: Convention) -> bool:
    # weakly increasing label sequences give pure monomials (cheap rejects)
    for n, seqs in ((2, [(0,), (1,), (2,), (1, 2), (0, 2), (2, 2), (0, 1, 2)]),
                    (3, [(1, 3), (2, 2), (0, 1, 1), (1, 2, 3), (3, 3)])):
        for labels in seqs:
            if not _monomial_anchor(n, labels, convention):
                return False
    z = [Var.layer(t) for t in range(1, 6)]
    # three staggered-label configurations, exact polynomial with count 3
    got = _vev(scalar_spec(4, (3, 3, 1)), convention)
    expected = (LaurentPoly.monomial({z[0]: 3, z[1]: 2, z[2]: 2}, 1)
                + LaurentPoly.monomial({z[0]: 3, z[1]: 3, z[2]: 1}, 1)
                + LaurentPoly.monomial({z[0]: 2, z[1]: 3, z[2]: 2}, 1))
    if got != expected:
        return False
    # unique configuration for the full increasing staircase
    return _monomial_anchor(4, (1, 2, 3, 3, 4), convention)


def resolve_convention(n_probe: int = 4,
                       candidates: Optional[Iterable[Convention]] = None) -> Convention:
    """Select the unique boundary reading that reproduces the anchor battery.

    The battery: weakly increasing label sequences must give pure monomials
    prod z_t^{i_t}, and the two size-4 staggered anchors must give their
    known polynomials with the right configuration counts.
    """
    if n_probe < 4:
        raise ValueError("need a probe size of at least 4")
    pool = list(candidates) if candidates is not None else all_conventions()
    survivors = [c for c in pool if _passes_anchors(c)]
    if not survivors:
        raise NoConventionFound("no boundary reading matches the anchor values")
    if len(survivors) > 1:
        raise AmbiguousConvention(
            "anchor battery too weak, matched: %r" % (survivors,))
    return survivors[0]


def default_convention() -> Convention:
    """The resolved convention, computed once per process."""
    global _RESOLVED
    if _RESOLVED is None:
        _RESOLVED = resolve_convention(4)
    return _RESOLVED


def set_default_convention(convention: Optional[Convention]):
    """Install (or clear) the cached convention, e.g. from a file cache."""
    global _RESOLVED
    _RESOLVED = convention


# -- expectation values ----------------------------------------------------

def vev(spec: PartitionSpec, convention: Optional[Convention] = None) -> LaurentPoly:
    """Vacuum expectation value of the layer product, exactly.

    Layers are applied right to left to the vacuum with cutoff equal to the
    number of layers (occupancies grow by at most one per layer), then the
    vacuum coefficient is extracted.
    """
    if convention is None:
        convention = default_convention()
    return _vev(spec, convention)


def count_configurations(spec: PartitionSpec,
                         convention: Optional[Convention] = None) -> int:
    """Number of contributing global configurations: the vev's counts
    summed, which is the vev at all-ones when every binding is a Var."""
    if not spec.all_scalar:
        raise ValueError("configuration counting needs scalar bindings")
    if convention is None:
        convention = default_convention()
    return sum(_vev_counts(spec, convention)[1].values())


def enumerate_configurations(spec: PartitionSpec,
                             convention: Optional[Convention] = None
                             ) -> List[Tuple[Tuple[int, ...], LaurentPoly]]:
    """Contributing global configurations of a scalar spec.

    Each row is (per-layer z-exponents, monomial weight), sorted by the
    exponents; the weights sum to the vev.  A configuration is one choice of
    surviving coloring per layer that returns the vacuum to the vacuum.
    """
    if convention is None:
        convention = default_convention()
    if not spec.all_scalar:
        raise ValueError("configuration listing needs scalar bindings")
    for layer in spec.layers:
        if layer.deriv:
            raise ValueError("configuration listing needs plain layers")
    # one exponent slot per layer, so an exponent vector is a row
    steps: List[ContractStep] = [(_layer_plan(spec.n, layer.label, convention), t, None)
                                 for t, layer in enumerate(spec.layers)]
    vac = vacuum_state(spec.n)
    counts = _contract(steps, vac, vac, len(steps), len(steps)).get(vac, {})
    slots: Dict[Union[Var, LaurentPoly], int] = {}
    layer_slot = [slots.setdefault(layer.binding, len(slots)) for layer in spec.layers]
    rows: List[Tuple[Tuple[int, ...], LaurentPoly]] = []
    for alphas, count in sorted(counts.items()):
        exps = [0] * len(slots)
        for s, a in zip(layer_slot, alphas):
            exps[s] += a
        weight = LaurentPoly.from_exponents(list(slots), {tuple(exps): 1})
        rows.extend([(alphas, weight)] * count)
    return rows


# -- operator images -------------------------------------------------------

def apply_layer(n: int, label: int, convention: Convention, binding: Binding,
                deriv: int, ket: KetCombo, cutoff: int) -> KetCombo:
    """Act with the layer X_label on a combination of occupancy states.

    A scalar binding z weighs each move by z**alpha; a site-map binding (the
    per-site-variable layer) by prod_s z^{(s)} ** (out_s - in_s).
    Afterwards the whole coefficients are differentiated `deriv` times in
    the scalar variable.  Raises CutoffOverflow if a surviving move raises
    an occupancy past `cutoff`, and ValueError on a state of another width.
    """
    if deriv and not isinstance(binding, Var):
        raise ValueError("derivative layers need a scalar Var binding")
    _check_width(ket, n * (n - 1) // 2)
    spec = PartitionSpec(n, (LayerSpec(label, binding),))
    out = _image(*_layer_steps(spec, convention), ket, cutoff)
    if deriv:
        out = {s: c.derivative(binding, deriv) for s, c in out.items()}
        out = {s: c for s, c in out.items() if not c.is_zero()}
    return out


def apply_stack(spec: PartitionSpec, convention: Convention, ket: SiteState,
                cutoff: int) -> KetCombo:
    """The whole layer product of `spec` acting on the basis state `ket`,
    every reached state with its coefficient, in one engine call.  A
    derivative layer differentiates the coefficient of the layers right of
    it and itself, as in `vev`."""
    _check_width([ket], spec.n * (spec.n - 1) // 2)
    return _image(*_layer_steps(spec, convention), {tuple(ket): LaurentPoly.one()}, cutoff)


# -- column strip operators ------------------------------------------------

@functools.lru_cache(maxsize=None)
def _column_plan(ell: int, m: int) -> LayerPlan:
    """The site sweep of the column operator Y_ell on a width-m strip.

    Slots run bottom (m) to top (1): the vertical color enters at the bottom
    and leaves, free, at the top.  For ell < m the horizontal outputs are
    0^ell 1^(m-ell), the bottom input is 1, the first ell+1 horizontal inputs
    are summed and the rest pinned to 1; for ell = m the outputs are all 0,
    the bottom input is 0 and every horizontal input is summed.  Slot p acts
    on occupancy index p-1.  Edge slots: the vertical edge below slot p is p
    (0 is the top output), the horizontal input of slot p is m+p and its
    output 2m+p.
    """
    if not 0 <= ell <= m:
        raise ValueError("need 0 <= ell <= m")
    full = ell == m
    n_free = m if full else ell + 1
    colors = [-1] * (3 * m + 1)
    colors[m] = 0 if full else 1
    steps: List[tuple] = []
    for p in range(m, 0, -1):
        if p <= n_free:
            steps.append((-1, m + p))
        else:
            colors[m + p] = 1
        h_out = 0 if full or p <= ell else 1
        steps.append((p - 1, m + p, p, 2 * m + p, p - 1,
                      _site_table(h_out, None, False, False)))
    return tuple(colors), tuple(steps), (0, 1)


StripCombo = Dict[Tuple[int, ...], LaurentPoly]
StripLayer = Tuple[int, Sequence[Union[Var, LaurentPoly]]]


def apply_strip(ell: int, row_vars: Sequence[Union[Var, LaurentPoly]],
                combo: StripCombo, cutoff: int) -> StripCombo:
    """Act with the column operator Y_ell on a combination of slot
    occupancies of the width-m strip, m = len(row_vars).

    Slot p carries the q=0 z-dressed tensor with the p-th row variable, so a
    raise at slot p weighs row_vars[p-1] and a lower its inverse.  Raises
    CutoffOverflow if a surviving move raises an occupancy past `cutoff`,
    and ValueError on a state of another width.
    """
    _check_width(combo, len(row_vars))
    return _image(*_strip_steps([(ell, row_vars)], len(row_vars)), combo, cutoff)


def _strip_steps(layers: Sequence[StripLayer], m: int
                 ) -> Tuple[List[Union[Var, LaurentPoly]], List[ContractStep]]:
    """The row variables of width-m strip layers, one exponent slot each,
    and their engine steps."""
    slots: Dict[Union[Var, LaurentPoly], int] = {}
    steps: List[ContractStep] = []
    for ell, row_vars in layers:
        weigh = tuple(slots.setdefault(z, len(slots)) for z in row_vars)
        steps.append((_column_plan(ell, m), weigh, None))
    return list(slots), steps


def strip_vev(layers: Sequence[StripLayer], bra: Tuple[int, ...],
              ket: Tuple[int, ...],
              projections: Optional[Mapping[int, Tuple[int, int]]] = None
              ) -> LaurentPoly:
    """<bra| L_1 L_2 ... L_r |ket> for strip layers written left to right,
    each an (ell, row_vars) pair standing for Y_ell (see `apply_strip`),
    contracted by `_contract`.

    `projections` optionally maps a gap index g (between L_g and L_{g+1},
    1-based) to (slot, value): after the layers right of the gap have acted,
    only states with that slot occupancy are kept.  Raises ValueError when
    the bra, the ket and the layers differ in width.
    """
    _check_width([bra], len(ket))
    for _, row_vars in layers:
        _check_width([ket], len(row_vars))
    atoms, steps = _strip_steps(layers, len(ket))
    cutoff = len(layers) + max(ket, default=0)
    bra = tuple(bra)
    counts = _contract(steps, tuple(ket), bra, cutoff, len(atoms), projections)
    return LaurentPoly.from_exponents(atoms, counts.get(bra, {}))
