"""Triangular slice networks built from the undeformed vertex tensor.

A slice of size n is the triangle D_n = {(k, l) : k, l >= 1, k + l <= n}
with one Fock space per site.  A layer operator with label i is the sum over
all edge 2-colorings compatible with a fixed staircase boundary (the first i
boundary positions carry color 1), each coloring contributing the tensor
product of its per-site local operators weighted by z to the number of 1s on
the designated output boundary.

A layer acts on a map of occupancy states by a pruned depth-first sweep
over the sites (`_sweep_map`): each site's local operator acts as soon as
the site is reached, so a branch ends at the first site that kills the
state or disagrees with a fixed output stub.  The site tables are read off
`fock.apply_local` (`_site_table`), so the sweep runs on the operator action
whose relations `lattice.check_q0_relations` proves.  It branches over the
colors of free input stubs and over the states, read as a trie, so states
that agree on the sites swept so far share one branch.  Every plan comes
from one builder: `_frame` lays out the steps over a set of sites and
`_fill` puts in the colors and tables.  A one-column strip operator Y_ell
is column 1 of a triangle, built by the same two.

Every operator product but one is contracted by one engine, `_contract`, on
exact integers: each state carries a packed polynomial over one
`poly.Alphabet` of the binding variables, and its callers build
`LaurentPoly`s from the result with `Alphabet.poly`.  Its front end numbers
the variables into the alphabet, sets the cutoff and checks the states.  It
serves vacuum expectation values (`vev`, `count_configurations`, convention
resolution), the configuration listing (one exponent slot per layer, so an
exponent vector is a row), strip matrix elements (`strip_vev`) and the image
of a basis state under a whole stack (`apply_stack`).  Without a bra it
returns every state the ket reaches.  Given one, it contracts from both
ends: the ket side sweeps the layers or strips, the bra side their
transposes (`_layer_plan` and `_column_plan` with `reverse`: R0 is its own
transpose with the color flow reversed, so the transpose is the operator
swept against the flow), and the two are joined where they meet
(`poly.add_product`).
Each round expands the side whose next map is predicted smaller, from its
growth and the zero state's fan-out under its plans (`_fanout`).  The gap
closes by sweeping the smaller side onto the other side's states only:
when the last two steps have no derivatives, through both in one sweep
(`_sweep_map` of two plans, one walk over their shared site steps), so the
map between them is never built; otherwise through the last step alone.

A move leaves the sweep with its exponent shift.  A scalar layer's move
carries alpha, which the engine shifts into the layer's slot.  A per-index
step (a per-site layer or a strip) is swept on a plan whose site tables
hold each occupancy change times the packed unit of its index
(`_with_units`), so its moves carry their packed shifts, summed at the
sites where they happen.

The exception is the exchange-relation check `verify.check_zf`, which needs
every state a two-layer product reaches from every ket of a box.  `_sweep`
reads an occupancy only through whether it is positive, so
the check sweeps a layer once per occupied set (`verify._pattern_moves`),
keeps the moves as packed occupancy changes in a bounded memo shared by the
checks of a grid, and contracts one ket per class: the `zf` group sweeps
358 times, where one engine call per ket swept 114292 times.

The pictures defining the boundary geometry admit several readings; the
`Convention` type records one reading.  The paper's reading is pinned as
`CONVENTION`, the default of every function that takes a reading;
`resolve_convention` re-derives it as the unique one of the 24 readings
that reproduces a battery of independently known expectation values, in the
battery's `convention` check and in the tests.
"""

from __future__ import annotations

import functools
import math
from typing import (Callable, Collection, Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .fock import CutoffOverflow, LocalOp, TensorKind, apply_local, local_tensor
from .poly import Alphabet, LaurentPoly, Packed, Var, add_product


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

    Immutable, and equal and hashed by its four fields; the hash is computed
    once, as every plan lookup hashes the reading.
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
                             weighted=weighted, _hash=hash((flow, boundary, residual, weighted)))

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
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields, so that another process hashes it afresh
        return Convention, self._fields()

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


# the paper's reading; `resolve_convention()` re-derives it
CONVENTION = Convention("we", "staircase", "sum", "north_lateral")


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

# a layer's variable: one z_t, or a per-site family z_t^{(k,l)}
Binding = Union[Var, Mapping[Site, Var]]

# One step of a site sweep (of a layer, its transpose or a column strip): a
# branch over the colors of a free stub the sweep reads, (-1, slot), or a
# site, (occupancy index, h_in, v_in, h_out, v_out slots, table, None).  The
# site table is indexed by 4 h_in + 2 v_in + (occupancy > 0) and holds (h_out
# color, v_out color, occupancy change, alpha increment), or None where no R0
# entry survives; `_with_units` turns the increment into a packed exponent
# shift.  The last field is where a two-plan `_sweep_map` puts the second
# layer's table.  A plan is (initial colors by slot, steps, the colors a free
# stub is summed over, the occupancy indices in the order its sites read
# them).
LayerPlan = Tuple[Tuple[int, ...], Tuple[tuple, ...], Tuple[int, ...], Tuple[int, ...]]
# What a plan is built on (`_frame`): its steps before the tables go in, the
# slot of each edge, and its occupancy indices in site order.
Frame = Tuple[Tuple[tuple, ...], Dict[Edge, int], Tuple[int, ...]]


@functools.lru_cache(maxsize=None)
def _site_table(h_fixed: Optional[int], v_fixed: Optional[int], h_weighted: bool,
                v_weighted: bool) -> Tuple[Optional[Tuple[int, int, int, int]], ...]:
    """The table of one sweep site whose output edges carry the given fixed
    colors (None where free) and count toward alpha or not.  Each entry is
    read off `apply_local` at occupancy 0 or 1: a sweep reads an occupancy
    only through m > 0, and cutoff 3 leaves room for a raise from 1."""
    table: List[Optional[Tuple[int, int, int, int]]] = []
    for hv in (0, 1):
        for j in (0, 1):
            for m in (0, 1):
                hits = [(aa, bb, m2 - m, aa * h_weighted + bb * v_weighted, c)
                        for aa, bb, op in _R0_BY_INPUT.get((hv, j), ())
                        if h_fixed in (None, aa) and v_fixed in (None, bb)
                        for m2, c in apply_local(op, m, 3)]
                # R0 entries sharing an input pair differ in which
                # occupancies they kill, so a site never branches; every R0
                # coefficient is 1
                if len(hits) > 1 or any(not hit[4].is_one() for hit in hits):
                    raise AssertionError("R0 entries for input %r overlap or carry a"
                                         " coefficient" % ((hv, j),))
                table.append(hits[0][:4] if hits else None)
    return tuple(table)


@functools.lru_cache(maxsize=None)
def _reverse_table(h_fixed: Optional[int], v_fixed: Optional[int], h_weighted: bool,
                   v_weighted: bool) -> Tuple[Optional[Tuple[int, int, int, int]], ...]:
    """The table of one reverse-plan site: `_site_table`, with the alpha
    increment counted on the colors the site reads (its index) instead of
    those it produces."""
    return tuple(hit and hit[:3] + ((j >> 2) * h_weighted + (j >> 1 & 1) * v_weighted,)
                 for j, hit in enumerate(_site_table(h_fixed, v_fixed, False, False)))


@functools.lru_cache(maxsize=None)
def _layer_plan(n: int, i: int, convention: Convention, reverse: bool = False) -> LayerPlan:
    """The site sweep of the layer with label i (a `LayerPlan`).

    Sites come bottom row first and along the flow, so both inputs of a
    site are known when it is reached.  Each site table is already filtered
    against the fixed output stubs.

    With `reverse` it is the sweep of the transpose, which takes a move's
    out-state to its in-state with the same alpha and multiplicity.  R0 is
    its own transpose once the color flow is reversed (b+ and b- swap, t and
    the identities stay), so the transpose is the layer read against the
    flow on the same site tables: each site reads the colors of its forward
    outputs and produces those of its forward inputs (`_reverse_table`).
    The free output stubs are branched over both colors; the fixed input
    stubs, and under residual "zero" the free ones too, filter.  Sites go
    column by column against the flow, top row first within a column, so a
    branch on a column's north stub meets the fixed staircase stub at the
    column's foot within that column.
    """
    frame, zeros, residual = _plan_frame(n, convention, reverse)
    fixed = fixed_colors(n, i, convention)
    pinned = dict.fromkeys(zeros, 0)
    pinned.update(fixed)
    return _fill(frame, fixed, pinned, reverse, residual)


@functools.lru_cache(maxsize=None)
def _plan_frame(n: int, convention: Convention, reverse: bool):
    """What the plans of every label share: the `_frame` of the triangle,
    the free stubs pinned to 0 and the residual colors.  The fixed boundary
    stubs are the same for every label; only their colors vary."""
    fixed = {e for stubs in boundary_positions(n, convention) for e in stubs}
    inputs = input_stubs(n, convention)
    west_flow = convention.flow == "we"
    zeros: List[Edge] = []
    if reverse:
        if convention.residual == "zero":
            zeros = [e for e in inputs if e not in fixed]
        free = {e for e in output_stubs(n, convention) if e not in fixed}
        order = [(k, l) for l in (range(n - 1, 0, -1) if west_flow else range(1, n))
                 for k in range(1, n - l + 1)]
        residual = (0, 1)
    else:
        free = {e for e in inputs if e not in fixed}
        order = [(k, l) for k in range(n - 1, 0, -1)
                 for l in (range(1, n - k + 1) if west_flow else range(n - k, 0, -1))]
        residual = (0, 1) if convention.residual == "sum" else (0,)
    index = {s: j for j, s in enumerate(sites(n))}
    return (_frame(order, index, fixed, free, set(weighted_stubs(n, convention)), west_flow,
                   reverse), zeros, residual)


def _frame(order: Sequence[Site], index: Mapping[Site, int], fixed: Collection[Edge],
           free: Collection[Edge], weighted: Collection[Edge], west_flow: bool,
           reverse: bool) -> Frame:
    """The steps of a sweep over the sites in `order`, with the flow west to
    east or east to west, forward or against the flow (`reverse`): a branch
    over each `free` stub just before the first site that reads it, and a
    site as (its occupancy index, its four edge slots, its two output edges
    and whether each forward output is `weighted`).  The `fixed` stubs are
    known from the start.  Also returns the slot of each edge and the
    occupancy indices in the order the sites read them."""
    slots: Dict[Edge, int] = {}

    def slot(e: Edge) -> int:
        return slots.setdefault(e, len(slots))

    known = set(fixed)
    steps: List[tuple] = []
    for k, l in order:
        h_in = ("h", k, l - 1) if west_flow else ("h", k, l)
        h_out = ("h", k, l) if west_flow else ("h", k, l - 1)
        v_in, v_out = ("v", k, l), ("v", k - 1, l)
        # alpha counts the weighted forward outputs
        h_weighted, v_weighted = h_out in weighted, v_out in weighted
        if reverse:
            h_in, h_out, v_in, v_out = h_out, h_in, v_out, v_in
        for e in (h_in, v_in):
            if e not in known:
                if e not in free:
                    raise AssertionError("site %r reached before its inputs" % ((k, l),))
                steps.append((-1, slot(e)))
                known.add(e)
        steps.append((index[(k, l)], slot(h_in), slot(v_in), slot(h_out), slot(v_out),
                      h_out, v_out, h_weighted, v_weighted))
        known.update((h_out, v_out))
    return tuple(steps), slots, tuple(step[0] for step in steps if step[0] >= 0)


def _fill(frame: Frame, colors: Mapping[Edge, int], pinned: Mapping[Edge, int], reverse: bool,
          residual: Tuple[int, ...]) -> LayerPlan:
    """The plan of a `_frame`: the initial colors by slot, -1 where not in
    `colors`, and each site's table (`_site_table`, or `_reverse_table` with
    `reverse`) filtered against the `pinned` colors of the edges it
    produces; a free stub is summed over the `residual` colors."""
    steps, slots, order = frame
    table = _reverse_table if reverse else _site_table
    initial = [-1] * len(slots)
    for e, c in colors.items():
        initial[slots[e]] = c
    return tuple(initial), tuple(
        step if step[0] < 0 else step[:5] + (table(pinned.get(step[5]), pinned.get(step[6]),
                                                   step[7], step[8]), None)
        for step in steps), residual, order


def _sweep(plan: LayerPlan, state: SiteState, cutoff: int
           ) -> Dict[Tuple[SiteState, int], int]:
    """(out_state, alpha) -> multiplicity for one plan acting on `state`
    (`_sweep_map` of one state)."""
    return {(new, alpha): mult
            for new, coeff in _sweep_map([(plan, 0)], {state: {0: 1}}, cutoff).items()
            for alpha, mult in coeff.items()}


def _sweep_map(layers: Sequence[Tuple[LayerPlan, int]],
               states: Mapping[SiteState, Mapping[int, int]], cutoff: int,
               onto: Optional[Collection[SiteState]] = None
               ) -> Dict[SiteState, Dict[int, int]]:
    """The image of `states`, distinct states -> (key -> count), under one
    or two plans, each with an offset, the second acting after the first:
    each move adds alpha << offset to the keys of its state's counts, alpha
    the sum of the site increments along the move (its weighted output
    colors for a layer plan, its packed exponent shift for a plan from
    `_with_units`).

    A depth-first sweep over the sites: each site's operator acts on the
    occupancy as soon as the site is reached, so a branch ends at the first
    site that kills the state or disagrees with a fixed output stub.  It
    branches over the colors of free input stubs and over the input states,
    which it reads as a trie (`_trie`): states that agree on the sites swept
    so far share one branch, so a site is applied once per distinct prefix,
    not once per state.  With `onto`, distinct states, only moves onto those
    states are kept, and a branch ends at the first site whose occupancy
    leaves their trie.  Raises CutoffOverflow if a surviving move raises an
    occupancy past `cutoff`.

    Two plans need `onto` (ValueError otherwise): they are the close of two
    operators onto the other side's states.  Their site steps must agree,
    the same occupancy index and four slots in the same order, and so must
    their residual colors (ValueError otherwise), as for two layer plans of
    one `_plan_frame` or two column plans of one width and direction; their
    free stubs may differ.  One walk over the site steps carries the edge
    colors of both operators, the second's in slots after the first's: it
    branches over each color of a free stub of either, and at a site
    applies the first table and then the second to the occupancy in
    between, so the map between the two operators is never built.  A plan's
    site steps leave the second table's field None; the two-plan walk fills
    it in on a copy of the first plan's steps.
    """
    (colors0, steps, residual, order), offset = layers[0]
    colors, gap, second_offset = list(colors0), len(colors0), 0
    if len(layers) > 1:
        if onto is None:
            raise ValueError("a two-plan sweep keeps only moves onto given states")
        (second_colors, second_steps, second_residual, _), second_offset = layers[1]
        colors += second_colors
        # the second plan's free-stub branches go on its slots just before
        # the site they precede, after the first plan's, so the walk
        # branches over every color pair
        paired: List[tuple] = []
        j, end = 0, len(second_steps)
        for step in steps:
            if step[0] < 0:
                paired.append(step)
                continue
            while j < end and second_steps[j][0] < 0:
                paired.append((-1, second_steps[j][1] + gap))
                j += 1
            if j == end or second_steps[j][:5] != step[:5]:
                raise ValueError("two plans pair only where their site steps agree")
            paired.append(step[:6] + (second_steps[j][5],))
            j += 1
        if j < end or second_residual != residual:
            raise ValueError("two plans pair only where their site steps and residual"
                             " colors agree")
        steps = tuple(paired)
    last = len(steps)
    first_color, other_colors = residual[0], residual[1:]
    tree = _trie(order, states)
    occ = [0] * len(order)
    image: Dict[SiteState, Dict[int, int]] = {}

    # A branch writes only the colors and occupancies of its own later
    # steps, and every slot is written before it is read, so returning from
    # a branch needs no undo.  `node` is the input trie below the sites swept
    # so far, or the one state left below them; `into` likewise for `onto`.
    # `alpha2` sums the second plan's increments.
    def visit(t: int, node, into, alpha: int, alpha2: int, over: bool):
        while t < last:
            step = steps[t]
            t += 1
            if step[0] < 0:
                for colors[step[1]] in other_colors:
                    visit(t, node, into, alpha, alpha2, over)
                colors[step[1]] = first_color
                continue
            idx, h_in, v_in, h_out, v_out, table, second = step
            if node.__class__ is dict:
                if len(node) > 1:
                    # the input states part here
                    t -= 1
                    for m, below in node.items():
                        visit(t, {m: below}, into, alpha, alpha2, over)
                    return
                [(m, node)] = node.items()
            else:
                m = node[idx]
            hit = table[4 * colors[h_in] + 2 * colors[v_in] + (m > 0)]
            if hit is None:
                return
            colors[h_out], colors[v_out], delta, d_alpha = hit
            if delta:
                if delta > 0 and m >= cutoff:
                    over = True
                m += delta
            if into is None:
                # each occupancy index belongs to one step, so m is final here
                occ[idx] = m
            else:
                # only a sweep onto `onto` has a second table, so a sweep
                # without one never tests for it; m is final after it
                if second is not None:
                    hit = second[4 * colors[h_in + gap] + 2 * colors[v_in + gap] + (m > 0)]
                    if hit is None:
                        return
                    colors[h_out + gap], colors[v_out + gap], delta, d_alpha2 = hit
                    if delta:
                        if delta > 0 and m >= cutoff:
                            over = True
                        m += delta
                    alpha2 += d_alpha2
                if into.__class__ is dict:
                    into = into.get(m)
                    if into is None:
                        return
                elif into[idx] != m:
                    return
            alpha += d_alpha
        if over:
            raise CutoffOverflow("internal: occupancy exceeded the layer budget")
        new = into
        if new is None:
            new = tuple(occ)
            # share the input tuple when nothing moved, so a state the
            # engine keeps is held by one tuple, not two
            if new == node:
                new = node
        acc = image.get(new)
        if acc is None:
            acc = image[new] = {}
        shift = alpha << offset
        if alpha2:
            shift += alpha2 << second_offset
        for key, c in states[node].items():
            key += shift
            acc[key] = acc.get(key, 0) + c

    if tree:
        visit(0, tree, None if onto is None else _trie(order, onto), 0, 0, False)
    return image


def _trie(order: Sequence[int], states: Collection[SiteState]) -> dict:
    """Distinct states as nested dicts keyed by their occupancies at the
    indices in `order`, down to where a state is the only one below: that
    key maps to the state itself."""
    root: dict = {}
    for state in states:
        node, d = root, 0
        while True:
            m = state[order[d]]
            below = node.get(m)
            if below is None:
                node[m] = state
                break
            d += 1
            if below.__class__ is not dict:
                # two states share this prefix: split it one site further
                below = node[m] = {below[order[d]]: below}
            node = below
    return root


@functools.lru_cache(maxsize=256)
def _with_units(plan: LayerPlan, units: Tuple[int, ...]) -> LayerPlan:
    """`plan` with each site's alpha increment replaced by its occupancy
    change times units[p], p its occupancy index: a move's swept sum is then
    sum_p (out_p - in_p) units[p], which `_contract` adds to a packed
    exponent vector as it is.  Memoized with a bound: hashing a plan costs
    about a tenth of rebuilding it, which matters for small contractions."""
    colors, steps, residual, order = plan
    return colors, tuple(
        step if step[0] < 0 else step[:5] + (tuple(
            hit and hit[:3] + (hit[2] * units[step[0]],) for hit in step[5]), None)
        for step in steps), residual, order


# -- the contraction engine -------------------------------------------------

_FANOUT: Dict[tuple, int] = {}  # (plan_of.func, plan_of.args, reverse) -> `_fanout`
# One operator of a product: `plan_of`, which builds its sweep plan, and
# with `reverse` that of its transpose (a partial of `_layer_plan` or
# `_column_plan`); its variable, a Var whose power a move raises by its
# alpha (a scalar layer) or one Var per occupancy index p whose power a move
# raises by out_p - in_p (a per-site layer or a strip); and the order of the
# derivative in that Var applied after it, 0 for none.
ContractStep = Tuple[Callable[..., LayerPlan], Union[Var, Tuple[Var, ...]], int]


def _fanout(plan_of: Callable[..., LayerPlan], reverse: bool) -> int:
    """How many states `plan_of`'s plan, or its transpose, takes the zero state to."""
    key = plan_of.func, plan_of.args, reverse
    f = _FANOUT.get(key)
    if f is None:
        plan = plan_of(True) if reverse else plan_of()
        f = _FANOUT[key] = len(_sweep_map([(plan, 0)], {(0,) * len(plan[3]): {0: 1}}, 1))
    return f


def _contract(steps: Sequence[ContractStep], ket: Sequence[int],
              bra: Optional[Sequence[int]] = None,
              projections: Optional[Mapping[int, Tuple[int, int]]] = None
              ) -> Tuple[Alphabet, Dict[SiteState, Packed]]:
    """S_1 S_2 ... S_r |ket> for steps written left to right: the
    `poly.Alphabet` of the steps' distinct variables in order of first
    appearance, and state -> packed polynomial over it.

    The ket, the bra and every operator must have one width, and every
    occupancy must be a non-negative int (ValueError otherwise).  Each
    operator changes each occupancy by at most one, and the bra side starts
    from the bra, so the cutoff is the largest occupancy of the ket and the
    bra plus the number of steps.

    Without a `bra` every reached state is returned: the steps act on the
    ket right to left.  With one, only its entry is (if reached), and the
    product is contracted from both ends at once.  The ket side holds
    S_g ... S_r |ket> and sweeps forward plans; the bra side holds
    <bra| S_1 ... S_{g'} and sweeps the transposes (each step's `plan_of`
    with `reverse`, built only when the bra side reaches it), with per-index
    shifts negated.  When every step is on one side or the other, the states
    both sides hold are joined by convolving their exponent vectors.

    Each round expands the side whose next map is predicted smaller: with
    f(P) the number of states plan P takes the zero state to (`_fanout`),
    a side's last round grew it by f(last) ** beta, and its next is
    predicted to grow it by f(next) ** beta.  While a side holds one state,
    or both hold fewer states than a plan has sites, a probe cannot pay and
    the side with fewer states moves (the ket side on a tie).  The bra side
    stops at the first step with a derivative, so a contraction without a
    bra runs on the ket side alone.

    The round that closes the gap sweeps the side with fewer states (the
    bra side when it may), and only onto states the other side holds: the
    sweep follows their trie and ends a branch as soon as it leaves it, so
    that round costs about the states it sweeps.  When the last two steps
    can both cross (neither has a derivative) and no projection sits between
    them, they close in one round: the forward plans from the ket side, or
    the transposes from the bra side, swept together site by site in one
    `_sweep_map` (two layers, or two strips of any ells), so the map between
    the two, which the other side would mostly not meet, is never built.
    Anything else (a single step, a derivative, a projection between the
    two) closes through the last step alone.  Every round and every probe
    is one `_sweep_map` call.

    A derivative of order k maps exponent e at its slot to e - k with the
    count times e (e-1) ... (e-k+1).  `projections` maps a gap g (between
    S_g and S_{g+1}, 1-based) to (index, occupancy): only states with that
    occupancy pass the gap.

    The alphabet's reach is the largest reach of a slot, so a move shifts
    an exponent vector by one integer addition, and a vector over the r
    n(n-1)/2 slots of a per-site stack takes a few machine words where a
    tuple takes one per slot.
    """
    ket, bra = tuple(ket), bra if bra is None else tuple(bra)
    occupancies = ket if bra is None else ket + bra
    # a scalar step weighs its moves at one slot, a per-index step at one
    # slot per occupancy index
    slots: Dict[Var, int] = {}
    weighs: List[Union[int, Tuple[int, ...]]] = []
    widths = {len(ket)} if bra is None else {len(ket), len(bra)}
    plans = [plan_of() for plan_of, _, _ in steps]
    for plan, (_, var, _) in zip(plans, steps):
        widths.add(len(plan[3]))
        weighs.append(tuple([slots.setdefault(v, len(slots)) for v in var])
                      if isinstance(var, tuple) else slots.setdefault(var, len(slots)))
    # an occupancy's class must be int itself: a bool or a float is refused
    if len(widths) > 1 or any(m.__class__ is not int or m < 0 for m in occupancies):
        raise ValueError("ket %r, bra %r, widths %s over states and operators: need one"
                         " width and non-negative int occupancies" % (ket, bra, sorted(widths)))

    # |e_s| is at most the sum of what every step can change at slot s: a
    # scalar move's alpha is at most 2 per site, an index move is +-1, and a
    # derivative lowers its slot by its order
    reach = [0] * len(slots)
    for plan, (_, _, order), weigh in zip(plans, steps, weighs):
        if weigh.__class__ is tuple:
            for s in weigh:
                reach[s] += 1
        else:
            reach[weigh] += 2 * len(plan[1]) + order
    alphabet = Alphabet(slots, max(reach, default=0))
    units = alphabet.units
    cutoff = max(occupancies, default=0) + len(steps)

    # a step can cross when it has no derivative; the bra side stops at the
    # first step that cannot
    cross = [not order for _, _, order in steps]
    crossable = 0 if bra is None else (cross + [False]).index(False)

    zero = (0,) * len(plans[0][3]) if plans else ()

    def predicted(side: Mapping, last: tuple, plan_of: Callable, reverse: bool) -> float:
        # the last round grew the side by f(last) ** beta, the next by f(next) ** beta
        growth, last_of = last
        f_last = max(_fanout(last_of, reverse), 1)
        beta = math.log(growth) / math.log(f_last) if f_last > 1 else 1.0
        return len(side) * max(_fanout(plan_of, reverse), 1) ** beta

    kets: Dict[SiteState, Packed] = {ket: {0: 1}}
    bras: Dict[SiteState, Packed] = {bra: {0: 1}}
    # each side's last round: states out per state in, and its `plan_of`
    ket_last = bra_last = (1.0, None)
    lo, hi = 0, len(steps)  # the bra side holds S_1 .. S_lo, the ket side the rest
    while lo < hi:
        # the last two steps close in one sweep when both can cross and no
        # projection sits between them
        pairable = bra is not None and hi - lo == 2 and all(cross[lo:hi]) and not (
            projections and lo + 1 in projections)
        # the closes, and rounds where a probe cannot pay, move the side with
        # fewer states
        by_size = hi - lo == 1 or pairable or min(len(kets), len(bras)) == 1 or max(
            len(kets), len(bras)) < len(zero)
        on_bra = lo < crossable and (len(bras) < len(kets) if by_size else (
            predicted(bras, bra_last, steps[lo][0], True)
            < predicted(kets, ket_last, steps[hi - 1][0], False)))
        take = 2 if pairable else 1
        if on_bra:
            # the transpose's moves run from out-state to in-state, so its
            # per-index shifts are negated
            swept = range(lo, lo + take)
            lo += take
            sign, side, gap = -1, bras, lo
        else:
            hi -= take
            swept = range(hi + take - 1, hi - 1, -1)
            sign, side, gap = 1, kets, hi
        moves = []
        for g in swept:
            plan_of, _, order = steps[g]
            plan = plan_of(True) if on_bra else plans[g]
            weigh = weighs[g]
            # a scalar move's alpha is shifted into its slot; a per-index plan
            # sweeps its moves' packed shifts already (`_with_units`)
            if weigh.__class__ is tuple:
                moves.append((_with_units(plan, tuple(sign * units[s] for s in weigh)), 0))
            else:
                moves.append((plan, alphabet.width * weigh))
        # where the sides meet, only moves onto the other side's states count,
        # so the closing round costs about the states it sweeps
        onto = None if bra is None or lo < hi else kets if on_bra else bras
        out = _sweep_map(moves, side, cutoff, onto)
        # a one-plan sweep of the zero state alone is the probe of its fan-out
        if len(side) == 1 and take == 1 and onto is None and zero in side:
            _FANOUT[plan_of.func, plan_of.args, on_bra] = len(out)
        last = len(out) / len(side), plan_of
        # a pair has no derivative, so `order` and `weigh` are the one step's
        if order:
            for state, coeff in out.items():
                lowered: Packed = {}
                for key, c in coeff.items():
                    e = alphabet.read(key, weigh)
                    for j in range(order):
                        c *= e - j
                    if c:
                        lowered[key - order * units[weigh]] = c
                out[state] = lowered
        keep = projections.get(gap) if projections else None
        side = {state: coeff for state, coeff in out.items()
                if coeff and (keep is None or state[keep[0]] == keep[1])}
        if not side:
            return alphabet, {}
        if on_bra:
            bras, bra_last = side, last
        else:
            kets, ket_last = side, last
    if bra is not None:
        joined: Packed = {}
        for state, coeff in bras.items():
            if state in kets:
                add_product(joined, coeff, kets[state])
        kets = {bra: joined} if joined else {}
    return alphabet, kets


# -- partition specifications ---------------------------------------------

class LayerSpec:
    """One layer X_label(binding), differentiated `deriv` times in its
    variable.  Its fields cannot be reassigned once a `PartitionSpec` has
    checked them, and a site map is copied, so the caller's dict can change
    without reaching the layer."""

    def __init__(self, label: int, binding: Binding, deriv: int = 0):
        if isinstance(binding, Mapping):
            binding = dict(binding)
        self.__dict__.update(label=label, binding=binding, deriv=deriv)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to LayerSpec.%s" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete LayerSpec.%s" % name)

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
        for t, spec in enumerate(self.layers, start=1):
            # a bool or a float is refused, as an occupancy is in `_contract`
            if spec.label.__class__ is not int or spec.deriv.__class__ is not int:
                raise ValueError("layer %d: label %r and derivative order %r must be ints"
                                 % (t, spec.label, spec.deriv))
            if not 0 <= spec.label <= n:
                raise InvalidLabels("label %d outside 0..%d" % (spec.label, n))
            if spec.deriv < 0:
                raise ValueError("layer %d: negative derivative order" % t)
            if isinstance(spec.binding, Var):
                continue
            if not isinstance(spec.binding, Mapping):
                raise ValueError("layer %d: binding %r is neither a Var nor a site map"
                                 % (t, spec.binding))
            if spec.deriv:
                raise ValueError("layer %d: derivative layers need a scalar Var binding" % t)
            for s in sites(n):
                if not isinstance(spec.binding.get(s), Var):
                    raise ValueError("layer %d: site map binds no Var at site %r" % (t, s))

    def __eq__(self, other):
        if other.__class__ is PartitionSpec:
            return (self.n, self.layers) == (other.n, other.layers)
        return NotImplemented

    def __repr__(self) -> str:
        return "PartitionSpec(n=%r, layers=%r)" % (self.n, self.layers)

    @property
    def all_scalar(self) -> bool:
        return all(isinstance(s.binding, Var) for s in self.layers)


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

def _layer_steps(spec: PartitionSpec, convention: Convention) -> List[ContractStep]:
    """The engine steps of a stack; a site map becomes one Var per
    occupancy index."""
    n = spec.n
    return [(functools.partial(_layer_plan, n, layer.label, convention),
             layer.binding if isinstance(layer.binding, Var)
             else tuple(map(layer.binding.__getitem__, sites(n))), layer.deriv)
            for layer in spec.layers]


def _vev_counts(spec: PartitionSpec, convention: Convention) -> Tuple[Alphabet, Packed]:
    """The vev packed over the alphabet of its binding variables
    (`_contract`)."""
    vac = vacuum_state(spec.n)
    alphabet, counts = _contract(_layer_steps(spec, convention), vac, vac)
    return alphabet, counts.get(vac, {})


def _monomial_anchor(n: int, labels: Sequence[int], convention: Convention) -> bool:
    expected = LaurentPoly.monomial(
        {Var.layer(t): i for t, i in enumerate(labels, start=1) if i}, 1)
    return vev(scalar_spec(n, labels), convention) == expected


def _passes_anchors(convention: Convention) -> bool:
    # weakly increasing label sequences give pure monomials (cheap rejects)
    for n, seqs in ((2, [(0,), (1,), (2,), (1, 2), (0, 2), (2, 2), (0, 1, 2)]),
                    (3, [(1, 3), (2, 2), (0, 1, 1), (1, 2, 3), (3, 3)])):
        for labels in seqs:
            if not _monomial_anchor(n, labels, convention):
                return False
    z = [Var.layer(t) for t in range(1, 6)]
    # three staggered-label configurations, exact polynomial with count 3
    got = vev(scalar_spec(4, (3, 3, 1)), convention)
    expected = (LaurentPoly.monomial({z[0]: 3, z[1]: 2, z[2]: 2}, 1)
                + LaurentPoly.monomial({z[0]: 3, z[1]: 3, z[2]: 1}, 1)
                + LaurentPoly.monomial({z[0]: 2, z[1]: 3, z[2]: 2}, 1))
    if got != expected:
        return False
    # unique configuration for the full increasing staircase
    return _monomial_anchor(4, (1, 2, 3, 3, 4), convention)


def resolve_convention(candidates: Optional[Iterable[Convention]] = None) -> Convention:
    """Select the unique boundary reading that reproduces the anchor battery.

    The battery: weakly increasing label sequences must give pure monomials
    prod z_t^{i_t}, and the two size-4 staggered anchors must give their
    known polynomials with the right configuration counts.
    """
    pool = list(candidates) if candidates is not None else all_conventions()
    survivors = [c for c in pool if _passes_anchors(c)]
    if not survivors:
        raise NoConventionFound("no boundary reading matches the anchor values")
    if len(survivors) > 1:
        raise AmbiguousConvention(
            "anchor battery too weak, matched: %r" % (survivors,))
    return survivors[0]


# -- expectation values ----------------------------------------------------

def vev(spec: PartitionSpec, convention: Convention = CONVENTION) -> LaurentPoly:
    """Vacuum expectation value of the layer product, exactly.

    The product is contracted from both vacua at once (`_contract`): the
    last layers act on the ket, the transposes of the first layers on the
    bra, and the two sides are joined on the states both reach.
    """
    alphabet, counts = _vev_counts(spec, convention)
    return alphabet.poly(counts)


def count_configurations(spec: PartitionSpec,
                         convention: Convention = CONVENTION) -> int:
    """Number of contributing global configurations: the vev's counts
    summed, which is the vev at all-ones when every binding is a Var."""
    if not spec.all_scalar:
        raise ValueError("configuration counting needs scalar bindings")
    # a derivative scales the counts by its falling factorials
    if any(layer.deriv for layer in spec.layers):
        raise ValueError("configuration counting needs plain layers")
    return sum(_vev_counts(spec, convention)[1].values())


def enumerate_configurations(spec: PartitionSpec,
                             convention: Convention = CONVENTION
                             ) -> List[Tuple[Tuple[int, ...], LaurentPoly]]:
    """Contributing global configurations of a scalar spec.

    Each row is (per-layer z-exponents, monomial weight), sorted by the
    exponents; the weights sum to the vev.  A configuration is one choice of
    surviving coloring per layer that returns the vacuum to the vacuum.
    """
    if not spec.all_scalar:
        raise ValueError("configuration listing needs scalar bindings")
    for layer in spec.layers:
        if layer.deriv:
            raise ValueError("configuration listing needs plain layers")
    # one variable, so one exponent slot, per layer: an exponent vector is a row
    alphabet, counts = _vev_counts(PartitionSpec(spec.n, [
        LayerSpec(layer.label, Var.aux(t)) for t, layer in enumerate(spec.layers)]), convention)
    rows: List[Tuple[Tuple[int, ...], LaurentPoly]] = []
    for alphas, count in sorted((alphabet.unpack(key), c) for key, c in counts.items()):
        exps: Dict[Var, int] = {}
        for layer, a in zip(spec.layers, alphas):
            exps[layer.binding] = exps.get(layer.binding, 0) + a
        rows.extend([(alphas, LaurentPoly.monomial(exps))] * count)
    return rows


# -- stack images ----------------------------------------------------------

def apply_stack(spec: PartitionSpec, convention: Convention, ket: SiteState) -> KetCombo:
    """The whole layer product of `spec` acting on the basis state `ket`,
    every reached state with its coefficient, in one engine call.

    A scalar binding z weighs each move by z**alpha; a site-map binding (the
    per-site-variable layer) by prod_s z^{(s)} ** (out_s - in_s).  A
    derivative layer differentiates the coefficient of the layers right of
    it and itself, as in `vev`.  Raises ValueError on a state of another
    width or with an occupancy that is not a non-negative int.
    """
    # the engine takes each width from an operator, and an empty stack has none
    width = len(vacuum_state(spec.n))
    if len(ket) != width:
        raise ValueError("ket %r: need width %d for n = %d" % (ket, width, spec.n))
    alphabet, image = _contract(_layer_steps(spec, convention), ket)
    return {state: alphabet.poly(counts) for state, counts in image.items()}


# -- column strip operators ------------------------------------------------

@functools.lru_cache(maxsize=None)
def _column_plan(ell: int, m: int, reverse: bool = False) -> LayerPlan:
    """The site sweep of the column operator Y_ell on a width-m strip, or
    with `reverse` of its transpose, built as `_layer_plan`'s: the strip is
    column 1 of a triangle under flow "we", site (p, 1) acting on occupancy
    index p-1.

    The vertical color enters at the bottom and leaves, free, at the top.
    For ell < m the horizontal outputs are 0^ell 1^(m-ell), the bottom input
    is 1, the first ell+1 horizontal inputs are summed and the rest pinned
    to 1; for ell = m the outputs are all 0, the bottom input is 0 and every
    horizontal input is summed.  Forward the sites go bottom to top; the
    transpose goes top to bottom, branching over the free top edge, with the
    pinned horizontal inputs and the bottom input as filters.
    """
    if not 0 <= ell <= m or m < 1:
        raise ValueError("need a width m >= 1 and 0 <= ell <= m, got ell = %r, m = %r"
                         % (ell, m))
    full = ell == m
    n_free = m if full else ell + 1
    fixed = {("h", p, 1): 0 if p <= ell else 1 for p in range(1, m + 1)}
    fixed[("v", m, 1)] = 0 if full else 1
    fixed.update(dict.fromkeys([("h", p, 0) for p in range(n_free + 1, m + 1)], 1))
    column = [(p, 1) for p in range(1, m + 1)]
    if reverse:
        free, order = [("v", 0, 1)], column
    else:
        free, order = [("h", p, 0) for p in range(1, n_free + 1)], column[::-1]
    frame = _frame(order, {s: s[0] - 1 for s in column}, fixed, free, (), True, reverse)
    return _fill(frame, fixed, fixed, reverse, (0, 1))


StripLayer = Tuple[int, Sequence[Var]]


def strip_vev(layers: Sequence[StripLayer], bra: Tuple[int, ...],
              ket: Tuple[int, ...],
              projections: Optional[Mapping[int, Tuple[int, int]]] = None
              ) -> LaurentPoly:
    """<bra| L_1 L_2 ... L_r |ket> for strip layers written left to right,
    contracted from both ends by `_contract`: the ket side sweeps the column
    plans, the bra side their transposes (`_column_plan` with `reverse`).

    Each layer is an (ell, row_vars) pair standing for the column operator
    Y_ell on the width-m strip, m = len(row_vars).  Slot p carries the q=0
    z-dressed tensor with the p-th row variable, so a raise at slot p weighs
    row_vars[p-1] and a lower its inverse.

    `projections` optionally maps a gap index g (between L_g and L_{g+1},
    1-based) to (slot, value): after the layers right of the gap have acted,
    only states with that slot occupancy are kept.  Raises ValueError when
    the bra, the ket and the layers differ in width, when an occupancy is
    not a non-negative int, when a row variable is not a Var, or when a
    projection's gap is outside 1..r-1, its slot outside 0..m-1 or its
    occupancy not a non-negative int.
    """
    for t, (_, row_vars) in enumerate(layers, start=1):
        if not all(isinstance(z, Var) for z in row_vars):
            raise ValueError("strip layer %d: every row variable must be a Var" % t)
    for gap, (slot, value) in (projections or {}).items():
        # an occupancy's class must be int itself, as in `_contract`
        if not (0 < gap < len(layers) and 0 <= slot < len(ket)
                and value.__class__ is int and value >= 0):
            raise ValueError("projection at gap %r, slot %r, occupancy %r: need a gap in 1..%d,"
                             " a slot in 0..%d and a non-negative int occupancy"
                             % (gap, slot, value, len(layers) - 1, len(ket) - 1))
    alphabet, counts = _contract([(functools.partial(_column_plan, ell, len(zs)), tuple(zs), 0)
                                  for ell, zs in layers], ket, bra, projections)
    return alphabet.poly(counts.get(tuple(bra), {}))
