import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from trivertex import network, verify
from trivertex.network import (CONVENTION, Convention, _layer_plan, _sweep, all_conventions,
                               scalar_spec, vev)
from trivertex.poly import LaurentPoly, Var, packing
from trivertex.symfunc import schur_bialternant, schur_jacobi_trudi, schur_pragacz
from trivertex.verify import (
    CheckReport,
    check_average_ratio,
    check_column_decomposition,
    check_column_reduction,
    check_convention,
    check_deformed_limit,
    check_derivative_value,
    check_increasing_labels,
    check_inhomogeneous,
    check_loop_recursion,
    check_multiple_commutation,
    check_one_column,
    check_schur_oracles,
    check_schur_stack,
    check_tetrahedron,
    check_zf,
    increasing_grid,
    reports_to_json,
    run_battery,
    schur_grid,
)


def assert_pass(report):
    assert report.passed, (report.name, report.params, report.detail)


def test_zf_examples():
    assert_pass(check_zf(2, (1, 1)))
    assert_pass(check_zf(3, (0, 2)))
    assert_pass(check_zf(3, (2, 0)))
    assert_pass(check_zf(4, (1, 3)))


def test_zf_full_smallest():
    for i in range(3):
        for j in range(3):
            assert_pass(check_zf(2, (i, j)))


def test_increasing_labels():
    assert_pass(check_increasing_labels(3, (1, 2, 2)))
    assert_pass(check_increasing_labels(4, (0, 0, 1, 3)))
    assert_pass(check_increasing_labels(2, (2,)))
    with pytest.raises(ValueError):
        check_increasing_labels(3, (2, 1))


def assert_schur_stack(n, blocks):
    reports = check_schur_stack(n, blocks)
    assert [r.name for r in reports] == ["schur_correspondence", "counting"]
    for r in reports:
        assert_pass(r)
        assert r.params == {"n": n, "blocks": [list(b) for b in blocks]}


def test_schur_correspondence():
    assert_schur_stack(3, ((3, 2), (1, 1)))
    assert_schur_stack(4, ((4, 1), (2, 2)))
    assert_schur_stack(2, ((2, 1),))
    with pytest.raises(ValueError, match="strictly decreasing"):
        check_schur_stack(3, ((1, 1), (2, 1)))
    with pytest.raises(ValueError, match="0..n"):
        check_schur_stack(3, ((4, 1),))
    with pytest.raises(ValueError, match="no blocks"):
        check_schur_stack(3, [])
    # a multiplicity below 1 would leave an empty stack, which passes
    for block in ((2, 0), (2, -1), (2, True), (2, 1.0)):
        with pytest.raises(ValueError, match=r"block \(2, .*positive int"):
            check_schur_stack(3, [block])


@st.composite
def schur_stacks(draw):
    """(n, blocks) with n <= 6: strictly decreasing labels in 0..n, block
    multiplicities 1-2, at most 5 layers (blocks past that are dropped)."""
    n = draw(st.integers(2, 6))
    values = sorted(draw(st.lists(st.integers(0, n), min_size=1, max_size=5, unique=True)),
                    reverse=True)
    blocks = []
    for value in values:
        mult = draw(st.integers(1, 2))
        if sum(m for _, m in blocks) + mult > 5:
            break
        blocks.append((value, mult))
    return n, tuple(blocks)


@settings(max_examples=30, deadline=None)
@given(schur_stacks())
def test_decreasing_stacks_are_schur_polynomials_by_three_oracles(case):
    # the vev is the block prefactor times s_lambda, by the determinant, the
    # bialternant and the redistribution sum
    n, blocks = case
    labels, var_groups, parts, prefactor = verify._block_layout(blocks)
    zvars = [v for group in var_groups for v in group]
    got = vev(scalar_spec(n, labels))
    assert got == prefactor * schur_jacobi_trudi(parts, zvars)
    assert got == prefactor * schur_bialternant(parts, zvars)
    # each block's part sits at its first variable
    firsts = itertools.accumulate([0] + [len(g) for g in var_groups[:-1]])
    assert got == prefactor * schur_pragacz(
        [(parts[i], len(g)) for i, g in zip(firsts, var_groups)], var_groups)


def test_multiple_commutation():
    assert_pass(check_multiple_commutation(3, ((2, 1), (1, 1))))
    assert_pass(check_multiple_commutation(4, ((3, 2), (1, 1))))
    # away from the vacuum too
    assert_pass(check_multiple_commutation(
        3, ((2, 1), (0, 1)), kets=[(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 1)]))
    with pytest.raises(ValueError, match="no blocks"):
        check_multiple_commutation(3, [])
    with pytest.raises(ValueError, match=r"block \(2, 0\).*positive int"):
        check_multiple_commutation(3, [(2, 0)])


def test_derivative_value():
    assert_pass(check_derivative_value(4, (4, 3, 2, 1)))
    assert_pass(check_derivative_value(4, (3, 2, 1, 0)))
    assert_pass(check_derivative_value(3, (3, 1)))
    with pytest.raises(ValueError):
        check_derivative_value(3, (1, 1))


def test_counting_examples():
    assert_schur_stack(4, ((4, 1), (2, 1), (1, 1)))
    assert_schur_stack(3, ((3, 2), (1, 1)))
    assert_schur_stack(2, ((2, 1), (0, 1)))


def test_average_ratio():
    # 13/4, 7/2, 15/4: n-1 + ell/n, not any simpler-looking fraction
    for ell, ratio in ((1, "13/4"), (2, "7/2"), (3, "15/4")):
        r = check_average_ratio(4, ell)
        assert_pass(r)
        assert r.detail["ratio"] == ratio
    with pytest.raises(ValueError):
        check_average_ratio(4, 4)


def test_inhomogeneous():
    assert_pass(check_inhomogeneous(3, (1, 1, 1)))
    assert_pass(check_inhomogeneous(3, (2, 1, 1)))
    assert_pass(check_inhomogeneous(3, (1, 2, 2)))
    assert_pass(check_inhomogeneous(4, (1, 1, 1, 2)))
    with pytest.raises(ValueError):
        check_inhomogeneous(3, (1, 1))


def test_one_column():
    assert_pass(check_one_column(1, 1))
    assert_pass(check_one_column(2, 4))
    assert_pass(check_one_column(3, 5))


def test_mixed_boundary_column():
    # bra <1^k_ones, 0^ell| on a width-(k_ones + ell) column
    for k_ones, ell, n_layers in ((1, 1, 3), (2, 1, 3), (2, 2, 4),
                                  # more occupied bra slots than layers: both sides vanish
                                  (3, 0, 2),
                                  # no layers at all
                                  (1, 0, 0)):
        assert_pass(check_one_column(k_ones + ell, n_layers, bra_ones=k_ones))


def test_column_reduction():
    assert_pass(check_column_reduction(3, 0))
    assert_pass(check_column_reduction(3, 1))
    assert_pass(check_column_reduction(4, 0))


def test_column_decomposition():
    assert_pass(check_column_decomposition(2, 3))
    assert_pass(check_column_decomposition(3, 3))
    with pytest.raises(ValueError):
        check_column_decomposition(1, 3)


def test_oracle_cross_checks():
    assert_pass(check_schur_oracles(25))
    assert_pass(check_loop_recursion(25))
    assert_pass(check_deformed_limit())
    assert_pass(check_tetrahedron(3))


def test_convention_check():
    assert_pass(check_convention())


def test_convention_check_fails_on_a_stale_pin(monkeypatch):
    stale = Convention("we", "columns", "sum", "north")
    monkeypatch.setattr(verify, "CONVENTION", stale)
    report = check_convention()
    assert not report.passed
    assert report.params == {"resolved": str(CONVENTION)}
    assert report.detail == {"resolved": str(CONVENTION), "pinned": str(stale)}


def test_grid_sizes():
    assert len(list(schur_grid())) == 235
    assert len(list(increasing_grid())) == 431


def test_battery_selection_and_json():
    reports = run_battery("tetrahedron")
    assert len(reports) == 1
    assert reports[0].name == "tetrahedron"
    parsed = json.loads(reports_to_json(reports))
    assert parsed[0]["passed"] is True
    assert parsed[0]["params"] == {"cutoff": 4}
    with pytest.raises(ValueError):
        run_battery("nonsense")


def test_schur_battery_contracts_each_stack_once(monkeypatch):
    # the Schur comparison and the count share one contraction per instance
    calls = []
    contract = network._contract
    monkeypatch.setattr(network, "_contract",
                        lambda *args: calls.append(args) or contract(*args))
    assert verify.BATTERY["schur"][0] == (check_schur_stack, schur_grid)
    grid = list(schur_grid())
    reports = [r for n, blocks in grid for r in check_schur_stack(n, blocks)]
    assert len(calls) == len(grid) == len(reports) // 2
    assert all(r.passed for r in reports)
    assert [r.name for r in reports[:4]] == ["schur_correspondence", "counting"] * 2


def test_hat_group():
    reports = run_battery("hat")
    assert all(r.passed for r in reports), [r.name for r in reports if not r.passed]
    assert len(reports) == 8


def test_report_failure_shape():
    # force a mismatch by lying about the expected labels: a decreasing
    # sequence handed to the increasing check must raise, not mis-report
    r = check_zf(2, (0, 1), cutoff=3)
    assert r.passed
    assert r.seconds >= 0
    obj = r.to_obj()
    assert set(obj) == {"name", "params", "passed", "detail", "seconds"}


def test_check_report_value_semantics():
    r = CheckReport("x", {"n": 2}, True)
    assert (r.detail, r.seconds) == ({}, 0.0)
    assert r.detail is not CheckReport("x", {}, True).detail
    assert r == CheckReport(name="x", params={"n": 2}, passed=True, detail={}, seconds=0.0)
    assert r != CheckReport("x", {"n": 2}, True, seconds=1.0)
    assert repr(r) == ("CheckReport(name='x', params={'n': 2}, passed=True, "
                       "detail={}, seconds=0.0)")
    with pytest.raises(TypeError):
        hash(r)


def test_failing_report_carries_capped_diff(monkeypatch):
    # an oracle off by ten extra terms: the report keeps both sides and adds
    # the first eight terms of lhs - rhs in canonical order, and their count
    extra = LaurentPoly.zero()
    for k in range(10):
        extra = extra + LaurentPoly.monomial({Var.aux(k): 1})
    oracle = verify.schur_jacobi_trudi
    monkeypatch.setattr(verify, "schur_jacobi_trudi",
                        lambda parts, zvars: oracle(parts, zvars) + extra)
    r, count = check_schur_stack(3, ((3, 2), (1, 1)))
    assert_pass(count)
    assert not r.passed
    prefactor = LaurentPoly.monomial({Var.layer(1): 1, Var.layer(2): 1})
    diff = (-(prefactor * extra)).to_obj()
    assert len(diff) == 10
    assert r.detail["diff"] == diff[:8]
    assert r.detail["diff_terms"] == 10
    assert set(r.detail) == {"lhs", "rhs", "diff", "diff_terms"}
    json.dumps(r.to_obj())


@pytest.mark.parametrize("route", ["bialternant", "pragacz"])
def test_failing_oracle_reports_name_the_route(monkeypatch, route):
    # a route off by ten extra terms is reported against Jacobi-Trudi
    extra = LaurentPoly.zero()
    for k in range(10):
        extra = extra + LaurentPoly.monomial({Var.aux(k): 1})
    oracle = getattr(verify, "schur_" + route)
    monkeypatch.setattr(verify, "schur_" + route, lambda *args: oracle(*args) + extra)
    r = check_schur_oracles(5)
    assert not r.passed
    assert r.detail["route"] == route
    assert r.detail["diff"] == extra.to_obj()[:8]
    assert r.detail["diff_terms"] == 10
    assert set(r.detail) == {"parts", "vars", "route", "lhs", "rhs", "diff", "diff_terms"}
    json.dumps(r.to_obj())


def test_failing_loop_recursion_report_carries_capped_diff(monkeypatch):
    # every loop function off by the same ten terms: where both terms of the
    # recursion are loop functions (the first sample), the full value differs
    # from the recursion by -extra times the last column's variable
    extra = LaurentPoly.zero()
    for k in range(10):
        extra = extra + LaurentPoly.monomial({Var.aux(k): 1})
    loop = verify.loop_elementary
    monkeypatch.setattr(verify, "loop_elementary", lambda *args: loop(*args) + extra)
    r = check_loop_recursion(5)
    assert not r.passed
    rows, cols = r.detail["rows"], r.detail["cols"]
    diff = (-(extra * LaurentPoly.var(Var.site(cols, rows, 1)))).to_obj()
    assert r.detail["diff"] == diff[:8]
    assert r.detail["diff_terms"] == 10
    assert set(r.detail) == {"rows", "cols", "lhs", "rhs", "diff", "diff_terms"}
    json.dumps(r.to_obj())


def test_zf_rejects_an_empty_ket_box():
    # cutoff c checks the kets with occupancies below c - 1: none for c < 2
    for cutoff in (1, 0, -2):
        with pytest.raises(ValueError, match="empty"):
            check_zf(2, (0, 1), cutoff=cutoff)
    assert_pass(check_zf(2, (0, 1), cutoff=2))


def inner_lowered(plans, i, j, state):
    """The indices that a move of an inner layer of the pair (i, j) -- j,
    and i as well when i < j -- lowers on `state`, read off `_sweep`."""
    lowered = set()
    for label in ((j, i) if i < j else (j,)):
        for out, _ in _sweep(plans[label], state, max(state) + 2):
            lowered.update(p for p, (a, b) in enumerate(zip(state, out)) if b < a)
    return lowered


def zf_class(plans, i, j, state):
    """The class of `state` for the pair (i, j): its occupied indices, and
    those of them holding one that an inner move lowers."""
    lowered = inner_lowered(plans, i, j, state)
    return (frozenset(p for p, m in enumerate(state) if m),
            frozenset(p for p, m in enumerate(state) if m == 1 and p in lowered))


def class_representative(plans, i, j, state):
    """The first ket in product order with the class of `state`: 2 where an
    inner move lowers an occupancy of 2 or more, 1 at the other occupied
    indices."""
    lowered = inner_lowered(plans, i, j, state)
    return tuple(0 if not m else 2 if m > 1 and p in lowered else 1
                 for p, m in enumerate(state))


def zf_plans(n, pair):
    conv = CONVENTION
    return {label: _layer_plan(n, label, conv) for label in pair}


def zf_sides(n, i, j, state, cutoff):
    """`verify._zf_sides` on `state`, with fresh tables."""
    tables = verify._zf_tables(n, CONVENTION, (i, j))
    mask = index_set(m > 0 for m in state)
    return verify._zf_sides(tables, i, j, state, cutoff, mask,
                            index_set(m == 1 for m in state))


def test_zf_sides_depend_only_on_the_ket_class():
    # kets of one class have equal sides: every ket is compared with the
    # first of its class, so every pair of a class is covered
    rng = random.Random(5)
    for n in (2, 3, 4):
        width = n * (n - 1) // 2
        kets = list(itertools.product(range(5), repeat=width))
        for i, j in itertools.product(range(n + 1), repeat=2):
            plans = zf_plans(n, (i, j))
            first = {}
            for state in (kets if n < 4 else rng.sample(kets, 60)):
                sides = zf_sides(n, i, j, state, 6)
                cls = zf_class(plans, i, j, state)
                assert first.setdefault(cls, sides) == sides, (n, (i, j), state)
                rep = class_representative(plans, i, j, state)
                assert zf_class(plans, i, j, rep) == cls
                assert zf_sides(n, i, j, rep, 6) == sides, (n, (i, j), state)


def test_zf_above_cutoff_4_walks_only_class_representatives(monkeypatch):
    # one `_zf_sides` call per class, on the first ket of the class in
    # product order over the whole box
    calls = []
    sides = verify._zf_sides

    def counted(tables, i, j, state, *args):
        calls.append(state)
        return sides(tables, i, j, state, *args)

    monkeypatch.setattr(verify, "_zf_sides", counted)
    for n, pair, cutoff in ((3, (1, 2), 6), (3, (2, 1), 6), (3, (1, 2), 3),
                            (3, (2, 2), 4), (4, (1, 3), 5)):
        calls.clear()
        assert_pass(check_zf(n, pair, cutoff=cutoff))
        plans = zf_plans(n, pair)
        first = {}
        for state in itertools.product(range(cutoff - 1), repeat=n * (n - 1) // 2):
            first.setdefault(zf_class(plans, *pair, state), state)
        assert calls == list(first.values()), (n, pair, cutoff)


@pytest.fixture
def fresh_move_cache():
    # held here, since a test may patch the module attribute
    cached = verify._pattern_moves
    cached.cache_clear()
    yield
    cached.cache_clear()


def every_ket_zf_report(n, pair, cutoff):
    """(passed, detail) of `check_zf` by a walk of every ket of the box."""
    for state in itertools.product(range(cutoff - 1), repeat=n * (n - 1) // 2):
        lhs, rhs = zf_sides(n, *pair, state, cutoff)
        if lhs != rhs:
            diff = sorted((verify._zf_key(state, k), k) for k in lhs.keys() | rhs.keys()
                          if lhs.get(k) != rhs.get(k))
            key, raw = diff[0]
            return False, {"state": state, "vars": ("x", "y"), "key": key,
                           "lhs": lhs.get(raw, 0), "rhs": rhs.get(raw, 0),
                           "diff_terms": len(diff)}
    return True, {}


def test_skipped_classes_hide_no_failure(monkeypatch, fresh_move_cache):
    # one move table entry with a wrong multiplicity: the class walk fails
    # on the same ket, with the same detail, as a walk of every ket
    n, width = 3, 3
    moves = verify._pattern_moves
    failing_states = []
    for label in range(n + 1):
        for bad_mask in map(index_set, itertools.product((0, 1), repeat=width)):
            bad_plan = _layer_plan(n, label, CONVENTION)

            def wrong(plan, mask, width, bad_mask=bad_mask, bad_plan=bad_plan):
                got = moves(plan, mask, width)
                if mask == bad_mask and plan == bad_plan and got:
                    up, down, delta, alpha, mult = got[0]
                    got = ((up, down, delta, alpha, mult + 1),) + got[1:]
                return got

            monkeypatch.setattr(verify, "_pattern_moves", wrong)
            for other in range(n + 1):
                for pair in {(label, other), (other, label)}:
                    r = check_zf(n, pair, cutoff=5)
                    assert (r.passed, r.detail) == every_ket_zf_report(n, pair, 5), (
                        label, bad_mask, pair)
                    if not r.passed:
                        failing_states.append(r.detail["state"])
    # failures were found, some on kets that are not the first of their
    # occupied set
    assert any(2 in state for state in failing_states)


@settings(max_examples=40, deadline=2000)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)),
       st.tuples(*[st.integers(0, 4)] * 10))
def test_zf_holds_on_random_kets_at_n5(pair, state):
    i, j = pair
    lhs, rhs = zf_sides(5, i, j, state, 6)
    assert lhs == rhs
    rep = class_representative(zf_plans(5, pair), i, j, state)
    assert zf_sides(5, i, j, rep, 6) == (lhs, rhs)


def index_set(flags):
    """The set of indices whose flag holds, in the layout of
    `verify._pattern_moves`: bit 3 p for index p."""
    return sum(1 << (3 * p) for p, f in enumerate(flags) if f)


def test_pattern_moves_shift_the_sweep():
    # the moves on a 0/1 pattern, shifted onto any state with that occupied
    # set, are the sweep's moves there (at a cutoff it does not overflow)
    default = CONVENTION
    cases = [(n, conv, 4) for n in (2, 3) for conv in all_conventions()] + [(4, default, 3)]
    for n, conv, levels in cases:
        width = n * (n - 1) // 2
        for i in range(n + 1):
            plan = _layer_plan(n, i, conv)
            _, _, unpack = packing(3, width)
            for state in itertools.product(range(levels), repeat=width):
                mask = index_set(m > 0 for m in state)
                got = Counter()
                for up, down, delta, alpha, mult in verify._pattern_moves(plan, mask, width):
                    change = unpack(delta)
                    assert up == index_set(d > 0 for d in change)
                    assert down == index_set(d < 0 for d in change)
                    got[(tuple(m + d for m, d in zip(state, change)), alpha)] += mult
                assert got == _sweep(plan, state, levels), (n, conv, i, state)


def test_failing_zf_report_names_first_differing_key(monkeypatch):
    # keys of the ket (0,): the change to out_state, packed (one index, so
    # the change itself), then e_x, e_y
    sides = ({(1, 1, 0): 2, (0, 0, 0): 1, (2, 1, 1): 1}, {(1, 1, 0): 3, (0, 0, 0): 1})
    monkeypatch.setattr(verify, "_zf_sides", lambda *args: sides)
    r = check_zf(2, (0, 1), cutoff=3)
    assert not r.passed
    assert r.detail == {"state": (0,), "vars": ("x", "y"), "key": ((1,), 1, 0),
                        "lhs": 2, "rhs": 3, "diff_terms": 2}
