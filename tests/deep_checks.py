"""Identity checks past the battery's n <= 4, at larger n, cutoffs and widths.

The file name does not match ``test_*.py``, so the tier-1 run does not
collect it.  Run it by path, about 11 s:

    PYTHONPATH=src python -m pytest -q tests/deep_checks.py --durations=10
"""
import itertools

import pytest

from trivertex.lattice import tetrahedron_check
from trivertex.poly import Var
from trivertex.symfunc import schur_bialternant, schur_jacobi_trudi, schur_pragacz
from trivertex.verify import (check_average_ratio, check_column_decomposition,
                              check_column_reduction, check_derivative_value,
                              check_inhomogeneous, check_loop_recursion, check_one_column,
                              check_schur_oracles, check_schur_stack, check_zf)


def assert_pass(report):
    assert report.passed, report.to_obj()


def compact(value):
    """Test ids for list and tuple parameters, without spaces."""
    if isinstance(value, (list, tuple)):
        return str(value).replace(" ", "")
    return None


@pytest.mark.parametrize("cutoff", (5, 6, 7, 8))
def test_tetrahedron(cutoff):
    report = tetrahedron_check(cutoff)
    assert report["passed"], (len(report["mismatches"]), report["mismatches"][:1])


@pytest.mark.parametrize("i, j", itertools.product(range(6), repeat=2))
def test_exchange_relations(i, j):
    # the cutoff-4 box holds the cutoff-3 box
    assert_pass(check_zf(5, (i, j), cutoff=4))


# sizes (1,...,1,m) for m = 1..3, and one block of 2 in each of the first
# n-1 places
INHOMOGENEOUS = [(n, [1] * (n - 1) + [m]) for n in (5, 6) for m in (1, 2, 3)]
INHOMOGENEOUS += [(n, [2 if p == q else 1 for p in range(n)]) for n in (5, 6) for q in range(n - 1)]


@pytest.mark.parametrize("n, sizes", INHOMOGENEOUS, ids=compact)
def test_inhomogeneous(n, sizes):
    assert_pass(check_inhomogeneous(n, sizes))


@pytest.mark.parametrize("n, extra", itertools.product((5, 6, 7, 8), (0, 1, 2)))
def test_column_reduction(n, extra):
    assert_pass(check_column_reduction(n, extra))


# strips with projections at widths past the battery's k <= 4: the zero bra
# and every mixed bra <1^ones, 0^(k-ones)|
@pytest.mark.parametrize("k, r, ones", [(k, r, ones) for k in (4, 5) for ones in range(k + 1)
                                        for r in range(k - ones, 7)])
def test_one_column(k, r, ones):
    assert_pass(check_one_column(k, r, ones))


@pytest.mark.parametrize("k, r", ((4, 6), (5, 7), (6, 7)))
def test_column_decomposition(k, r):
    assert_pass(check_column_decomposition(k, r))


# strictly decreasing labels in 0..n, block multiplicities 1-2, at most 5
# layers
SCHUR_STACKS = [(n, tuple(zip(values, mults)))
                for n in (5, 6) for m in range(1, 6)
                for values in itertools.combinations(range(n, -1, -1), m)
                for mults in itertools.product((1, 2), repeat=m) if sum(mults) <= 5]
# the frontier: the stacks where the two-sided contraction joins the most
# states
SCHUR_STACKS += [(8, ((7, 2), (5, 2), (1, 2))), (9, ((8, 2), (6, 2), (1, 2))),
                 (10, ((9, 2), (7, 2), (1, 2))), (9, tuple((v, 1) for v in range(8, 0, -1)))]


@pytest.mark.parametrize("n, blocks", SCHUR_STACKS, ids=compact)
def test_schur_stack(n, blocks):
    # one contraction per stack gives its vev and its configuration count,
    # so it serves both the Schur and the counting report
    for report in check_schur_stack(n, blocks):
        assert_pass(report)


# a derivative reads one packed exponent field in the middle of a
# contraction; the battery's hat group stops at n = 4
@pytest.mark.parametrize("labels", itertools.combinations(range(5, -1, -1), 5), ids=compact)
def test_derivative_value(labels):
    assert_pass(check_derivative_value(5, labels))


@pytest.mark.parametrize("ell", range(1, 5))
def test_average_ratio(ell):
    assert_pass(check_average_ratio(5, ell))


# the first two frontier stacks' partitions by the three oracle routes; the
# battery compares the routes at no more than 4 variables
@pytest.mark.parametrize("parts", [(5, 5, 4, 4, 1, 1), (6, 6, 5, 5, 1, 1)], ids=compact)
def test_schur_routes_in_six_variables(parts):
    z = [Var.layer(t) for t in range(1, 7)]
    blocks = [(p, len(list(run))) for p, run in itertools.groupby(parts)]
    groups = [z[2 * k:2 * k + 2] for k in range(3)]
    jacobi_trudi = schur_jacobi_trudi(parts, z)
    assert schur_bialternant(parts, z) == jacobi_trudi
    assert schur_pragacz(blocks, groups) == jacobi_trudi


# every oracle packs and converts through one Alphabet: the three Schur
# routes and the loop recursion on 1000 random instances each
@pytest.mark.parametrize("check", (check_schur_oracles, check_loop_recursion),
                         ids=lambda check: check.__name__)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_oracles(check, seed):
    assert_pass(check(1000, seed))
