"""Acceptance battery: ten exact end-to-end criteria, one line of output each.

Every expected value is either anchored to the frozen worked examples, derived
from an independent oracle, or both; all comparisons are exact.
"""

import sys
import time

from trivertex import verify as V


def emit(capsys, num, name, ok, seconds, note=""):
    line = "ACCEPTANCE %02d %-24s %s (%.2fs)%s" % (
        num, name, "PASS" if ok else "FAIL", seconds,
        "  " + note if note else "")
    # step outside pytest's capture so one line per criterion always shows
    with capsys.disabled():
        sys.stdout.write(line + "\n")
        sys.stdout.flush()


def run_criterion(capsys, num, name, budget, body, note=""):
    t0 = time.time()
    failures = []
    try:
        failures = body()
    except Exception as exc:  # the line must appear even on a crash
        failures = ["exception: %r" % exc]
    elapsed = time.time() - t0
    ok = not failures and elapsed < budget
    if not failures and elapsed >= budget:
        failures = ["over budget: %.1fs >= %ds" % (elapsed, budget)]
    emit(capsys, num, name, ok, elapsed, note)
    assert ok, failures[:5]


def collect(reports):
    return [(r.name, r.params, r.detail) for r in reports if not r.passed]


def test_criterion_01_convention_resolution(capsys):
    run_criterion(capsys, 1, "convention resolution", 60,
                  lambda: collect([V.check_convention()]))


def test_criterion_02_tetrahedron(capsys):
    run_criterion(capsys, 2, "tetrahedron equation", 60,
                  lambda: collect([V.check_tetrahedron(4)]))


def test_criterion_03_exchange_relations(capsys):
    def body():
        return collect(V.check_zf(n, pair, cutoff=4)
                       for n, pair in V.zf_grid())
    run_criterion(capsys, 3, "exchange relations", 300, body)


def test_criterion_04_schur_correspondence(capsys):
    def body():
        return collect(V.check_schur_stack(n, blocks)[0]
                       for n, blocks in V.schur_grid())
    run_criterion(capsys, 4, "Schur correspondence", 600, body,
                  note="235 block instances")


def test_criterion_05_increasing_labels(capsys):
    def body():
        return collect(V.check_increasing_labels(n, labels)
                       for n, labels in V.increasing_grid())
    run_criterion(capsys, 5, "increasing-label monomial", 600, body,
                  note="431 sequences")


def test_criterion_06_counting_and_averages(capsys):
    def body():
        reports = [V.check_schur_stack(n, blocks)[1] for n, blocks in V.schur_grid()]
        reports += [V.check_average_ratio(4, ell) for ell in (1, 2, 3)]
        return collect(reports)
    run_criterion(capsys, 6, "counting and averages", 600, body,
                  note="ratios 13/4, 7/2, 15/4 = n-1+l/n per source derivation")


def test_criterion_07_derivative_values(capsys):
    def body():
        labels_list = [(4, 3, 2, 1), (4, 3, 2, 0), (4, 3, 1, 0),
                       (4, 2, 1, 0), (3, 2, 1, 0)]
        return collect(V.check_derivative_value(4, labels)
                       for labels in labels_list)
    run_criterion(capsys, 7, "derivative closed forms", 600, body)


def test_criterion_08_inhomogeneous(capsys):
    def body():
        cases = [(n, tuple([1] * (n - 1) + [m])) for n in (3, 4)
                 for m in (1, 2, 3)]
        cases += [(3, (2, 1, 1)), (3, (1, 2, 2))]
        return collect(V.check_inhomogeneous(n, sizes) for n, sizes in cases)
    run_criterion(capsys, 8, "site-variable stacks", 600, body,
                  note="values live in column-1 variables only")


def test_criterion_09_column_identities(capsys):
    def body():
        reports = []
        for k in (1, 2, 3):
            for n in range(k, 6):
                reports.append(V.check_one_column(k, n))
        for k_ones in range(0, 5):
            for ell in range(0, 5):
                if not 1 <= k_ones + ell <= 4:
                    continue
                lo = ell if k_ones else k_ones + ell
                for n in range(lo, 6):
                    reports.append(
                        V.check_one_column(k_ones + ell, n, bra_ones=k_ones))
        for n in (3, 4):
            for extra in (0, 1):
                reports.append(V.check_column_reduction(n, extra))
        for k in (2, 3):
            for n in (3, 4):
                reports.append(V.check_column_decomposition(k, n))
        return collect(reports)
    run_criterion(capsys, 9, "column strip identities", 600, body)


def test_criterion_10_oracle_cross_checks(capsys):
    def body():
        return collect([V.check_schur_oracles(50),
                        V.check_loop_recursion(50),
                        V.check_deformed_limit()])
    run_criterion(capsys, 10, "oracle cross-checks", 600, body)
