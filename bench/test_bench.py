"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q bench/test_bench.py

They run each workload once traced and once untraced (about a minute), and
check that the trace wraps what it claims, does not change results, and
reproduces the ROADMAP Baseline counts.
"""

import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest

import layertrace
import run
import worker
import workloads

# which workload must exercise each wrap target (the per-layer table in
# bench/README.md)
EXERCISED_ON = {
    "network.apply_layer": ("ladder", "per_site"),
    "network.enumerate_layer_terms": ("ladder",),
    "network.layer_transitions": ("ladder", "battery"),
    "network.build_Y": ("per_site",),
    "network.apply_strip": ("per_site",),
    "network.strip_vev": ("per_site",),
    "network.resolve_convention": run.WORKLOADS,
    "poly.mul": ("ladder", "per_site"),
    "poly.add": ("ladder", "per_site"),
    "poly.pow": ("per_site",),
    "poly.derivative": ("battery",),
    "poly.substitute": ("battery",),
    "poly.exact_divide": ("battery",),
    "symfunc.det_poly": ("battery",),
    "symfunc.elementary": ("battery",),
    "symfunc.schur_jacobi_trudi": ("battery",),
    "symfunc.schur_bialternant": ("battery",),
    "symfunc.schur_pragacz": ("battery",),
    "symfunc.loop_elementary_general": ("battery",),
    "fock.apply_local": ("battery",),
    "lattice.local_tensor": ("battery",),
    "lattice.tetrahedron_check": ("battery",),
    "cli.main": ("cli",),
    "cli.render_poly": ("cli",),
    "cli.load_or_resolve_convention": ("cli",),
}


@pytest.fixture(scope="module")
def tmp_root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench"))


@pytest.fixture(scope="module")
def passes(tmp_root):
    """{workload: (untraced pass, traced pass)} at the default seed."""
    return {w: (run.run_worker(w, workloads.DEFAULT_SEED, False, tmp_root),
                run.run_worker(w, workloads.DEFAULT_SEED, True, tmp_root))
            for w in run.WORKLOADS}


def test_every_target_is_wrapped_and_exercised(passes):
    assert set(EXERCISED_ON) == set(layertrace.TARGETS)
    for target, names in EXERCISED_ON.items():
        for w in names:
            traced = passes[w][1]
            assert target not in traced["absent"]
            assert traced["layers"]["%s.calls" % target] >= 1, (target, w)


def test_traced_results_equal_untraced(passes):
    for w, (plain, traced) in passes.items():
        assert plain["ops"] == traced["ops"]
        assert plain["digests"] == traced["digests"], w
        assert plain["failures"] == traced["failures"] == []


def test_counts_repeat_exactly(passes, tmp_root):
    again = run.run_worker("per_site", workloads.DEFAULT_SEED, True, tmp_root)
    first = passes["per_site"][1]["layers"]
    for name, value in again["layers"].items():
        if not name.endswith("self_s"):
            assert first[name] == value, name


def test_battery_yields_1044_reports(passes):
    assert sum(workloads.BATTERY_GROUPS.values()) == 1044
    assert passes["battery"][0]["checks"] == 1044
    assert passes["battery"][0]["failures"] == []


def test_resolution_happens_once_in_setup(passes):
    # set-up resolves the convention; no operation of the pass resolves it
    # again (the self-test checks that the vev it traces applies only its
    # own five layers)
    assert passes["ladder"][1]["layers"]["network.resolve_convention.calls"] == 1


def test_selftest_reproduces_roadmap_baseline(tmp_root):
    lines, failures, attempted = run.selftest(tmp_root)
    assert failures == [] and attempted == 2
    assert lines[-1] == "trace self-test reproduces the ROADMAP Baseline counts"


def test_absent_target_is_reported_not_raised():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    try:
        tracer = layertrace.install({
            "network.gone": ("trivertex.network", "no_such_function"),
            "nomodule.f": ("trivertex.no_such_module", "f"),
            "poly.add": ("trivertex.poly", "LaurentPoly.__add__"),
        })
    finally:
        sys.path.pop(0)
    from trivertex import LaurentPoly, Var

    assert tracer.absent == ["network.gone", "nomodule.f"]
    tracer.on = True
    x = LaurentPoly.var(Var.layer(1))
    assert x + x == 1 + x + x - 1
    tracer.on = False
    figures = tracer.metrics()
    assert figures["network.gone.calls"] == 0
    # __radd__ aliases __add__ and is rebound with it
    assert figures["poly.add.calls"] >= 3


def test_calibration_scales_by_the_adjacent_references():
    nominal = run.REF_NOMINAL_S
    p = {"times": [1.0, 3.0], "refs": [nominal, nominal, 2 * nominal]}
    assert run.calibrated(p) == [1.0, 2.0]
    tracemalloc.start()
    try:
        assert worker.reference_s() > 0
        assert tracemalloc.get_traced_memory()[1] < 1024
    finally:
        tracemalloc.stop()


def test_default_seed_gives_the_named_instances():
    names = [rung[2] for rung in workloads.LADDER_RUNGS]
    assert names == [(5, 5, 3, 3, 1, 1), (6, 4, 4, 2, 2, 0), (6, 5, 3, 2, 1),
                     (6, 5, 3, 2, 1)]
    for kind, n, labels, _, pool in workloads.LADDER_RUNGS:
        for other in pool:
            assert len(other) == len(labels)
            assert [m for _, m in workloads._blocks(other)] == \
                [m for _, m in workloads._blocks(labels)]


def test_declared_metrics_are_all_produced(passes):
    spec = run.load_spec()
    ladder_plain, ladder_traced = passes["ladder"]
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(run.end_to_end([ladder_plain], [1.0]))
    names = [m["name"] for m in spec["per_layer"]]
    assert set(run.per_layer(names, [ladder_plain], [ladder_traced])) == set(names)
    produced = set()
    for p, t in passes.values():
        produced.update(k for k, v in t["layers"].items() if v)
    layer_names = {n for n in names if not n.startswith(("verify.", "trace."))}
    assert layer_names <= produced | {"network.apply_layer.yield"}


def test_cli_expected_outputs_cover_the_script():
    expected = workloads.load_cli_expected()
    assert set(expected) == set(workloads.CLI_SCRIPT)
    for line, text in workloads.README_OUTPUTS.items():
        assert expected[line] == text


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, stdout=subprocess.PIPE, timeout=180)
    assert done.returncode != 0
    assert b'"correct"' not in done.stdout
