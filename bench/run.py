"""The trivertex benchmark.

    python3 bench/run.py --workload ladder [--seed 0] [--seconds 30] [--trace 0]

Run from the root of a checkout.  Each pass over the workload runs in a
fresh interpreter (`bench/worker.py`), one at a time, so module-level caches
and the on-disk convention cache start empty as they do for a user.  Passes
repeat until `--seconds` is used up.  Times are medians over the passes, in
reference seconds: each is scaled by the speed of the machine measured next
to it (see REF_NOMINAL_S).

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics
named in BENCHMARK.json, plus `trace.overhead`.  Every result is checked by
an independent route; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}, and the exit status is 0 only
if every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ladder", "per_site", "battery", "cli")
# no new pass starts after this many seconds, whatever --seconds asks
RUN_LIMIT_S = 140
WORKER_TIMEOUT_S = 170
# set-up-only interpreters started after each untraced pass
SETUP_SAMPLES = 3
# worker.reference_s() on the machine the benchmark was written on, in a
# quiet spell.  Times are reported in that machine's seconds: each measured
# time is scaled by REF_NOMINAL_S over the reference time measured next to
# it, so a slow spell of a shared machine, which slows the reference loop as
# much as the code, largely cancels out.
REF_NOMINAL_S = 0.0022


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, traced: bool, tmp_root: str) -> dict:
    """One pass in a fresh interpreter, in its own temporary directory."""
    tmp = tempfile.mkdtemp(dir=tmp_root)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
            "1" if traced else "0", tmp]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerFailed("%s pass exceeded %d s" % (workload, WORKER_TIMEOUT_S))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed("%s pass exited %d:\n%s" % (
            workload, proc.returncode, err.decode()[-2000:]))
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: int, traced: bool, tmp_root: str):
    """Untraced passes (and, when tracing, a traced pass after each) until
    the next round would overrun `seconds`.  After each untraced pass a few
    more fresh interpreters time set-up alone, so `setup_s` is a median of
    many samples."""
    start = time.perf_counter()
    plain, with_trace, setups = [], [], []
    while True:
        plain.append(run_worker(workload, seed, False, tmp_root))
        setups.append(calibrated_setup(plain[-1]))
        if traced:
            with_trace.append(run_worker(workload, seed, True, tmp_root))
        else:
            setups += [calibrated_setup(run_worker("setup", seed, False, tmp_root))
                       for _ in range(SETUP_SAMPLES)]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > min(seconds, RUN_LIMIT_S):
            return plain, with_trace, setups


def calibrated(p) -> list:
    """A pass's operation times in reference seconds: each scaled by the
    mean of the reference times measured just before and just after it."""
    refs = p["refs"]
    return [t * 2 * REF_NOMINAL_S / (refs[k] + refs[k + 1])
            for k, t in enumerate(p["times"])]


def calibrated_setup(p) -> float:
    return p["setup_s"] * REF_NOMINAL_S / p["setup_ref"]


def op_medians(passes) -> list:
    """Each operation's calibrated time, as the median over the passes."""
    return [statistics.median(ts) for ts in zip(*(calibrated(p) for p in passes))]


def end_to_end(passes, setups) -> dict:
    op_s = op_medians(passes)
    return {
        "wall_s": sum(op_s),
        "op_p50_s": statistics.median(op_s),
        "op_max_s": max(op_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(names, plain, traced) -> dict:
    """Layer figures from the traced passes, as measured (counts repeat
    exactly; times are medians); `verify.<group>.s` is the calibrated time
    of `run_battery(group)` in the untraced passes."""
    figures = {name: statistics.median([p["layers"].get(name, 0) for p in traced])
               for name in names}
    battery_s = dict(zip(plain[0]["ops"], op_medians(plain)))
    for name in names:
        if name.startswith("verify.") and name.endswith(".s"):
            op = "run_battery(%s)" % name[len("verify."):-len(".s")]
            figures[name] = battery_s.get(op, 0.0)
    figures["verify.checks"] = plain[0]["checks"]
    figures["trace.overhead"] = sum(op_medians(traced)) / sum(op_medians(plain))
    return figures


def selftest(tmp_root: str):
    """Trace the fixed Baseline instance; return (lines to print, failures,
    operations attempted)."""
    import workloads as w

    rec = run_worker("selftest", w.DEFAULT_SEED, True, tmp_root)
    layer_calls = [c for op, _, c in rec["calls"].get("network.apply_layer", [])
                   if op == "baseline vev"]
    pairs = [c.get("pairs") for c in layer_calls]
    states = [c.get("states_out") for c in layer_calls]
    terms = {}
    for op, (n, _), c in rec["calls"].get("network.enumerate_layer_terms", []):
        if op == "baseline terms":
            terms[n] = terms.get(n, 0) + c.get("terms", 0)
    terms = [terms.get(n) for n in w.BASELINE_TERMS]
    ok = (pairs == w.BASELINE_PAIRS and states == w.BASELINE_STATES_OUT
          and terms == list(w.BASELINE_TERMS.values()))
    lines = [
        "trace self-test, n=7 (6,5,3,2,1): pairs per layer %s, states out %s" % (pairs, states),
        "trace self-test, layer terms for n=2..7: %s" % terms,
        "trace self-test %s the ROADMAP Baseline counts" % ("reproduces" if ok else
                                                            "DOES NOT reproduce"),
    ]
    return lines, rec["failures"], len(rec["ops"])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "trivertex", "__init__.py")):
        sys.stderr.write("no trivertex sources under %s/src\n" % ROOT)
        return 2

    tmp_parent = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    tmp_root = tempfile.mkdtemp(dir=tmp_parent)
    try:
        spec = load_spec()
        try:
            plain, traced, setups = run_passes(args.workload, args.seed, args.seconds,
                                               bool(args.trace), tmp_root)
            extra_lines, extra_failures, extra_ops = [], [], 0
            if args.trace and args.workload == "ladder":
                extra_lines, extra_failures, extra_ops = selftest(tmp_root)
        except WorkerFailed as exc:
            sys.stderr.write("benchmark aborted: %s\n" % exc)
            return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            os.rmdir(tmp_parent)
        except OSError:
            pass  # another run still uses it

    failures = [f for p in plain + traced for f in p["failures"]] + extra_failures
    for p in traced:
        for op, a, b in zip(plain[0]["ops"], plain[0]["digests"], p["digests"]):
            if a != b:
                failures.append({"op": op, "error": "traced result differs from untraced"})
    attempted = sum(len(p["ops"]) for p in plain + traced) + extra_ops

    print("workload %s, seed %d: %d untraced and %d traced passes of %d operations"
          % (args.workload, args.seed, len(plain), len(traced), len(plain[0]["ops"])))
    if args.trace:
        declared = spec["per_layer"]
        figures = per_layer([m["name"] for m in declared], plain, traced)
        absent = sorted({a for p in traced for a in p["absent"]})
        if absent:
            print("absent trace targets: %s" % ", ".join(absent))
        for line in extra_lines:
            print(line)
    else:
        declared = spec["end_to_end"]
        figures = end_to_end(plain, setups)
    metrics = {}
    for m in declared:
        value = figures[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-40s %14.6g %s" % (m["name"], value, m["unit"]))
    print("%-40s %14d of %d operations" % ("ops_failed", len(failures), attempted))
    raw_wall = statistics.median([sum(p["times"]) for p in plain])
    ref = statistics.median([r for p in plain for r in p["refs"]])
    print("uncalibrated: wall %.6g s per pass (median); reference loop %.6g s "
          "(nominal %g s)" % (raw_wall, ref, REF_NOMINAL_S))
    for f in failures:
        sys.stderr.write("FAILED %s: %s\n" % (f["op"], f["error"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
