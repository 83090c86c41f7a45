"""One pass over one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE TMPDIR

Run from the root of a checkout with PYTHONPATH pointing at its `src`.  The
worker times set-up (importing trivertex and the first vev, which resolves
the boundary convention), then each operation of the pass, then checks every
result outside the timed interval.  It prints one JSON object on its last
line of standard output.  A reference loop timed after set-up and around
each operation records the machine's speed, which the parent uses to
calibrate the times.  With TRACE=1 the layer trace is installed before
the convention is resolved, so resolution spans fall in set-up, and it is
switched off before the checks.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

REF_SIDE = range(200)


def reference_s() -> float:
    """The machine's speed right now: the faster of two runs of a fixed
    pure-Python loop.  It runs no trivertex code and, working only on
    small integers, which the interpreter caches, allocates nothing; so
    neither the library nor the state of its heap moves it, only the
    machine does."""
    best = None
    for _ in range(2):
        t = time.perf_counter()
        x = 0
        for a in REF_SIDE:
            for b in REF_SIDE:
                x = (x * 31 + (a ^ b)) & 255
        t = time.perf_counter() - t
        best = t if best is None else min(best, t)
    return best


def main(argv) -> int:
    workload, seed, traced, tmp = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    root = os.getcwd()

    t0 = time.perf_counter()
    import trivertex
    tracer = None
    if traced:
        import layertrace
        tracer = layertrace.install()
        tracer.on = True
    trivertex.vev(trivertex.scalar_spec(2, (1,)))
    setup_s = time.perf_counter() - t0
    setup_ref = reference_s()

    src = os.path.join(root, "src", "")
    if not os.path.abspath(trivertex.__file__).startswith(src):
        sys.stderr.write("trivertex imported from %s, not %s\n" % (trivertex.__file__, src))
        return 2

    import workloads
    ops = workloads.build(workload, seed, root, tmp, traced)
    times, results, errors = [], [], []
    refs = [reference_s()]
    clock = time.perf_counter
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, "%s: %s" % (type(exc).__name__, exc)
        times.append(clock() - t)
        results.append(result)
        errors.append(error)
        refs.append(reference_s())
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.on = False

    failures = []
    checks = 0
    for op, result, error in zip(ops, results, errors):
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        if error is not None:
            failures.append({"op": op.name, "error": error[:500]})
        checks += workloads.count_checks(result)

    out = {
        "setup_s": setup_s,
        "setup_ref": setup_ref,
        "ops": [op.name for op in ops],
        "times": times,
        "refs": refs,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "digests": [workloads.canonical(r) for r in results],
        "checks": checks,
    }
    if tracer is not None:
        out["absent"] = tracer.absent
        out["layers"] = tracer.metrics()
        if workload == "cli":
            parts = [out["layers"]]
            for name in sorted(os.listdir(tmp)):
                if name.startswith("trace-"):
                    with open(os.path.join(tmp, name)) as fh:
                        parts.append(json.load(fh))
            out["layers"] = layertrace.merge(parts)
        if workload == "selftest":
            out["calls"] = tracer.calls
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
