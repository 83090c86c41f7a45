"""The benchmark's four workloads and the independent check of every result.

Each workload is a list of operations `Op(name, run, check)`.  `run()` is
the timed call into trivertex; `check(result)` runs afterwards, outside the
timed interval, and returns None when the result is right or a message when
it is not.  Checks use a route independent of the one timed: the
symmetric-function oracles for vevs, the report's own two-route comparison
for the `verify` checkers, and recorded bytes for the command line.

`build(workload, seed, root, tmp, traced)` makes the list.  The default seed (0) gives
exactly the named instances; another seed draws instances of the same shape
(see `LADDER_RUNGS`) or shuffles the order, so that a claim can be rechecked
on inputs it was not tuned on.  Import this module only after trivertex is
imported: it imports the library at call time, not at import time.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
CLI_EXPECTED = os.path.join(HERE, "cli_expected.json")


class Op(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


# -- ladder ------------------------------------------------------------------

# Each rung: (kind, n, labels, derivative orders, alternatives for other
# seeds).  An alternative has the same n, stack depth and block structure
# (multiplicities in the same order) as the named labels, tries within 5% as
# many (state, term) pairs and took about as long at the commit that defined
# the benchmark.  Same-shape stacks otherwise range over three orders of
# magnitude in cost, so an unfiltered draw would measure the draw, not the
# code; the (6; 6,4,4,2,2,0) rung has no such alternative.
LADDER_RUNGS = [
    ("vev", 6, (5, 5, 3, 3, 1, 1), None, [(4, 4, 3, 3, 1, 1), (4, 4, 2, 2, 1, 1)]),
    ("vev", 6, (6, 4, 4, 2, 2, 0), None, []),
    ("vev", 7, (6, 5, 3, 2, 1), None, [(6, 4, 3, 2, 1), (5, 4, 3, 2, 1)]),
    ("hat", 6, (6, 5, 3, 2, 1), (1, 0, 0, 0, 0), [(6, 4, 3, 2, 1), (5, 4, 3, 2, 1)]),
]
# the configuration listing runs on the n = 7 rung's labels


def _blocks(labels: Sequence[int]) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    for v in labels:
        if out and out[-1][0] == v:
            out[-1] = (v, out[-1][1] + 1)
        else:
            out.append((v, 1))
    return out


def schur_form(labels: Sequence[int], zvars):
    """prod_k (block-k variables)^(M-k) * s_lambda(zvars), lambda from the
    block layout of strictly decreasing block labels (M blocks)."""
    from trivertex import LaurentPoly
    from trivertex.symfunc import schur_jacobi_trudi

    blocks = _blocks(labels)
    m = len(blocks)
    parts: List[int] = []
    exps = {}
    t = 0
    for k, (label, mult) in enumerate(blocks, start=1):
        parts.extend([label - m + k] * mult)
        for _ in range(mult):
            if m - k:
                exps[zvars[t]] = m - k
            t += 1
    return LaurentPoly.monomial(exps, 1) * schur_jacobi_trudi(tuple(parts), zvars)


def _hat_oracle(labels: Sequence[int], zvars):
    from trivertex import LaurentPoly, Var
    from trivertex.symfunc import schur_derivative_oracle

    m = len(labels)
    parts = tuple(labels[k] - m + k + 1 for k in range(m))
    closed = schur_derivative_oracle(parts, m)
    rename = {Var.layer(t): LaurentPoly.var(v) for t, v in enumerate(zvars, start=1)}
    return closed.substitute(rename)


def _expect(got, expected) -> Optional[str]:
    return None if got == expected else "got %s, expected %s" % (got, expected)


def ladder_ops(seed: int) -> List[Op]:
    from trivertex import Var, enumerate_configurations, scalar_spec, vev
    from trivertex.symfunc import schur_at_one

    rng = random.Random(seed)
    ops: List[Op] = []
    n7 = None
    for kind, n, labels, derivs, pool in LADDER_RUNGS:
        if seed != DEFAULT_SEED:
            labels = rng.choice([labels] + pool)
        m = len(labels)
        zvars = [Var.layer(t) for t in (range(1, m + 1) if seed == DEFAULT_SEED
                                         else rng.sample(range(1, 10), m))]
        spec = scalar_spec(n, labels, zvars, derivs)
        name = "%s n=%d %s" % (kind, n, ",".join(map(str, labels)))
        if kind == "hat":
            ops.append(Op(name, lambda spec=spec: vev(spec),
                          lambda got, l=labels, z=zvars: _expect(got, _hat_oracle(l, z))))
        else:
            ops.append(Op(name, lambda spec=spec: vev(spec),
                          lambda got, l=labels, z=zvars: _expect(got, schur_form(l, z))))
        if n == 7:
            n7 = (labels, zvars, spec)

    labels, zvars, spec = n7

    def check_rows(rows) -> Optional[str]:
        m = len(labels)
        parts = tuple(labels[k] - m + k + 1 for k in range(m))
        if len(rows) != schur_at_one(parts, m):
            return "%d rows, expected %d" % (len(rows), schur_at_one(parts, m))
        total = sum((w for _, w in rows[1:]), rows[0][1]) if rows else 0
        return _expect(total, schur_form(labels, zvars))

    ops.append(Op("enumerate n=7 %s" % ",".join(map(str, labels)),
                  lambda: enumerate_configurations(spec), check_rows))
    return ops


# -- per_site ----------------------------------------------------------------

def _report_ok(report) -> Optional[str]:
    return None if report.passed else "failed: %s" % json.dumps(report.detail)


def per_site_ops(seed: int) -> List[Op]:
    from trivertex import verify

    calls = [
        ("check_column_reduction", (5, 1)),
        ("check_column_reduction", (6, 0)),
        ("check_column_reduction", (6, 1)),
        ("check_inhomogeneous", (5, (1, 1, 1, 1, 3))),
        ("check_column_decomposition", (4, 6)),
        ("check_one_column", (5, 8)),
    ]
    # No other instance of these shapes costs about the same (the other
    # orders of sizes (1,1,1,1,3) take a tenth of the time, and the column
    # checks are fixed by their two sizes), so other seeds shuffle the order.
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(calls)
    return [Op("%s%s" % (fn, args), lambda fn=fn, args=args: getattr(verify, fn)(*args),
               _report_ok) for fn, args in calls]


# -- battery -----------------------------------------------------------------

# run_battery(group) report counts at the commit that defined the benchmark
BATTERY_GROUPS = {
    "convention": 1, "tetrahedron": 1, "zf": 50, "schur": 903, "hat": 8,
    "inhomogeneous": 8, "columns": 70, "oracles": 3,
}


def battery_ops(seed: int) -> List[Op]:
    from trivertex import run_battery

    groups = list(BATTERY_GROUPS)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(groups)

    def check(group):
        def run(reports) -> Optional[str]:
            bad = [r.name for r in reports if not r.passed]
            if bad:
                return "%d failed checks: %s" % (len(bad), ", ".join(bad[:5]))
            return _expect(len(reports), BATTERY_GROUPS[group])
        return run

    return [Op("run_battery(%s)" % g, lambda g=g: run_battery(g), check(g))
            for g in groups]


# -- cli ---------------------------------------------------------------------

RENAME_VARS = "".join("z%d_k%dl1 = w%d\n" % (t, k, 2 * (t - 1) + k)
                      for t in (1, 2, 3) for k in (1, 2))
NUMERIC_VARS = "".join("z%d_k%dl%d = %d/%d\n" % (t, k, l, t + k, l + 1)
                       for t in (1, 2, 3) for k in (1, 2) for l in (1, 2) if k + l <= 3)

# `{rename}` and `{numeric}` stand for vars files written per run.
CLI_SCRIPT = [
    "compute --n 4 --labels 3,3,1",
    "compute --n 4 --labels 4,2,1 --at-one",
    "compute --n 3 --labels 2,1 --deriv 1,0",
    "compute --n 4 --labels 3,3,1 --format json",
    "compute --n 4 --labels 3,3,1 --format csv",
    "compute --n 4 --blocks 3:2,1:1",
    "compute --n 5 --labels 4,3,1",
    "compute --n 5 --labels 5,3,2,0 --format json",
    "compute --n 5 --labels 4,4,2,1 --format csv",
    "compute --n 5 --labels 5,4,2,1 --at-one",
    "compute --n 4 --labels 4,3,2,1 --deriv 1,0,0,0",
    "compute --n 5 --labels 4,2,1 --deriv 0,1,0 --format json",
    "compute --n 3 --labels 2,2,1 --at-one --format csv",
    "compute --n 2 --labels 2,1,0",
    "compute --n 3 --labels 3,2,0 --vars-file {rename}",
    "compute --n 3 --labels 3,2,0 --vars-file {rename} --format json",
    "compute --n 3 --labels 3,1,0 --vars-file {rename} --format csv",
    "compute --n 3 --labels 3,2,0 --vars-file {numeric}",
    "enumerate --n 4 --labels 3,3,1",
    "enumerate --n 4 --labels 3,3,1 --format json",
    "enumerate --n 5 --labels 4,3,1 --format csv",
    "enumerate --n 5 --labels 5,3,2,1",
    "enumerate --n 3 --blocks 2:2,1:1",
    "enumerate --n 5 --labels 4,2,2,0 --format json",
    "verify convention",
    "verify tetrahedron --cutoff 4",
    "verify hat",
    "verify inhomogeneous",
    "verify columns",
    "verify oracles",
    "verify tetrahedron --cutoff 3",
]

# outputs printed in README.md
README_OUTPUTS = {
    "compute --n 4 --labels 3,3,1":
        "z1^3 z2^3 z3 + z1^3 z2^2 z3^2 + z1^2 z2^3 z3^2\n",
    "compute --n 4 --labels 4,2,1 --at-one": "3\n",
    "compute --n 3 --labels 2,1 --deriv 1,0": "2 z1 z2\n",
    "enumerate --n 4 --labels 3,3,1":
        "2,3,2  z1^2 z2^3 z3^2\n3,2,2  z1^3 z2^2 z3^2\n"
        "3,3,1  z1^3 z2^3 z3\ntotal 3\n",
}


def cli_argv(line: str, tmp: str) -> List[str]:
    return line.format(rename=os.path.join(tmp, "rename.vars"),
                       numeric=os.path.join(tmp, "numeric.vars")).split()


def cli_env(root: str, tmp: str) -> dict:
    """Environment of one command: the checkout's sources, and a convention
    cache in this run's own directory, never the user's ~/.cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg")
    return env


def write_vars_files(tmp: str) -> None:
    for name, text in (("rename.vars", RENAME_VARS), ("numeric.vars", NUMERIC_VARS)):
        with open(os.path.join(tmp, name), "w") as fh:
            fh.write(text)


def load_cli_expected() -> dict:
    with open(CLI_EXPECTED) as fh:
        return json.load(fh)


def cli_ops(seed: int, root: str, tmp: str, traced: bool) -> List[Op]:
    expected = load_cli_expected()
    lines = list(CLI_SCRIPT)
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(lines)
    write_vars_files(tmp)
    env = cli_env(root, tmp)
    ops = []
    for k, line in enumerate(lines):
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracedcli.py")]
            call_env = dict(env, BENCH_TRACE_OUT=os.path.join(tmp, "trace-%d.json" % k))
        else:
            cmd = [sys.executable, "-m", "trivertex.cli"]
            call_env = env
        argv = cmd + cli_argv(line, tmp)

        def run(argv=argv, call_env=call_env):
            done = subprocess.run(argv, cwd=root, env=call_env, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  timeout=120)
            return done.returncode, done.stdout.decode()

        def check(result, line=line) -> Optional[str]:
            code, out = result
            if code != 0:
                return "exit status %d" % code
            return _expect(out, README_OUTPUTS.get(line, expected.get(line)))

        ops.append(Op(line, run, check))
    return ops


# -- trace self-test ---------------------------------------------------------

# ROADMAP Baseline figures the tracer must reproduce at the commit that
# defined the benchmark
BASELINE_N7 = (7, (6, 5, 3, 2, 1))
BASELINE_PAIRS = [2079, 93632, 433944, 327712, 145530]
BASELINE_STATES_OUT = [32, 126, 112, 70, 20]
BASELINE_TERMS = {2: 5, 3: 16, 4: 66, 5: 352, 6: 2431, 7: 21760}


def selftest_ops(seed: int) -> List[Op]:
    """The fixed instances behind the Baseline counts (seed ignored)."""
    from trivertex import Var, network, scalar_spec, vev

    n, labels = BASELINE_N7
    zvars = [Var.layer(t) for t in range(1, len(labels) + 1)]
    ops = [Op("baseline vev", lambda: vev(scalar_spec(n, labels)),
              lambda got: _expect(got, schur_form(labels, zvars)))]
    enumerate_terms = getattr(network, "enumerate_layer_terms", None)
    if enumerate_terms is not None:
        conv = network.default_convention()
        ops.append(Op("baseline terms",
                      lambda: [len(enumerate_terms(k, i, conv))
                               for k in BASELINE_TERMS for i in range(k + 1)],
                      lambda got: None))
    return ops


# -- dispatch ----------------------------------------------------------------

def build(workload: str, seed: int, root: str, tmp: str, traced: bool) -> List[Op]:
    if workload == "ladder":
        return ladder_ops(seed)
    if workload == "per_site":
        return per_site_ops(seed)
    if workload == "battery":
        return battery_ops(seed)
    if workload == "cli":
        return cli_ops(seed, root, tmp, traced)
    if workload == "selftest":
        return selftest_ops(seed)
    if workload == "setup":
        return []
    raise ValueError("unknown workload %r" % workload)


def canonical(result) -> str:
    """A digest of a result, to compare traced and untraced passes."""
    if hasattr(result, "to_obj") and hasattr(result, "seconds"):
        obj = result.to_obj()
        obj.pop("seconds", None)
        text = json.dumps(obj, sort_keys=True, default=str)
    elif isinstance(result, (list, tuple)):
        text = "[%s]" % ",".join(canonical(r) for r in result)
    else:
        text = str(result)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def count_checks(result) -> int:
    """The number of CheckReports a result carries: one, a list, or none."""
    if hasattr(result, "passed"):
        return 1
    if isinstance(result, list) and result and hasattr(result[0], "passed"):
        return len(result)
    return 0
