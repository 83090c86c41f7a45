"""Command line interface: compute expectation values, verify identities,
enumerate configurations.

Exit status: 0 on success / all checks passing, 1 on a usage error, 2 when a
verification check fails.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence

from .network import enumerate_configurations, inhomogeneous_spec, scalar_spec, vev
from .poly import LaurentPoly, Var, parse_var_name


class UsageError(Exception):
    pass


# -- argument handling -----------------------------------------------------

def _parse_int_list(raw: str, what: str) -> List[int]:
    try:
        return [int(x) for x in raw.split(",") if x != ""]
    except ValueError:
        raise UsageError("%s must be a comma-separated integer list, got %r"
                         % (what, raw))


def _parse_blocks(raw: str) -> List[int]:
    """'3:2,1:1' -> labels [3, 3, 1]."""
    labels: List[int] = []
    for chunk in raw.split(","):
        if not chunk:
            continue
        if ":" in chunk:
            head, tail = chunk.split(":", 1)
        else:
            head, tail = chunk, "1"
        try:
            label, mult = int(head), int(tail)
        except ValueError:
            raise UsageError("bad block %r (want label:multiplicity)" % chunk)
        if mult < 1:
            raise UsageError("block multiplicity must be positive: %r" % chunk)
        labels.extend([label] * mult)
    if not labels:
        raise UsageError("no blocks given")
    return labels


def load_vars_file(path: str) -> Dict[Var, object]:
    """Key-value lines 'z1_k1l1 = value'; value is a variable name (symbolic
    rename) or a rational number.  '#' starts a comment."""
    bindings: Dict[Var, object] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError("cannot read vars file: %s" % exc)
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError("%s:%d: expected 'name = value'" % (path, lineno))
        key, value = (s.strip() for s in body.split("=", 1))
        try:
            var = parse_var_name(key)
        except ValueError as exc:
            raise UsageError("%s:%d: %s" % (path, lineno, exc))
        try:
            bindings[var] = parse_var_name(value)
            continue
        except ValueError:
            pass
        from fractions import Fraction

        try:
            bindings[var] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise UsageError("%s:%d: value %r is neither a variable nor a rational"
                             % (path, lineno, value))
    return bindings


def apply_vars_file(p: LaurentPoly, bindings: Dict[Var, object]) -> object:
    """Renames first; if any rational bindings are present they must cover
    every remaining variable and the result is an exact Fraction."""
    renames = {v: LaurentPoly.var(b) for v, b in bindings.items()
               if isinstance(b, Var)}
    numbers = {v: b for v, b in bindings.items() if not isinstance(b, Var)}
    if renames:
        p = p.substitute(renames)
    if not numbers:
        return p
    missing = [v.name for v in p.variables() if v not in numbers]
    if missing:
        raise UsageError("numeric evaluation needs values for all variables; "
                         "missing: %s" % ", ".join(sorted(missing)))
    return p.evaluate(numbers)


# -- subcommands -----------------------------------------------------------

def _spec_from_args(args) -> object:
    if args.n is None:
        raise UsageError("--n is required")
    if args.labels is not None and args.blocks is not None:
        raise UsageError("--labels and --blocks are mutually exclusive")
    if args.labels is not None:
        labels = _parse_int_list(args.labels, "--labels")
        if not labels:
            raise UsageError("no labels given")
    elif args.blocks is not None:
        labels = _parse_blocks(args.blocks)
    else:
        raise UsageError("one of --labels / --blocks is required")
    derivs = None
    if getattr(args, "deriv", None):
        derivs = _parse_int_list(args.deriv, "--deriv")
        if len(derivs) != len(labels):
            raise UsageError("--deriv needs one order per layer (%d != %d)"
                             % (len(derivs), len(labels)))
        if any(d < 0 for d in derivs):
            raise UsageError("derivative orders must be >= 0")
    try:
        if getattr(args, "vars_file", None):
            if derivs:
                raise UsageError("--deriv is for scalar layers only")
            return inhomogeneous_spec(args.n, labels)
        return scalar_spec(args.n, labels, derivs=derivs)
    except ValueError as exc:  # InvalidLabels, or n < 2
        raise UsageError(str(exc))


def cmd_compute(args) -> int:
    spec = _spec_from_args(args)
    value = vev(spec)
    result: object = value
    if args.vars_file:
        result = apply_vars_file(value, load_vars_file(args.vars_file))
    if args.at_one:
        if not isinstance(result, LaurentPoly):
            raise UsageError("--at-one cannot follow numeric evaluation")
        result = result.at_one()

    if args.format == "plain":
        print(result)
    elif args.format == "json":
        import json

        obj = {"n": args.n,
               "labels": [layer.label for layer in spec.layers],
               "value": str(result)}
        if isinstance(result, LaurentPoly):
            obj["terms"] = result.to_obj()
        print(json.dumps(obj, sort_keys=True))
    else:  # csv
        if isinstance(result, LaurentPoly):
            print("monomial,coeff")
            for row in result.to_obj():
                mono = " ".join("%s^%d" % (name, e)
                                for name, e in sorted(row["monomial"].items()))
                print("%s,%d" % (mono or "1", row["coeff"]))
        else:
            print("value")
            print(result)
    return 0


def cmd_enumerate(args) -> int:
    spec = _spec_from_args(args)
    try:
        rows = enumerate_configurations(spec)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "plain":
        for alphas, weight in rows:
            print("%s  %s" % (",".join(map(str, alphas)), weight))
        print("total %d" % len(rows))
    elif args.format == "json":
        import json

        print(json.dumps({
            "n": args.n,
            "labels": [layer.label for layer in spec.layers],
            "count": len(rows),
            "rows": [{"exponents": list(a), "weight": str(w)}
                     for a, w in rows],
        }, sort_keys=True))
    else:
        width = len(rows[0][0]) if rows else 0
        print(",".join("alpha%d" % t for t in range(1, width + 1)) + ",weight")
        for alphas, weight in rows:
            print(",".join(map(str, alphas)) + "," + str(weight))
    return 0


def cmd_verify(args) -> int:
    # the battery and the verifiers are imported here, so that compute and
    # enumerate never load them
    import json

    from . import verify
    from .lattice import CutoffTooSmall

    if args.group not in ("all",) + verify.GROUPS:
        raise UsageError("unknown group %r (choose from all, %s)"
                         % (args.group, ", ".join(verify.GROUPS)))
    if args.cutoff is not None and args.group != "tetrahedron":
        raise UsageError("--cutoff applies to the tetrahedron group only")
    if args.cutoff is not None:
        try:
            reports = [verify.check_tetrahedron(args.cutoff)]
        except CutoffTooSmall as exc:
            raise UsageError(str(exc))
    else:
        reports = verify.run_battery(args.group)
    failures = [r for r in reports if not r.passed]
    if args.format == "json":
        print(verify.reports_to_json(reports))
    elif args.format == "csv":
        print("name,passed,seconds,params")
        for r in reports:
            print("%s,%s,%.3f,%s" % (
                r.name, "pass" if r.passed else "fail", r.seconds,
                json.dumps(r.params, sort_keys=True).replace(",", ";")))
    else:
        for r in reports:
            print("%s %-24s %s" % ("PASS" if r.passed else "FAIL",
                                  r.name, json.dumps(r.params, sort_keys=True)))
        print("%d checks, %d failed" % (len(reports), len(failures)))
    return 2 if failures else 0


# -- entry point -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trivertex",
        description="Exact layer-operator expectation values on the "
                    "triangular grid, and the identity battery over them.")
    sub = parser.add_subparsers(dest="subcommand")

    def add_common(p, with_spec: bool):
        if with_spec:
            p.add_argument("--n", type=int, help="grid size")
            p.add_argument("--labels", help="comma-separated layer labels")
            p.add_argument("--blocks",
                           help="label:multiplicity list, e.g. 3:2,1:1")
        p.add_argument("--format", choices=("json", "csv", "plain"),
                       default="plain")

    p_compute = sub.add_parser("compute", help="expectation value of a stack")
    add_common(p_compute, with_spec=True)
    p_compute.add_argument("--deriv",
                           help="comma-separated derivative order per layer")
    p_compute.add_argument("--vars-file",
                           help="per-site variable table (switches to "
                                "independent site variables)")
    p_compute.add_argument("--at-one", action="store_true",
                           help="evaluate every variable at 1")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run the identity battery")
    p_verify.add_argument("group", nargs="?", default="all",
                          help="a group of the battery, or all (the default)")
    p_verify.add_argument("--cutoff", type=int, default=None,
                          help="occupancy cutoff (at least 3) for the tetrahedron "
                               "group only; other groups pick exact cutoffs "
                               "themselves")
    add_common(p_verify, with_spec=False)
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate",
                            help="list the contributing configurations")
    add_common(p_enum, with_spec=True)
    p_enum.set_defaults(func=cmd_enumerate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract reserves 2 for
        # failed checks, so remap
        return 0 if exc.code in (0, None) else 1
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
