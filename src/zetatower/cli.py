"""Command-line front end.

Commands: catalog, derive, invariants, rh-check, sweep.  Curves come from an
inline spec (``elliptic:q=2,a=0`` or ``counts:q=2,g=2,N=3;5``), from the
built-in catalog (``catalog:E2a0``), or from a JSON file matching the curve
schema.  derive, invariants and rh-check read the levels along --tuple, in
prefix order, from the curve's lazy tower (``rh_lab.curve_tower``), as sweep
does; --normalize only presents that unnormalized tower.  Every rational in
emitted JSON is an exact string.  RH verdicts are exact at genus 1
("exact_g1") and from genus 3 on ("exact_sturm"); the genus-2 verdict is
numeric, and its largest deviation is a decimal string at its fixed precision
and tolerance, which no option sets.  A tuple's step product may not pass
DEFAULT_PRODUCT_CAP unless --allow-large is given; no environment variable
changes that cap or any other setting.  Identical inputs produce
byte-identical output files.

Exit codes: 0 ok, 1 check failed or an RH verdict unknown, 2 usage error,
3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction
from pathlib import Path

from zetatower.curves import (
    CATALOG,
    CurveSpec,
    catalog_curve,
    load_curves,
)
from zetatower.derived_engine import normalize_level
from zetatower.exact_arith import pair_str, rat_str, unlimited_int_digits
from zetatower.invariants import invariant_values
from zetatower.rh_lab import (
    ALL_CHECKS,
    DEFAULT_PRODUCT_CAP,
    SweepConfig,
    builtin_elliptic_grid,
    curve_tower,
    report_to_json,
    sweep,
)


class UsageError(ValueError):
    pass


def _ascii_int(value: str, name: str) -> int:
    """value as an int when it is ASCII digits after an optional sign; int() also reads spaces, "_" and other digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", value):
        raise UsageError(f"{name} is not an integer")
    return int(value)


def _int_field(text: str, key: str, value: str) -> int:
    return _ascii_int(value, f"{key}={value!r} in {text!r}")


def _spec_fields(text: str, prefix: str, keys: tuple) -> dict:
    """The key=value fields after ``prefix``: each of ``keys`` exactly once, and no other."""
    fields = {}
    for part in text[len(prefix) :].split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise UsageError(f"malformed field {part!r} in {text!r}; expected key=value")
        if key not in keys:
            raise UsageError(f"unknown field {key!r} in {text!r}; expected {', '.join(keys)}")
        if key in fields:
            raise UsageError(f"repeated field {key!r} in {text!r}")
        fields[key] = value
    missing = [k for k in keys if k not in fields]
    if missing:
        expected = prefix + ",".join(f"{k}=.." for k in keys)
        raise UsageError(f"{text!r} lacks {', '.join(missing)}; expected {expected}")
    return fields


def parse_curve_arg(text: str) -> CurveSpec:
    if text.startswith("elliptic:"):
        kv = _spec_fields(text, "elliptic:", ("q", "a"))
        q, a = _int_field(text, "q", kv["q"]), _int_field(text, "a", kv["a"])
        return CurveSpec(label=f"elliptic_q{q}_a{a}", q=q, genus=1, trace=a)
    if text.startswith("counts:"):
        kv = _spec_fields(text, "counts:", ("q", "g", "N"))
        counts = tuple(_int_field(text, "N", n) for n in kv["N"].split(";"))
        q, g = _int_field(text, "q", kv["q"]), _int_field(text, "g", kv["g"])
        return CurveSpec(label=f"counts_q{q}_g{g}", q=q, genus=g, point_counts=counts)
    if text.startswith("catalog:"):
        return catalog_curve(text[len("catalog:") :]).spec()
    path = Path(text)
    if not path.exists():
        raise UsageError(f"curve file not found: {text}")
    curves = load_curves(path)
    if len(curves) != 1:
        raise UsageError(f"expected exactly one curve in {text}, found {len(curves)}")
    return curves[0]


def parse_tuple_arg(text: str, allow_large: bool) -> tuple:
    """The steps of a comma-separated tuple, each a run of ASCII digits, with a product within the cap."""
    if not all(re.fullmatch("[0-9]+", part) for part in text.split(",")):
        raise UsageError(f"malformed tuple {text!r}; expected comma-separated integers")
    steps = tuple(int(part) for part in text.split(","))
    if not steps or any(n < 1 for n in steps):
        raise UsageError("tuple entries must be positive integers")
    if (product := math.prod(steps)) > DEFAULT_PRODUCT_CAP and not allow_large:
        raise UsageError(f"step product {product} exceeds cap {DEFAULT_PRODUCT_CAP}; pass --allow-large to override")
    return steps


def _write_output(text: str, output):
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_catalog(args) -> int:
    entries = []
    for label in sorted(CATALOG):
        c = CATALOG[label]
        entries.append(
            {
                "label": label,
                "q": c.q,
                "genus": c.genus,
                "model": c.model.describe(),
                "point_counts": list(c.spec().point_counts),
            }
        )
    _write_output(json.dumps(entries, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _tower(args):
    """The curve, its lazy tower, and the paths to the levels of --tuple in prefix order."""
    spec = parse_curve_arg(args.curve)
    steps = parse_tuple_arg(args.tuple, args.allow_large)
    return spec, curve_tower(spec), [steps[:i] for i in range(len(steps) + 1)]


def cmd_derive(args) -> int:
    spec, tower, paths = _tower(args)
    payload = {"curve": spec.to_dict(), "tuple": list(paths[-1]), "levels": []}
    for path in paths:
        z, scale = tower.level(path), Fraction(1)
        normalized = args.normalize and bool(path)  # the base is emitted as built
        if normalized:
            # a step is homogeneous of degree n in its input: from the normalized prefix it gives z / A_0(prefix)^n
            scale = z.P[0] / tower.level(path[:-1]).P[0] ** path[-1]
            z = normalize_level(z)
        P = z.P
        payload["levels"].append(
            {
                "tuple": list(z.steps),
                "Q": rat_str(z.Q),
                "genus": z.genus,
                "numerator": [rat_str(P[i]) for i in range(2 * z.genus + 1)],
                "normalized": normalized,
                "normalization": rat_str(scale),
            }
        )
        print(
            f"level {list(z.steps)}: Q = {rat_str(z.Q)}, numerator degree {int(P.degree)}, "
            f"beta = {pair_str(*z.residue_pair())}",
            file=sys.stderr,
        )
    _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_invariants(args) -> int:
    spec, tower, paths = _tower(args)
    reports = []
    for path in paths:
        inv, level, gamma_signs = tower.invariants(path), tower.level(path), {}
        # extraction is linear in P, and a base has A_0 = 1: dividing by A_0 = content * ints[0] leaves 1 / ints[0]
        scale = Fraction(1, level.P.view[1][0]) if args.normalize else None
        alphas, beta = invariant_values(inv, level.Q, scale)
        if path:  # the sign vector belongs to the step, not to the numerator
            n, signs = path[-1], list(tower.interlacing(path)[1])
            if args.normalize and n % 2 and tower.level(path[:-1]).P[0] < 0:
                signs = [-s for s in signs]  # a normalized prefix scales the step's polynomial by A_0^-n
            gamma_signs[str(n)] = signs
        reports.append(
            {
                "curve": spec.label,
                "tuple": list(path),
                "Q": rat_str(level.Q),
                "alphas": [rat_str(a) for a in alphas],
                "beta": rat_str(beta),
                "positivity": all(x > 0 for x in (*alphas, beta)),  # --normalize flips every sign where A_0 < 0
                "gamma_signs": gamma_signs,
            }
        )
    if args.format == "csv":
        text = io.StringIO()
        rows = csv.writer(text, lineterminator="\n")  # quotes a label holding a comma, a quote or a newline
        rows.writerow(["curve", "tuple", "Q", "alphas", "beta", "positivity"])
        for rep in reports:
            steps, alphas = ";".join(str(n) for n in rep["tuple"]), ";".join(rep["alphas"])
            rows.writerow([rep["curve"], steps, rep["Q"], alphas, rep["beta"], int(rep["positivity"])])
        _write_output(text.getvalue(), args.output)
    else:
        _write_output(json.dumps(reports, sort_keys=True, indent=2) + "\n", args.output)
    return 0 if all(rep["positivity"] for rep in reports) else 1


def cmd_rh_check(args) -> int:
    spec, tower, paths = _tower(args)
    verdicts = []
    for path in paths:
        v = tower.rh(path)
        verdicts.append(
            {
                "tuple": list(path),
                "method": v.method,
                "holds": v.holds,
                "boundary": v.boundary,
                "discriminant": pair_str(*v.discriminant) if v.discriminant is not None else None,
                "max_deviation": v.max_deviation,
                "precision_bits": v.precision_bits,
                "tolerance": v.tolerance,
            }
        )
    payload = {"curve": spec.to_dict(), "verdicts": verdicts}
    _write_output(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0 if all(v["holds"] is True for v in verdicts) else 1


def cmd_sweep(args) -> int:
    jobs = _ascii_int(args.jobs, f"--jobs {args.jobs!r}")
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    tuples = tuple(parse_tuple_arg(part, args.allow_large) for part in args.tuples.split(";"))
    if args.curves:
        curves = tuple(load_curves(args.curves))
    elif args.grid == "builtin-elliptic":
        qs = tuple(_int_field(args.q, "--q", q) for q in args.q.split(","))
        curves = tuple(builtin_elliptic_grid(qs))
    elif args.grid == "catalog":
        curves = tuple(CATALOG[label].spec() for label in sorted(CATALOG))
    else:
        raise UsageError(f"unknown grid {args.grid!r} and no --curves file given")
    checks = ALL_CHECKS if args.checks == "all" else tuple(args.checks.split(","))  # sweep() checks them
    cap = DEFAULT_PRODUCT_CAP if not args.allow_large else 10**9
    config = SweepConfig(curves=curves, tuples=tuples, checks=checks, product_cap=cap)
    report = sweep(config, jobs=jobs)
    _write_output(report_to_json(report), args.output)
    print(
        "sweep: {cells} cells, failed={failed}".format(
            cells=report["summary"]["cells"], failed=report["summary"]["failed"]
        ),
        file=sys.stderr,
    )
    unknown = any(counts["unknown"] for counts in report["summary"]["per_check"].values())
    return 1 if report["summary"]["failed"] or unknown else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zetatower", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, normalize=True):
        p.add_argument("--curve", required=True, help="elliptic:q=2,a=0 | counts:q=..,g=..,N=..;.. | catalog:LABEL | file.json")
        p.add_argument("--tuple", required=True, help="comma-separated derivation indices, e.g. 2,3")
        if normalize:
            p.add_argument("--normalize", action="store_true", help="divide each derived level by its constant term")
        p.add_argument("--allow-large", action="store_true", help="override the step-product cap")
        p.add_argument("--output", default=None, help="output file (default: stdout)")

    p = sub.add_parser("catalog", help="list the built-in equation catalog")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("derive", help="derive the tower and emit per-level numerators")
    add_common(p)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("invariants", help="extract alpha/beta invariants per level")
    add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("rh-check", help="Riemann-hypothesis verdicts per level")
    add_common(p, normalize=False)  # scaling P changes no verdict
    p.set_defaults(func=cmd_rh_check)

    p = sub.add_parser("sweep", help="run a check battery over a curve x tuple grid")
    p.add_argument("--grid", default="builtin-elliptic", help="builtin-elliptic | catalog")
    p.add_argument("--q", default="2,3,4,5", help="q values for the builtin elliptic grid")
    p.add_argument("--curves", default=None, help="JSON file with a list of curves")
    p.add_argument("--tuples", required=True, help="semicolon-separated tuples, e.g. '2;3;2,2'")
    p.add_argument("--checks", default="all", help="all or comma-separated subset of " + ",".join(ALL_CHECKS))
    p.add_argument("--jobs", default="1")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with unlimited_int_digits():
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
