"""Command-line front end with exact-rational JSON/CSV/plain-text output.

Subcommands map one-to-one onto the library modules. All numeric output is
exact (rationals printed as num/den) and byte-deterministic for fixed inputs;
the sweep subcommand prints the acceptance checks of `qflab.acceptance`.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .quadform import SymMat, base_diagonal, diff_set, frac_str, signature
from .counting import (
    CountJob,
    count_solutions,
    density_oracle,
    density_value,
    normalization_exponent,
)
from .densities import assemble_A, kitaoka_ternary_poly
from .gkmult import GKTriple, _e_text, e_p, gk_table_csv
from .whittaker import _sorted_places, verify_ratio_identity, whittaker_value
from .cycles import classify_component, is_isolated
from .clifford import IncoherentCollection, quaternion_with_discriminant
from .acceptance import SUITES


def parse_matrix(text: str) -> SymMat:
    """Accept 'd:1,1,1,3' diagonals, inline JSON (a list of rows or the
    {"n", "entries"} object), or a path to a JSON file."""
    if text.startswith("d:"):
        return SymMat.diag(*(Fraction(v) for v in text[2:].split(",")))
    if text.lstrip().startswith("["):
        rows = json.loads(text, parse_float=Fraction)
        if not all(isinstance(row, list) and all(isinstance(x, (int, str, Fraction)) for x in row)
                   for row in rows):
            raise ValueError("an inline matrix must be a JSON list of rows of numbers")
        return SymMat(rows)
    if text.lstrip().startswith("{"):
        return SymMat.from_json(json.loads(text, parse_float=Fraction))
    with open(text) as fh:
        return SymMat.from_json(json.load(fh, parse_float=Fraction))


def _parse_triple(text: str) -> tuple[int, int, int]:
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated integers")
    return tuple(parts)


# ---------------------------------------------------------------- subcommands


def _cmd_density(args) -> int:
    T = parse_matrix(args.T)
    if args.closed:
        series = assemble_A(T, args.p)
        base_diagonal(args.r)  # refuses r < 0 as the other two modes do
        value = series.evaluate(Fraction(1, args.p**args.r))
    elif args.oracle:
        value = density_oracle(base_diagonal(args.r), T, args.p).value
    else:
        value = whittaker_value(T, args.p, args.r)
    print(frac_str(value))
    return 0


def _cmd_oracle(args) -> int:
    if args.job:
        with open(args.job) as fh:
            job = CountJob.from_json(json.load(fh, parse_float=Fraction))
        raw = count_solutions(job)
        print(json.dumps({
            "raw_count": raw,
            "norm_exponent": normalization_exponent(job.m, job.n, job.t),
            "value": frac_str(density_value(job, raw)),
            "t": job.t,
        }))
        return 0
    if None in (args.s, args.T, args.p, args.t):
        raise ValueError("oracle needs either --job or all of --s/--T/--p/--t")
    job = CountJob(
        tuple(Fraction(v) for v in args.s.split(",")),
        parse_matrix(args.T), args.p, args.t, args.strategy,
    )
    print(frac_str(density_value(job, count_solutions(job))))
    return 0


def _cmd_kitaoka(args) -> int:
    a = _parse_triple(args.a)
    eps = _parse_triple(args.eps)
    poly = kitaoka_ternary_poly(GKTriple(*a, *eps, args.p))
    if args.at is not None:
        print(frac_str(poly.evaluate(Fraction(args.at))))
    else:
        print(json.dumps(poly.to_json()))
    return 0


def _cmd_gk(args) -> int:
    if args.table:
        print(gk_table_csv(args.p, args.max_a), end="")
        return 0
    if args.a is None:
        raise ValueError("gk needs --a A1,A2,A3 or --table")
    print(_e_text(e_p(*_parse_triple(args.a), args.p)))
    return 0


def _cmd_ratio(args) -> int:
    report = verify_ratio_identity(parse_matrix(args.T), args.p)
    print(json.dumps(report.to_json()))
    return 0 if report.equal else 1


def _cmd_diff(args) -> int:
    T = parse_matrix(args.T)
    if args.disc == 1:
        coll = IncoherentCollection.split()
    else:
        B = quaternion_with_discriminant(args.disc)
        coll = IncoherentCollection(B)
    places = diff_set(T, coll)
    payload = {
        "T": T.to_json(),
        "disc": args.disc,
        "diff": [v.prime if v.is_finite else "oo" for v in _sorted_places(places)],
        "odd": len(places) % 2 == 1,
    }
    sig = signature(T)
    if sig in ((2, 2), (0, 4)):
        payload["note"] = (
            f"signature {sig} is outside the archimedean rule, which records "
            "the real place only for signatures (3, 1) and (1, 3)"
        )
    print(json.dumps(payload))
    return 0


def _cmd_isolated(args) -> int:
    print("true" if is_isolated(parse_matrix(args.T), args.p) else "false")
    return 0


def _cmd_classify(args) -> int:
    result = classify_component(
        args.rank, args.dim,
        {"represents_one": args.represents_one,
         "has_radical_line": args.radical_line},
        args.p,
    )
    print(json.dumps({
        "rank": args.rank,
        "dim": args.dim,
        "represents_one": args.represents_one,
        "has_radical_line": args.radical_line,
        "p": args.p,
        "label": result.label,
        "case": result.case_ref,
    }))
    return 0


def _cmd_sweep(args) -> int:
    """Print PASS and the detail, or FAIL and every failure, for each suite."""
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        try:
            detail, failures = SUITES[name]()
        except Exception as exc:
            failures = [f"raised {type(exc).__name__}: {exc}"]
        all_ok = all_ok and not failures
        print(f"FAIL {name}: " + "; ".join(failures) if failures else f"PASS {name}: {detail}")
    return 0 if all_ok else 1


# -------------------------------------------------------------------- driver


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qflab",
        description="Exact local densities, multiplicities, and cycle checks "
                    "for quadratic forms.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    registry = {}

    def sub(name: str, func, **kwargs):
        sp = subs.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        sp.add_argument("--config", metavar="FILE", default=None,
                        help="key=value file supplying defaults for this subcommand")
        registry[name] = sp
        return sp

    sp = sub("density", _cmd_density, help="representation density of a target form")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--T", required=True, help="matrix: d:DIAG, JSON, or a file path")
    sp.add_argument("--r", type=int, default=0)
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--closed", action="store_true",
                      help="force the closed form (error when it does not apply)")
    mode.add_argument("--oracle", action="store_true", help="force the counting oracle")

    sp = sub("oracle", _cmd_oracle, help="raw solution counting at a fixed modulus")
    sp.add_argument("--job", default=None, help="JSON job file; overrides inline flags")
    sp.add_argument("--s", default=None, help="comma-separated source diagonal")
    sp.add_argument("--T", default=None)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--t", type=int, default=None)
    sp.add_argument("--strategy", choices=("naive", "mitm"), default="mitm")

    sp = sub("kitaoka", _cmd_kitaoka, help="closed-form ternary density series")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", required=True, help="exponents A1,A2,A3")
    sp.add_argument("--eps", default="1,1,1", help="unit classes E1,E2,E3 (each +-1)")
    sp.add_argument("--at", default=None, help="evaluate at X (rational)")

    sp = sub("gk", _cmd_gk, help="local intersection multiplicity")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--a", default=None, help="exponents A1,A2,A3")
    sp.add_argument("--table", action="store_true", help="emit a CSV table instead")
    sp.add_argument("--max-a", type=int, default=4)

    sp = sub("ratio", _cmd_ratio, help="derivative/value ratio report")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--T", required=True)

    sp = sub("diff", _cmd_diff, help="places where the collection misses the target")
    sp.add_argument("--T", required=True)
    sp.add_argument("--disc", type=int, default=1,
                    help="discriminant of the underlying algebra (1 = split)")

    sp = sub("isolated", _cmd_isolated, help="isolation criterion for a target")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--T", required=True)

    sp = sub("classify", _cmd_classify, help="component-count decision table")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.add_argument("--represents-one", action="store_true")
    sp.add_argument("--radical-line", action="store_true")

    sp = sub("sweep", _cmd_sweep, help="named verification suites")
    sp.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])

    return parser, registry


def _inject_config(argv: list, registry: dict) -> list:
    """Expand --config FILE into leading flags; explicit flags win by position."""
    if not argv or argv[0] not in registry or "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = argv[idx + 1]
    rest = argv[1:idx] + argv[idx + 2:]
    actions = registry[argv[0]]._option_string_actions
    injected = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"config line is not key=value: {line!r}")
            flag = "--" + key.strip().replace("_", "-")
            if flag not in actions:
                raise ValueError(f"config key {key.strip()!r} is not a flag of {argv[0]}")
            value = value.strip()
            if isinstance(actions[flag], argparse._StoreTrueAction):
                if value.lower() in ("1", "true", "yes"):
                    injected.append(flag)
                elif value.lower() not in ("0", "false", "no"):
                    raise ValueError(f"config key {key.strip()!r} has value {value!r}; "
                                     "expected one of 1, true, yes, 0, false, no")
            else:
                injected.extend((flag, value))
    return [argv[0]] + injected + rest


def _join_negative_values(argv: list) -> list:
    """Write "--eps -1,1,1" as "--eps=-1,1,1".

    argparse reads a separate value that starts with "-" as a flag unless it
    is a plain number; no flag name starts with a digit, so "-" and a digit
    always begins a value of the flag before it.
    """
    out = []
    for tok in argv:
        if out and re.fullmatch(r"--[\w-]+", out[-1]) and re.match(r"-\d", tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, registry = _build_parser()
    try:
        argv = _join_negative_values(_inject_config(argv, registry))
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 0 if not exc.code else 2
        return args.func(args)
    except (ValueError, TypeError, ArithmeticError, RuntimeError, OSError,
            KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
