"""Command-line front end with exact-rational JSON/CSV/plain-text output.

Subcommands map one-to-one onto the library modules. All numeric output is
exact (rationals printed as num/den) and byte-deterministic for fixed inputs;
the sweep subcommand packages the library's verification suites for batch use.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import re
import sys
from fractions import Fraction

from .padic import INFINITE_PLACE, Place
from .quadform import (
    JordanDiagonal,
    SymMat,
    base_diagonal,
    base_space,
    diff_set,
    frac_str,
    least_nonsquare,
    represents_local,
    signature,
    split_diagonal,
    twisted_complement_diagonal,
    twisted_diagonal,
    twisted_space,
)
from .counting import (
    CountJob,
    count_solutions,
    density_oracle,
    density_value,
    normalization_exponent,
)
from .densities import (
    assemble_A,
    chi_tilde,
    derivative_at_1,
    kitaoka_ternary_poly,
    twisted_density,
)
from .gkmult import GKTriple, _e_text, e_p, gk_table_csv, transversal
from .whittaker import _sorted_places, verify_ratio_identity, whittaker_value
from .cycles import (
    classify_component,
    incidence_counts,
    is_isolated,
    reduced_distinguished_space,
    reduced_superspecial_space,
)
from .clifford import (
    GENERATOR_ORDER,
    IncoherentCollection,
    QuaternionAlgebra,
    check_spin_compatibility,
    discriminant,
    involution_tensor_type,
    positive_involution_criterion,
    quaternion_with_discriminant,
    ramified_places,
    vb_space,
    witt_index_rank5,
)


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


# -------------------------------------------------------------------- sweeps


def _random_symmetric(rng: random.Random, n: int, bound: int) -> SymMat:
    while True:
        ent = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                ent[i][j] = ent[j][i] = rng.randint(-bound, bound)
        M = SymMat(ent)
        if M.is_nonsingular:
            return M


def _random_posdef(rng: random.Random, n: int = 4, bound: int = 3) -> SymMat:
    while True:
        A = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        G = [[sum(A[k][i] * A[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)]
        M = SymMat(G)
        if M.is_nonsingular:
            return M


def _triples(p: int, a_max: int):
    for a in itertools.combinations_with_replacement(range(a_max + 1), 3):
        for eps in itertools.product((1, -1), repeat=3):
            yield GKTriple(*a, *eps, p)


def _gk_matrix(t: GKTriple, *lead: tuple[int, int]) -> SymMat:
    """Diagonal form with the Jordan terms (exponent, unit class) `lead`
    followed by those of t; a lead of (0, 1) puts <1> first."""
    terms = lead + tuple(zip(t.exponents, t.signs))
    return SymMat.diag(*JordanDiagonal(terms, t.p).diagonal_rep())


def _sweep_unary(fast: bool):
    bad = 0
    for p in (3, 5):
        for r in (0, 1):
            for eps0, cls in ((1, 1), (least_nonsquare(p), -1)):
                got = density_oracle(base_diagonal(r), SymMat.diag(eps0), p).value
                if got != 1 + Fraction(cls, p ** (2 + r)):
                    bad += 1
    return bad == 0, f"{8 - bad}/8 oracle densities match the closed unit factor"


def _sweep_kitaoka(fast: bool):
    eps_sets = ([(1, 1, 1), (-1, -1, -1)] if fast
                else list(itertools.product((1, -1), repeat=3)))
    s4 = tuple(Fraction(v) for v in split_diagonal(4))
    checked, bad = 0, []
    for a in itertools.combinations_with_replacement(range(2), 3):
        for eps in eps_sets:
            t = GKTriple(*a, *eps, 3)
            job = CountJob(s4, _gk_matrix(t), 3, 2)
            checked += 1
            if density_value(job, count_solutions(job)) != kitaoka_ternary_poly(t).evaluate(1):
                bad.append((a, eps))
    detail = f"{checked} exponent/unit-class grid cases at modulus exponent 2"
    if not fast:
        t = GKTriple(0, 1, 2, 1, 1, -1, 3)
        job = CountJob(s4, _gk_matrix(t), 3, 3)
        got = density_value(job, count_solutions(job))
        if got != kitaoka_ternary_poly(t).evaluate(1) or got != Fraction(128, 81):
            bad.append("depth-3 spot")
        detail += " plus the depth-3 spot check"
    if bad:
        return False, detail + f"; mismatches: {bad}"
    return True, detail


def _sweep_central(fast: bool):
    a_max = 2 if fast else 3
    primes = (3,) if fast else (3, 5)
    checked, bad = 0, []
    for p in primes:
        for t in _triples(p, a_max):
            if chi_tilde(t) != -1:
                continue
            report = verify_ratio_identity(_gk_matrix(t, (0, 1)), p)
            checked += 1
            if not report.equal:
                bad.append((p, t.exponents, t.signs))
    w3 = verify_ratio_identity(SymMat.diag(1, 1, 1, 3), 3).lhs.coeff
    w5 = verify_ratio_identity(SymMat.diag(1, 1, 2, 5), 5).lhs.coeff
    if w3 != 10 or w5 != 52:
        bad.append(("witness", w3, w5))
    try:
        verify_ratio_identity(SymMat.diag(1, 1, 1, 5), 5)
        bad.append("represented target accepted")
    except ValueError:
        pass
    if bad:
        return False, f"{checked} vanishing-side targets; failures: {bad}"
    return True, (f"{checked} vanishing-side targets agree; "
                  "witness coefficients 10 and 52; represented target rejected")


def _sweep_twisted(fast: bool):
    T, tern = SymMat.diag(1, 1, 1, 3), SymMat.diag(1, 1, 3)
    if fast:
        j1 = CountJob(tuple(map(Fraction, twisted_diagonal(3))), SymMat.diag(1), 3, 2)
        unary = density_value(j1, count_solutions(j1))
        j2 = CountJob(tuple(map(Fraction, twisted_complement_diagonal(3))), tern, 3, 2)
        comp = density_value(j2, count_solutions(j2))
    else:
        unary = density_oracle(twisted_diagonal(3), SymMat.diag(1), 3).value
        comp = density_oracle(twisted_complement_diagonal(3), tern, 3).value
    product = unary * comp
    closed = twisted_density(T, 3)
    checks = (
        unary == Fraction(2, 3)
        and comp == Fraction(32, 3)
        and product == Fraction(64, 9)
        and closed == product
        and product != Fraction(128, 9)
        and twisted_density(SymMat.diag(1, 1, 1, 1), 3) == 0
    )
    return checks, (f"reduction chain {frac_str(unary)} * {frac_str(comp)} = "
                    f"{frac_str(product)} matches the closed value and "
                    "rejects the doubled variant")


def _sweep_dichotomy(fast: bool):
    rng = random.Random(90210)
    trials = 30 if fast else 200
    V = base_space()
    pairs = 0
    for _ in range(trials):
        T = _random_symmetric(rng, 4, 50)
        for p in (3, 5, 7):
            a = represents_local(V, T, Place(p))
            b = represents_local(twisted_space(p), T, Place(p))
            if a == b:
                return False, f"dichotomy violated at p={p} for {T!r}"
            pairs += 1
    return True, f"{pairs} (T, p) pairs: exactly one twin space represents T"


def _sweep_diff_parity(fast: bool):
    rng = random.Random(8128)
    trials = 20 if fast else 100
    colls = (IncoherentCollection.split(), IncoherentCollection.from_pair(-1, 3))
    checked = 0
    for _ in range(trials):
        T = _random_posdef(rng)
        for coll in colls:
            if len(diff_set(T, coll)) % 2 != 1:
                return False, f"even diff set for {T!r}"
            checked += 1
    return True, f"{checked} diff sets all of odd size"


def _sweep_gk(fast: bool):
    anchors = (
        e_p(0, 0, 1, 3) == 1 and e_p(0, 1, 1, 3) == 2
        and e_p(0, 0, 3, 3) == 2 and e_p(0, 0, 3, 7) == 2
        and e_p(1, 1, 1, 3) == 6 and e_p(1, 1, 1, 5) == 8
    )
    if not anchors:
        return False, "hand anchors failed"
    for p in (3, 5):
        for a in itertools.combinations_with_replacement(range(5), 3):
            if (e_p(*a, p) == 1) != (sum(a) == 1):
                return False, f"multiplicity-1 criterion failed at {a}, p={p}"
    for a in itertools.combinations_with_replacement(range(3), 3):
        t = GKTriple(*a, 1, 1, 1, 3)
        if transversal(_gk_matrix(t, (0, 1)), 3) != (sum(a) == 1):
            return False, f"transversality mismatch at {a}"
    return True, ("anchors, the multiplicity-1 criterion over the table, "
                  "and form-level transversality all agree")


def _sweep_bridge(fast: bool):
    a_max = 2 if fast else 3
    primes = (3,) if fast else (3, 5)
    checked = 0
    for p in primes:
        scale = (1 - Fraction(1, p**2)) * (1 - Fraction(1, p**4))
        for t in _triples(p, a_max):
            if chi_tilde(t) != -1:
                continue
            T = _gk_matrix(t, (0, 1))
            lhs = derivative_at_1(assemble_A(T, p))
            if lhs != -scale * e_p(*t.exponents, p):
                return False, f"bridge failed for a={t.exponents}, eps={t.signs}, p={p}"
            checked += 1
    return True, (f"{checked} vanishing-side series: the derivative equals "
                  "the closed multiple of the multiplicity")


def _sweep_appendix(fast: bool):
    rng = random.Random(4104)
    nwords = 20 if fast else 100
    words = [(g,) for g in GENERATOR_ORDER]
    words += list(itertools.product(GENERATOR_ORDER, repeat=2))
    words += [
        tuple(rng.choice(GENERATOR_ORDER) for _ in range(rng.randint(3, 6)))
        for _ in range(nwords)
    ]
    check_spin_compatibility(words)
    split = QuaternionAlgebra(1, 1)
    definite = QuaternionAlgebra(-1, -1)
    disc6 = QuaternionAlgebra(-1, 3)
    checks = {
        "signatures": signature(vb_space(split)) == (3, 2)
        and signature(vb_space(definite)) == (5, 0)
        and signature(vb_space(disc6)) == (3, 2),
        "ramification": ramified_places(definite) == frozenset({Place(2), INFINITE_PLACE})
        and discriminant(disc6) == 6
        and discriminant(split) == 1,
        "involution types": involution_tensor_type("main", "neben") == "main"
        and involution_tensor_type("neben", "main") == "main"
        and involution_tensor_type("main", "main") == "neben"
        and involution_tensor_type("neben", "neben") == "neben",
        "positivity": positive_involution_criterion("split", -1, -1)
        and not positive_involution_criterion("split", -1, 1)
        and positive_involution_criterion("division", 1)
        and not positive_involution_criterion("division", -1),
        "witt index": witt_index_rank5(vb_space(split)) == 2
        and witt_index_rank5(vb_space(disc6)) == 1,
    }
    failed = [name for name, good in checks.items() if not good]
    if failed:
        return False, "failed: " + ", ".join(failed)
    return True, (f"relations, {len(words)} involution words, signatures, "
                  "ramification, and the involution calculus")


def _sweep_components(fast: bool):
    table = (
        ((0, 0, {}), "p_plus_one_lines"),
        ((0, 1, {"has_radical_line": True}), "one_line"),
        ((1, 1, {}), "two_lines"),
        ((1, 2, {"has_radical_line": True}), "one_line"),
        ((2, 2, {"represents_one": True}), "isolated"),
    )
    for (rank, dim, data), label in table:
        if classify_component(rank, dim, data, 3).label != label:
            return False, f"decision table mismatch at rank={rank}, dim={dim}"
    for p in (3, 5, 7, 11):
        sup = reduced_superspecial_space(p)
        if not all(sup.represents(c) for c in range(1, p)):
            return False, f"superspecial form not universal at p={p}"
        if reduced_distinguished_space(p).represents(1):
            return False, f"distinguished form represents 1 at p={p}"
    primes = (3, 5, 7, 11) if fast else (3, 5, 7, 11, 13, 17, 19, 23)
    for p in primes:
        if tuple(incidence_counts(p)) != (p + 1, p * p + 1):
            return False, f"incidence counts off at p={p}"
    return True, ("decision table, reduced-space value sets, and incidence "
                  f"enumerations up to p={primes[-1]}")


def _sweep_oracle(fast: bool):
    rng = random.Random(65537)
    target_jobs = 10 if fast else 50
    limit = 10**5 if fast else 10**6
    done = 0
    while done < target_jobs:
        p = rng.choice((3, 5))
        t = rng.choice((1, 2))
        m = rng.randint(1, 4)
        n = rng.randint(1, m)
        if (p**t) ** (m * n) > limit:
            continue
        s = tuple(Fraction(rng.choice((1, -1, 2, p, 2 * p))) for _ in range(m))
        q = p**t
        ent = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                ent[i][j] = ent[j][i] = rng.randrange(q)
        T = SymMat(ent)
        naive = count_solutions(CountJob(s, T, p, t, "naive"))
        mitm = count_solutions(CountJob(s, T, p, t, "mitm"))
        if naive != mitm:
            return False, f"count mismatch on s={s}, T={T!r}, p={p}, t={t}"
        done += 1
    return True, f"{done} random jobs: meet-in-the-middle equals direct enumeration"


SUITES = {
    "unary": _sweep_unary,
    "kitaoka": _sweep_kitaoka,
    "central": _sweep_central,
    "twisted": _sweep_twisted,
    "dichotomy": _sweep_dichotomy,
    "diff-parity": _sweep_diff_parity,
    "gk": _sweep_gk,
    "bridge": _sweep_bridge,
    "appendix": _sweep_appendix,
    "components": _sweep_components,
    "oracle": _sweep_oracle,
}


def _cmd_sweep(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        try:
            ok, detail = SUITES[name](args.fast)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
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
    sp.add_argument("--fast", action="store_true", help="reduced sizes, no deep moduli")

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
