"""Seeded job lists for the four workloads.

Each workload function takes only the seed and returns the job list; qflab
sees nothing but the generated inputs. The mix of job shapes in a list is
fixed and the seed draws the values inside each shape (targets, unit
classes, unimodular changes of basis, sign patterns), because a count's
cost depends on its shape (m, n, q) and not on the entries. That keeps the
cost of a pass, and so every end-to-end metric, steady across seeds.

Every job checks its output exactly against something computed another
way: a closed form against the counting oracle, one counting path against
another, a class invariant against the form it was generated from, or a
CLI answer against the library's in-process answer.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable

import qflab
from qflab import (
    CountJob,
    DensityPolynomial,
    FiniteFieldQuadSpace,
    GKTriple,
    IncoherentCollection,
    Place,
    SymMat,
    assemble_A,
    base_diagonal,
    base_space,
    check_spin_compatibility,
    chi_tilde,
    classify_component,
    count_solutions,
    density_oracle,
    density_value,
    derivative_at_1,
    diff_set,
    e_p,
    frac_str,
    gross_keating_exponents,
    hilbert,
    incidence_counts,
    is_isolated,
    jordan_diagonalize,
    kitaoka_ternary_poly,
    least_nonsquare,
    quaternion_with_discriminant,
    reduced_distinguished_space,
    reduced_superspecial_space,
    represents_local,
    split_diagonal,
    twisted_complement_diagonal,
    twisted_space,
    valuation,
    verify_ratio_identity,
    whittaker_derivative,
    whittaker_value,
)

from harness import Job, Tracer

F = Fraction
SRC = Path(qflab.__file__).resolve().parent.parent

# (p, t, m, n) of the criterion-11 style jobs in audit-shallow: naive
# enumeration over 625 <= q^(mn) <= 19683 states, a few to tens of
# milliseconds each, so they make up most of a pass's jobs (and its median
# job) but a small share of its time.
SMALL_SHAPES = (
    (3, 1, 3, 2), (3, 1, 4, 2), (3, 1, 3, 3), (5, 1, 2, 2), (5, 1, 4, 1),
    (5, 1, 3, 2), (3, 2, 3, 1), (3, 2, 2, 2), (3, 2, 4, 1), (5, 2, 2, 1),
    (5, 2, 3, 1),
)

# Exponent patterns of the ratio family; each admits signs with chi_tilde = -1.
RATIO_PATTERNS = (
    (0, 0, 1), (0, 1, 1), (0, 0, 3), (0, 1, 2),
    (1, 1, 2), (0, 2, 3), (1, 2, 2), (1, 2, 3),
)

SPIN_NAMES = ("e0", "e1", "v0", "f0", "f1")

CLASSIFY_CASES = (
    (2, 2, True, False, "isolated"),
    (0, 0, False, False, "p_plus_one_lines"),
    (0, 1, False, True, "one_line"),
    (1, 1, False, False, "two_lines"),
    (1, 2, False, True, "one_line"),
)


def shape_key(job: CountJob) -> str:
    return f"m{job.m}n{job.n}q{job.modulus}"


def _unit(eps: int, p: int, rng: random.Random) -> int:
    """A p-adic unit in the square class eps, times a random unit square."""
    k = rng.choice([k for k in range(1, p) if k % p])
    return (1 if eps == 1 else least_nonsquare(p)) * k * k


def _unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """A random matrix in GL_n(Z) with small entries."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in g:
            row[i] += c * row[j]
    for i in range(n):
        if rng.random() < 0.5:
            for row in g:
                row[i] = -row[i]
    return g


def _congruent(diag, g) -> list[list[Fraction]]:
    """Entries of g^T diag(d) g."""
    n = len(diag)
    return [
        [sum(g[k][i] * F(diag[k]) * g[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _spec_matrix(entries) -> list[list[str]]:
    return [[frac_str(x) for x in row] for row in entries]


def _gk_diag(a, signs, p, rng, lead=()) -> list[int]:
    return list(lead) + [_unit(s, p, rng) * p**ai for ai, s in zip(a, signs)]


# ------------------------------------------------------------ audit-shallow


def _grid_job(i: int, rng: random.Random) -> Job:
    p = 3
    a = rng.choice(list(itertools.combinations_with_replacement(range(2), 3)))
    signs = tuple(rng.choice((1, -1)) for _ in range(3))
    triple = GKTriple(*a, *signs, p)
    entries = _congruent(_gk_diag(a, signs, p, rng), _unimodular(3, rng))
    job = CountJob(split_diagonal(4), SymMat(entries), p, 2)

    def call(tr: Tracer):
        raw = tr.call(count_solutions, job, key=shape_key(job))
        return tr.call(density_value, job, raw)

    def check(tr: Tracer, value):
        poly = tr.call(kitaoka_ternary_poly, triple)
        return value == tr.call(DensityPolynomial.evaluate, poly, F(1))

    spec = {"triple": [*a, *signs], "T": _spec_matrix(entries), "p": p, "t": 2}
    return Job(f"grid-{i}", "grid", spec, call, check)


def _unary_job(p: int, r: int, rng: random.Random) -> Job:
    eps = rng.choice((1, -1))
    u = _unit(eps, p, rng)
    source, target = base_diagonal(r), SymMat.diag(u)
    t_start = 1  # one past the largest Jordan exponent of a unit target

    def call(tr: Tracer):
        result = tr.call(density_oracle, source, target, p)
        tr.count("counting.density_oracle.levels", result.t_used - t_start + 1)
        tr.count("counting.density_oracle.results")
        return result.value

    def check(tr: Tracer, value):
        return value == 1 + F(eps, p ** (2 + r))

    spec = {"p": p, "r": r, "eps": eps, "u": u}
    return Job(f"unary-p{p}-r{r}", "unary", spec, call, check)


def _small_job(i: int, shape, rng: random.Random) -> Job:
    p, t, m, n = shape
    s = tuple(rng.choice((1, -1, 2, p)) for _ in range(m))
    entries = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1):
            entries[a][b] = entries[b][a] = rng.randint(-6, 6)
    naive = CountJob(s, SymMat(entries), p, t, "naive")
    mitm = CountJob(s, SymMat(entries), p, t, "mitm")

    def call(tr: Tracer):
        return (tr.call(count_solutions, naive, key="small-naive"),
                tr.call(count_solutions, mitm, key="small-mitm"))

    def check(tr: Tracer, counts):
        return counts[0] == counts[1]

    spec = {"s": list(s), "T": entries, "p": p, "t": t}
    return Job(f"small-{i}", "small", spec, call, check)


def audit_shallow(seed: int) -> list[Job]:
    rng = random.Random(f"audit-shallow:{seed}")
    jobs = [_grid_job(i, rng) for i in range(2)]
    jobs += [_unary_job(p, r, rng) for p in (3, 5) for r in (0, 1)]
    jobs += [_small_job(i, shape, rng) for i, shape in enumerate(SMALL_SHAPES)]
    return jobs


# ---------------------------------------------------------------- deep-dense


def _stream_job(name: str, source, rng: random.Random) -> Job:
    """Rank-2 target, Jordan exponents <= 1, at p = 3: t = 4 (a big stream
    against a small table) checked against t = 3 on the other backend."""
    p = 3
    a = sorted(rng.choice((0, 1)) for _ in range(2))
    diag = [_unit(rng.choice((1, -1)), p, rng) * p**ai for ai in a]
    entries = _congruent(diag, _unimodular(2, rng))
    deep = CountJob(source, SymMat(entries), p, 4)
    shallow = CountJob(source, SymMat(entries), p, 3)

    def call(tr: Tracer):
        raw = tr.call(count_solutions, deep, key=shape_key(deep))
        return tr.call(density_value, deep, raw)

    def check(tr: Tracer, value):
        raw = tr.call(count_solutions, shallow, key=shape_key(shallow))
        return value == tr.call(density_value, shallow, raw)

    spec = {"s": list(source), "T": _spec_matrix(entries), "p": p, "t": [4, 3]}
    return Job(f"stream-{name}", f"stream-{name}", spec, call, check)


def _table_job(rng: random.Random) -> Job:
    """Unimodular ternary target at p = 17, t = 1: a big table (17^6 cells)
    through the dense path, checked against the ternary closed form."""
    p = 17
    signs = tuple(rng.choice((1, -1)) for _ in range(3))
    entries = _congruent(_gk_diag((0, 0, 0), signs, p, rng), _unimodular(3, rng))
    job = CountJob(split_diagonal(4), SymMat(entries), p, 1)
    triple = GKTriple(0, 0, 0, *signs, p)

    def call(tr: Tracer):
        raw = tr.call(count_solutions, job, key=shape_key(job))
        return tr.call(density_value, job, raw)

    def check(tr: Tracer, value):
        poly = tr.call(kitaoka_ternary_poly, triple)
        return value == tr.call(DensityPolynomial.evaluate, poly, F(1))

    spec = {"signs": list(signs), "T": _spec_matrix(entries), "p": p, "t": 1}
    return Job("table-split", "table-split", spec, call, check)


def deep_dense(seed: int) -> list[Job]:
    rng = random.Random(f"deep-dense:{seed}")
    return [
        _stream_job("split", split_diagonal(4), rng),
        _stream_job("twisted", twisted_complement_diagonal(3), rng),
        _table_job(rng),
    ]


# -------------------------------------------------------------- closed-forms


def _prime_product(rng: random.Random) -> tuple[Fraction, dict[int, int]]:
    """A signed product of small prime powers, with its exponents."""
    x, exps = F(rng.choice((1, -1))), {}
    for _ in range(rng.randint(1, 3)):
        q = rng.choice((2, 3, 5, 7, 11, 13))
        e = rng.choice((1, 1, 2, -1))
        x *= F(q) ** e
        exps[q] = exps.get(q, 0) + e
    return x, exps


def _reciprocity_job(i: int, rng: random.Random) -> Job:
    """Hilbert reciprocity: the product of (a, b)_v over all places is 1."""
    a, ea = _prime_product(rng)
    b, eb = _prime_product(rng)
    places = [Place(None)] + [Place(q) for q in sorted(set(ea) | set(eb) | {2})]
    q0 = min(ea)

    def call(tr: Tracer):
        prod = 1
        for v in places:
            prod *= tr.call(hilbert, a, b, v)
        return prod, tr.call(valuation, a, q0)

    def check(tr: Tracer, out):
        return out == (1, ea[q0])

    spec = {"a": frac_str(a), "b": frac_str(b)}
    return Job(f"reciprocity-{i}", "reciprocity", spec, call, check)


def _random_rank4(rng: random.Random) -> list[list[int]]:
    while True:
        entries = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1):
                entries[i][j] = entries[j][i] = rng.randint(-50, 50)
        if SymMat(entries).is_nonsingular:
            return entries


def _dichotomy_job(i: int, p: int, entries, spaces) -> Job:
    """Exactly one of the base and twisted spaces represents T at p."""
    T, v = SymMat(entries), Place(p)
    base, twisted = spaces

    def call(tr: Tracer):
        return (tr.call(represents_local, base, T, v),
                tr.call(represents_local, twisted, T, v))

    def check(tr: Tracer, out):
        return out[0] != out[1]

    return Job(f"dichotomy-{i}-p{p}", "dichotomy", {"T": entries, "p": p}, call, check)


def _definite(rng: random.Random) -> list[list[int]]:
    A = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
    return [
        [sum(A[k][i] * A[k][j] for k in range(4)) + (3 if i == j else 0) for j in range(4)]
        for i in range(4)
    ]


def _diff_job(i: int, entries, cname: str, coll, rescaled: bool) -> Job:
    """Diff of a positive definite rank-4 target has odd size.

    The rescaled targets g T g with rational diagonal g hit the open
    candidate-prime cancellation bug of diff_set, so they form the
    known-defect family: counted in `failed`, recorded as the baseline.
    """
    T = SymMat(entries)

    def call(tr: Tracer):
        return sorted(str(v) for v in tr.call(diff_set, T, coll))

    def check(tr: Tracer, places):
        return len(places) % 2 == 1

    family = "diff-rescaled" if rescaled else "diff"
    spec = {"T": _spec_matrix(entries), "collection": cname}
    return Job(f"{family}-{i}-{cname}", family, spec, call, check, known_defect=rescaled)


def _ratio_signs(a, p: int, rng: random.Random) -> tuple[int, int, int]:
    """Random unit classes with chi_tilde = -1 for the exponents a."""
    while True:
        signs = tuple(rng.choice((1, -1)) for _ in range(3))
        if chi_tilde(GKTriple(*a, *signs, p)) == -1:
            return signs


def _ratio_job(p: int, a, rng: random.Random) -> Job:
    """Ratio identity and derivative bridge on a chi_tilde = -1 triple,
    passed through a random unimodular change of basis."""
    signs = _ratio_signs(a, p, rng)
    # g fixes the last basis vector, so T keeps the entry 1 there: the witness
    # search of gross_keating_exponents scans vectors in lexicographic order
    # and stops at (0, 0, 0, 1) on every seed. With an unrestricted g, where
    # the first square value appears in that scan set the job's cost, and
    # the pass time moved by about 15% between seeds.
    g = [row + [0] for row in _unimodular(3, rng)]
    g.append([rng.choice((-1, 0, 1)) for _ in range(3)] + [1])
    entries = _congruent(_gk_diag(a, signs, p, rng) + [1], g)
    T = SymMat(entries)
    scale = (1 - F(1, p**2)) * (1 - F(1, p**4))

    def call(tr: Tracer):
        report = tr.call(verify_ratio_identity, T, p)
        bridge = -tr.call(derivative_at_1, tr.call(assemble_A, T, p))
        deriv = tr.call(whittaker_derivative, T, p).coeff
        jordan = tr.call(jordan_diagonalize, T, p).exponents
        gk = tr.call(gross_keating_exponents, T, p).triple.exponents
        e = tr.call(e_p, *a, p)
        return report.equal, report.multiplicity, bridge, deriv, jordan, gk, e

    def check(tr: Tracer, out):
        equal, mult, bridge, deriv, jordan, gk, e = out
        return (equal and mult == e and bridge == scale * e and deriv == scale * e
                and jordan == tuple(sorted((0, *a))) and gk == tuple(a))

    spec = {"p": p, "a": list(a), "signs": list(signs), "T": _spec_matrix(entries)}
    return Job(f"ratio-p{p}-{''.join(map(str, a))}", "ratio", spec, call, check)


def _finite_field_jobs(rng: random.Random) -> list[Job]:
    jobs = []
    for p in (3, 5, 7, 11, 13):
        jobs.append(Job(
            f"incidence-p{p}", "incidence", {"p": p},
            lambda tr, p=p: tuple(tr.call(incidence_counts, p)),
            lambda tr, out, p=p: out == (p + 1, p * p + 1),
        ))
    for k, (rank, dim, one, rad, label) in enumerate(CLASSIFY_CASES):
        p = rng.choice((3, 5, 7, 11))
        flags = {"represents_one": one, "has_radical_line": rad}
        jobs.append(Job(
            f"classify-{k}", "classify", {"case": k, "p": p},
            lambda tr, a=(rank, dim, flags, p): tr.call(classify_component, *a).label,
            lambda tr, out, label=label: out == label,
        ))
    for p in (3, 5, 7, 11):
        def reduced(tr, p=p):
            sup = tr.call(reduced_superspecial_space, p)
            dist = tr.call(reduced_distinguished_space, p)
            every = all(tr.call(FiniteFieldQuadSpace.represents, sup, c) for c in range(1, p))
            return every, tr.call(FiniteFieldQuadSpace.represents, dist, 1)

        jobs.append(Job(f"reduced-p{p}", "reduced", {"p": p}, reduced,
                        lambda tr, out: out == (True, False)))
    for k in range(2):
        words = [tuple(rng.choice(SPIN_NAMES) for _ in range(rng.randint(1, 6)))
                 for _ in range(20)]
        jobs.append(Job(
            f"spin-{k}", "spin", {"words": [list(w) for w in words]},
            lambda tr, w=words: tr.call(check_spin_compatibility, w),
            lambda tr, out: out is True,
        ))
    return jobs


def closed_forms(seed: int) -> list[Job]:
    rng = random.Random(f"closed-forms:{seed}")
    jobs = [_reciprocity_job(i, rng) for i in range(16)]
    spaces = {p: (base_space(), twisted_space(p)) for p in (3, 5, 7)}
    for i in range(12):
        entries = _random_rank4(rng)
        jobs += [_dichotomy_job(i, p, entries, spaces[p]) for p in (3, 5, 7)]
    collections = {
        "split": IncoherentCollection.split(),
        "disc6": IncoherentCollection(quaternion_with_discriminant(6)),
    }
    # five rescaled targets per definite one: about 3% of the rescaled calls
    # hit the bug, so nearly every run shows it
    for i in range(48):
        entries = _definite(rng)
        rescaled = i % 6 != 0
        if rescaled:
            g = [F(rng.choice((1, 2, 3, 5, 7)), rng.choice((1, 3, 5, 7))) for _ in range(4)]
            entries = [[g[a] * entries[a][b] * g[b] for b in range(4)] for a in range(4)]
        jobs += [_diff_job(i, entries, name, c, rescaled) for name, c in collections.items()]
    jobs += [_ratio_job(p, a, rng) for p in (3, 5, 7) for a in RATIO_PATTERNS]
    jobs += _finite_field_jobs(rng)
    return jobs


# ------------------------------------------------------------------ cli-cold


def run_cli(argv: list[str]) -> str:
    """Run `python -m qflab.cli ARGV` as a fresh process; raises on a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "qflab.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"qflab {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _d(values) -> str:
    return "d:" + ",".join(str(v) for v in values)


def _text(out: str) -> str:
    return out.strip()


def _field(name: str):
    return lambda out: json.loads(out)[name]


def _cli_specs(rng: random.Random) -> list[tuple[list[str], Callable, Callable]]:
    """(argv, read the CLI's answer from stdout, the library's in-process answer)."""
    p = rng.choice((3, 5, 7))
    a = sorted(rng.randint(0, 4) for _ in range(3))
    eps = [rng.choice((1, -1)) for _ in range(3)]
    kit_a = sorted(rng.randint(0, 3) for _ in range(3))
    dens_T = _gk_diag(sorted(rng.randint(0, 2) for _ in range(3)), eps, p, rng, lead=(1,))
    diff_T = [rng.randint(1, 12) for _ in range(4)]
    disc = rng.choice((1, 6))
    iso_T = _gk_diag(sorted(rng.randint(0, 2) for _ in range(3)), eps, p, rng, lead=(1,))
    rank, dim, one, rad, _ = rng.choice(CLASSIFY_CASES)
    ratio_a = rng.choice(RATIO_PATTERNS)
    ratio_T = _gk_diag(ratio_a, _ratio_signs(ratio_a, p, rng), p, rng, lead=(1,))
    op, ot = rng.choice((3, 5)), rng.choice((1, 2))
    o_s = split_diagonal(4)
    o_T = [_unit(rng.choice((1, -1)), op, rng)]

    def e_text():
        e = e_p(*a, p)
        return str(e.numerator) if e.denominator == 1 else frac_str(e)

    def diff_answer():
        coll = (IncoherentCollection.split() if disc == 1
                else IncoherentCollection(quaternion_with_discriminant(disc)))
        places = diff_set(SymMat.diag(*diff_T), coll)
        return [v.prime if v.is_finite else "oo"
                for v in sorted(places, key=lambda v: (not v.is_finite, v.prime or 0))]

    def oracle_answer():
        job = CountJob(o_s, SymMat.diag(*o_T), op, ot)
        return frac_str(density_value(job, count_solutions(job)))

    flags = (["--represents-one"] if one else []) + (["--radical-line"] if rad else [])
    # "--eps=..." because argparse reads a separate value starting "-1" as a flag
    return [
        (["gk", "--p", str(p), "--a", ",".join(map(str, a))], _text, e_text),
        (["density", "--p", str(p), "--T", _d(dens_T)], _text,
         lambda: frac_str(whittaker_value(SymMat.diag(*dens_T), p))),
        (["kitaoka", "--p", str(p), "--a", ",".join(map(str, kit_a)),
          "--eps=" + ",".join(map(str, eps)), "--at", "1"], _text,
         lambda: frac_str(kitaoka_ternary_poly(GKTriple(*kit_a, *eps, p)).evaluate(F(1)))),
        (["diff", "--T", _d(diff_T), "--disc", str(disc)], _field("diff"), diff_answer),
        (["isolated", "--p", str(p), "--T", _d(iso_T)], _text,
         lambda: "true" if is_isolated(SymMat.diag(*iso_T), p) else "false"),
        (["classify", "--p", str(p), "--rank", str(rank), "--dim", str(dim), *flags],
         _field("label"), lambda: classify_component(
             rank, dim, {"represents_one": one, "has_radical_line": rad}, p).label),
        (["ratio", "--p", str(p), "--T", _d(ratio_T)], json.loads,
         lambda: verify_ratio_identity(SymMat.diag(*ratio_T), p).to_json()),
        (["oracle", "--s", ",".join(map(str, o_s)), "--T", _d(o_T), "--p", str(op),
          "--t", str(ot)], _text, oracle_answer),
    ]


def _cli_job(argv: list[str], read: Callable, answer: Callable) -> Job:
    """One fresh CLI process; its answer must equal the in-process answer."""
    return Job(
        f"cli-{argv[0]}", "cli", {"argv": argv},
        lambda tr: tr.call(run_cli, argv, layer="cli", name=argv[0]),
        lambda tr, out: read(out) == answer(),
    )


def cli_cold(seed: int) -> list[Job]:
    rng = random.Random(f"cli-cold:{seed}")
    return [_cli_job(*spec) for spec in _cli_specs(rng)]


WORKLOADS = {
    "audit-shallow": audit_shallow,
    "deep-dense": deep_dense,
    "closed-forms": closed_forms,
    "cli-cold": cli_cold,
}
