"""The eleven acceptance criteria, one check each, in criterion order.

`qflab sweep` prints them and `tests/test_acceptance.py` runs them. A check
takes no argument and returns (detail, failures): the detail says what a
pass established, and failures names every case or assertion that failed, so
the check passes exactly when failures is empty. Targets are the literal
diagonals diag(u_i p^a_i), u_i = 1 or the least nonsquare by sign, not the
class-canonical representative a Jordan splitting would give, and every
random draw has a fixed seed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import partial

from .padic import INFINITE_PLACE, Place, _place
from .quadform import (
    SymMat,
    base_diagonal,
    base_space,
    diff_set,
    least_nonsquare,
    represents_local,
    signature,
    split_diagonal,
    twisted_complement_diagonal,
    twisted_diagonal,
    twisted_space,
)
from .counting import CountJob, count_solutions, density_oracle, density_value
from .densities import (
    assemble_A,
    chi_tilde,
    derivative_at_1,
    kitaoka_ternary_poly,
    twisted_density,
)
from .gkmult import GKTriple, e_p, transversal
from .whittaker import verify_ratio_identity, whittaker_derivative
from .cycles import (
    classify_component,
    incidence_counts,
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

F = Fraction
_SIGNS = tuple(itertools.product((1, -1), repeat=3))


def _expect(failures: list, what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {got}, expected {want}")


def _unit(eps: int, p: int) -> int:
    return 1 if eps == 1 else least_nonsquare(p)


def _triples(p: int, a_max: int, signs=_SIGNS):
    for a in itertools.combinations_with_replacement(range(a_max + 1), 3):
        for eps in signs:
            yield GKTriple(*a, *eps, p)


def _vanishing():
    """The triples with chi_tilde = -1, where the quaternary series vanishes at 1."""
    for p in (3, 5):
        yield from (t for t in _triples(p, 3) if chi_tilde(t) == -1)


def _diag(t: GKTriple, *lead: int) -> SymMat:
    """diag(lead, u_1 p^a1, u_2 p^a2, u_3 p^a3)."""
    return SymMat.diag(*lead, *(_unit(s, t.p) * t.p**a for a, s in zip(t.exponents, t.signs)))


def _name(t: GKTriple) -> str:
    return f"a={t.exponents}, eps={t.signs}, p={t.p}"


def _count(s, T: SymMat, p: int, t: int) -> Fraction:
    job = CountJob(s, T, p, t)
    return density_value(job, count_solutions(job))


def _symmetric(n: int, draw, upper: bool = False) -> SymMat:
    """Entries drawn row by row over the lower triangle, or the upper one."""
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n) if upper else range(i + 1):
            ent[i][j] = ent[j][i] = draw()
    return SymMat(ent)


def check_unary():
    failures = []
    for p in (3, 5):
        for r in (0, 1):
            for eps in (1, -1):
                got = density_oracle(base_diagonal(r), SymMat.diag(_unit(eps, p)), p).value
                _expect(failures, f"oracle density of eps={eps} at p={p}, r={r}",
                        got, 1 + F(eps, p ** (2 + r)))
    return "8/8 oracle densities match the closed unit factor", failures


def check_kitaoka():
    # the grid a3 <= 1 at t = 2, then one deep spot check at t = 3
    p, s4, failures = 3, split_diagonal(4), []
    cases = list(_triples(p, 1))
    for t in cases:
        _expect(failures, f"count at t=2 for {_name(t)}", _count(s4, _diag(t), p, 2),
                kitaoka_ternary_poly(t).evaluate(1))
    spot = GKTriple(0, 1, 2, 1, 1, -1, p)
    got = _count(s4, _diag(spot), p, 3)
    _expect(failures, "depth-3 spot count", got, F(128, 81))
    _expect(failures, "closed value at the depth-3 spot",
            kitaoka_ternary_poly(spot).evaluate(1), got)
    return (f"{len(cases)} exponent/unit-class grid cases at modulus exponent 2 "
            "plus the depth-3 spot check"), failures


def check_central():
    failures, cases = [], list(_vanishing())
    for t in cases:
        _expect(failures, f"ratio identity for {_name(t)}",
                verify_ratio_identity(_diag(t, 1), t.p).equal, True)
    # the p = 5 witness needs a nonsquare entry: chi_5(-1) = +1 makes
    # diag(1, 1, 1, 5) represented at 5, so it is refused outright
    for T, p, coeff in ((SymMat.diag(1, 1, 1, 3), 3, 10), (SymMat.diag(1, 1, 2, 5), 5, 52)):
        report = verify_ratio_identity(T, p)
        _expect(failures, f"derivative coefficient of {T!r}", report.lhs.coeff, coeff)
        _expect(failures, f"value side of {T!r}", report.rhs, coeff)
    try:
        verify_ratio_identity(SymMat.diag(1, 1, 1, 5), 5)
        failures.append("represented target SymMat.diag(1,1,1,5) at 5 accepted")
    except ValueError as exc:
        _expect(failures, "refusal of SymMat.diag(1,1,1,5) names Diff",
                "requires p in Diff" in str(exc), True)
    return (f"{len(cases)} vanishing-side targets agree; witness coefficients 10 and 52; "
            "represented target rejected"), failures


def check_twisted():
    p, failures = 3, []
    unary = density_oracle(twisted_diagonal(p), SymMat.diag(1), p).value
    comp = density_oracle(twisted_complement_diagonal(p), SymMat.diag(1, 1, 3), p).value
    product = unary * comp
    # the rejected reading drops the character from the unary factor
    doubled = (1 + F(1, p)) * comp
    _expect(failures, "unary factor", unary, F(2, 3))
    _expect(failures, "complement factor", comp, F(32, 3))
    _expect(failures, "product", product, F(64, 9))
    _expect(failures, "twisted_density(SymMat.diag(1,1,1,3))",
            twisted_density(SymMat.diag(1, 1, 1, 3), p), product)
    _expect(failures, "2 (1 - p^-2) (p + 1)", 2 * (1 - F(1, p * p)) * (p + 1), product)
    _expect(failures, "doubled variant", doubled, F(128, 9))
    _expect(failures, "product equals the doubled variant", product == doubled, False)
    _expect(failures, "twisted_density(SymMat.diag(1,1,1,1))",
            twisted_density(SymMat.diag(1, 1, 1, 1), p), 0)
    return (f"reduction chain {unary} * {comp} = {product} matches the closed value "
            "and rejects the doubled variant"), failures


def check_dichotomy():
    failures, pairs = [], 0
    draw = partial(random.Random(90210).randint, -50, 50)
    for _ in range(200):
        T = _symmetric(4, draw)
        while not T.is_nonsingular:
            T = _symmetric(4, draw)
        for p in (3, 5, 7):
            in_base = represents_local(base_space(), T, _place(p))
            _expect(failures, f"exactly one twin space represents {T!r} at {p}",
                    in_base != represents_local(twisted_space(p), T, _place(p)), True)
            pairs += 1
    return f"{pairs} (T, p) pairs: exactly one twin space represents T", failures


def check_diff_parity():
    rng, failures, checked = random.Random(8128), [], 0
    collections = (IncoherentCollection.split(),
                   IncoherentCollection(quaternion_with_discriminant(6)))
    for _ in range(100):
        A = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        T = SymMat([[sum(A[k][i] * A[k][j] for k in range(4)) + (3 if i == j else 0)
                     for j in range(4)] for i in range(4)])
        _expect(failures, f"signature of {T!r}", signature(T), (4, 0))
        for C in collections:
            _expect(failures, f"parity of |Diff| for {T!r}", len(diff_set(T, C)) % 2, 1)
            checked += 1
    return f"{checked} diff sets all of odd size", failures


def check_gk():
    failures, anchors = [], {(0, 0, 1): 1, (0, 1, 1): 2, (0, 0, 3): 2}
    for p in (3, 5, 7):
        for a in itertools.combinations_with_replacement(range(5), 3):
            value = e_p(*a, p)
            if a in anchors:
                _expect(failures, f"e_p{a + (p,)}", value, anchors[a])
            _expect(failures, f"e_p{a + (p,)} == 1", value == 1, sum(a) == 1)
        _expect(failures, f"e_p(1, 1, 1, {p})", e_p(1, 1, 1, p), 3 + p)
    # transversality is the e = 1 regime
    for t in _triples(3, 2, ((1, 1, 1),)):
        _expect(failures, f"transversal for {_name(t)}", transversal(_diag(t, 1), 3),
                sum(t.exponents) == 1)
    return ("anchors, the multiplicity-1 criterion over the table, "
            "and form-level transversality all agree"), failures


def check_bridge():
    failures, cases = [], list(_vanishing())
    for t in cases:
        T, p = _diag(t, 1), t.p
        want = (1 - F(1, p**2)) * (1 - F(1, p**4)) * e_p(*t.exponents, p)
        _expect(failures, f"-A'(1) for {_name(t)}", -derivative_at_1(assemble_A(T, p)), want)
        _expect(failures, f"whittaker_derivative for {_name(t)}",
                whittaker_derivative(T, p).coeff, want)
    return (f"{len(cases)} vanishing-side series: the derivative equals "
            "the closed multiple of the multiplicity"), failures


def check_appendix():
    rng = random.Random(4104)
    words = [(g,) for g in GENERATOR_ORDER] + list(itertools.product(GENERATOR_ORDER, repeat=2))
    words += [tuple(rng.choice(GENERATOR_ORDER) for _ in range(rng.randint(1, 6)))
              for _ in range(100)]
    split, definite = QuaternionAlgebra(1, 1), QuaternionAlgebra(-1, -1)
    disc6 = QuaternionAlgebra(-1, 3)
    failures = []
    _expect(failures, f"spin relations on {len(words)} words",
            check_spin_compatibility(words), True)
    for B, sig in ((split, (3, 2)), (definite, (5, 0)), (disc6, (3, 2)),
                   (quaternion_with_discriminant(6), (3, 2))):
        _expect(failures, f"signature of vb_space({B!r})", signature(vb_space(B)), sig)
    _expect(failures, "ramification of (-1, -1)", ramified_places(definite),
            frozenset({Place(2), INFINITE_PLACE}))
    _expect(failures, "ramification: discriminant of (-1, 3)", discriminant(disc6), 6)
    _expect(failures, "ramification: discriminant of (1, 1)", discriminant(split), 1)
    for x, y, kind in (("main", "neben", "main"), ("neben", "main", "main"),
                       ("main", "main", "neben"), ("neben", "neben", "neben")):
        _expect(failures, f"involution type of {x} x {y}", involution_tensor_type(x, y), kind)
    for args, positive in ((("split", -1, -1), True), (("split", -1, 1), False),
                           (("split", 1, 1), False), (("division", 1), True),
                           (("division", -1), False)):
        _expect(failures, f"positive_involution_criterion{args}",
                positive_involution_criterion(*args), positive)
    _expect(failures, "witt index of (1, 1)", witt_index_rank5(vb_space(split)), 2)
    _expect(failures, "witt index of (-1, 3)", witt_index_rank5(vb_space(disc6)), 1)
    return (f"relations, {len(words)} involution words, signatures, "
            "ramification, and the involution calculus"), failures


def check_components():
    no = {"represents_one": False, "has_radical_line": False}
    rad = {"represents_one": False, "has_radical_line": True}
    yes = {"represents_one": True, "has_radical_line": False}
    failures = []
    for rank, dim, data, label in ((2, 2, yes, "isolated"), (0, 0, no, "p_plus_one_lines"),
                                   (0, 1, rad, "one_line"), (1, 1, no, "two_lines"),
                                   (1, 2, rad, "one_line")):
        _expect(failures, f"component at rank={rank}, dim={dim}, {data}",
                classify_component(rank, dim, data, 3).label, label)
    for p in (3, 5, 7, 11):
        sup = reduced_superspecial_space(p)
        _expect(failures, f"superspecial form universal at {p}",
                all(sup.represents(c) for c in range(1, p)), True)
        _expect(failures, f"distinguished form represents 1 at {p}",
                reduced_distinguished_space(p).represents(1), False)
    primes = (3, 5, 7, 11, 13, 17, 19, 23)
    for p in primes:
        _expect(failures, f"incidence counts at {p}", tuple(incidence_counts(p)),
                (p + 1, p * p + 1))
    return ("decision table, reduced-space value sets, and incidence "
            f"enumerations up to p={primes[-1]}"), failures


def _oracle_draw(jobs: int, limit: int, wide: bool):
    """Random (s, T, p, t) of at most limit states. The narrow draw takes s_i
    in (1, -1, 2, p) and T entries in [-6, 6]; the wide one reaches s_i = 2p
    and T entries over all of Z/q."""
    rng, done = random.Random(65537), 0
    while done < jobs:
        p, t = rng.choice((3, 5)), rng.choice((1, 2))
        m = rng.randint(1, 4)
        n = rng.randint(1, m)
        if (p**t) ** (m * n) > limit:
            continue
        s = tuple(rng.choice((1, -1, 2, p, 2 * p) if wide else (1, -1, 2, p)) for _ in range(m))
        draw = partial(rng.randrange, p**t) if wide else partial(rng.randint, -6, 6)
        yield s, _symmetric(n, draw, upper=wide), p, t
        done += 1


def check_oracle():
    jobs, limit, failures, done = 50, 10**6, [], 0
    for s, T, p, t in itertools.chain(_oracle_draw(jobs, limit, False),
                                      _oracle_draw(jobs, limit, True)):
        _expect(failures, f"MITM count of s={s}, T={T!r}, p={p}, t={t}",
                count_solutions(CountJob(s, T, p, t, "mitm")),
                count_solutions(CountJob(s, T, p, t, "naive")))
        done += 1
    return f"{done} random jobs: meet-in-the-middle equals direct enumeration", failures


SUITES = {
    "unary": check_unary,  # criterion 01
    "kitaoka": check_kitaoka,  # 02
    "central": check_central,  # 03
    "twisted": check_twisted,  # 04
    "dichotomy": check_dichotomy,  # 05
    "diff-parity": check_diff_parity,  # 06
    "gk": check_gk,  # 07
    "bridge": check_bridge,  # 08
    "appendix": check_appendix,  # 09
    "components": check_components,  # 10
    "oracle": check_oracle,  # 11
}
