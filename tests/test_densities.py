"""Closed-form local densities: unary factors, the ternary closed form, assembly."""

import itertools
import random
from fractions import Fraction

import pytest

from qflab import (
    CountJob,
    DensityPolynomial,
    GKTriple,
    SymMat,
    assemble_A,
    chi,
    chi_tilde,
    count_solutions,
    density_value,
    derivative_at_1,
    e_p,
    frac_str,
    kitaoka_ternary_poly,
    least_nonsquare,
    split_diagonal,
    twisted_density,
)
from qflab.densities import _bracket_integers

F = Fraction


# ---------------------------------------------------------------- polynomials


def test_polynomial_evaluate_and_equality():
    P = DensityPolynomial((F(1), F(1)))  # 1 + X
    assert P.evaluate(F(2)) == 3
    assert DensityPolynomial((F(1), F(1), F(0))) == P  # trailing zeros dropped
    assert DensityPolynomial((F(1), F(2))) != P


def test_polynomial_json_round_trip():
    P = DensityPolynomial((F(1), F(-1, 9)))
    data = P.to_json()
    assert data == {"coeffs": ["1/1", "-1/9"]}
    assert DensityPolynomial.from_json(data) == P


def test_derivative_at_1():
    X = DensityPolynomial((F(0), F(1)))
    assert derivative_at_1(X * X) == 2
    const = DensityPolynomial((F(5),))
    assert derivative_at_1(const) == 0


def _ref_evaluate(coeffs, x):
    return sum((c * x**i for i, c in enumerate(coeffs)), F(0))


def _ref_derivative_at_1(coeffs):
    return sum((i * c for i, c in enumerate(coeffs)), F(0))


def _random_rational(rng):
    # denominators of every kind, not only powers of one prime
    return F(rng.randint(-50, 50), rng.choice((1, 2, 3, 4, 6, 9, 10, 25, 49, 81, 729)))


def test_integer_series_matches_fraction_reference():
    rng = random.Random(26)
    points = [F(0), F(1), F(-1), F(1, 3), F(-2, 5), F(7, 4), F(-9, 49), 5]
    for _ in range(300):
        coeffs = [_random_rational(rng) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.2:
            coeffs += [F(0)] * rng.randint(1, 3)  # trailing zeros are dropped
        P = DensityPolynomial(coeffs)
        Q = DensityPolynomial.from_json({"coeffs": [frac_str(c) for c in coeffs]})
        assert Q == P and Q.to_json() == P.to_json()
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        assert P.coeffs == tuple(coeffs)
        for R in (P, Q):
            assert derivative_at_1(R) == _ref_derivative_at_1(coeffs)
            for x in points + [_random_rational(rng)]:
                assert R.evaluate(x) == _ref_evaluate(coeffs, F(x))


def test_integer_series_of_products_and_zero():
    rng = random.Random(261)
    for _ in range(100):
        a = [_random_rational(rng) for _ in range(rng.randint(1, 6))]
        b = [_random_rational(rng) for _ in range(rng.randint(1, 6))]
        x = _random_rational(rng)
        P = DensityPolynomial(a) * DensityPolynomial(b)
        assert P.evaluate(x) == _ref_evaluate(a, x) * _ref_evaluate(b, x)
        assert P == DensityPolynomial(_ref_pmul(a, b))
    for zero in (DensityPolynomial(()), DensityPolynomial((F(0), F(0))),
                 DensityPolynomial.from_json({"coeffs": ["0/1"]})):
        assert zero.coeffs == (F(0),) and zero == DensityPolynomial((0,))
        assert zero.evaluate(F(-2, 3)) == 0 and derivative_at_1(zero) == 0
        assert type(zero.evaluate(F(-2, 3))) is Fraction
        assert zero * DensityPolynomial((F(1, 3), F(2))) == zero
        assert repr(zero) == "DensityPolynomial([Fraction(0, 1)])"


# ---------------------------------------------------------------- character table


def test_chi_tilde_parity_table():
    for p in (3, 5):
        cm1 = chi(-1, p)
        for signs in itertools.product((1, -1), repeat=3):
            e1, e2, e3 = signs
            assert chi_tilde(GKTriple(0, 0, 0, e1, e2, e3, p)) == 1
            assert chi_tilde(GKTriple(1, 1, 1, e1, e2, e3, p)) == 1
            assert chi_tilde(GKTriple(0, 0, 1, e1, e2, e3, p)) == cm1 * e1 * e2
            assert chi_tilde(GKTriple(0, 1, 1, e1, e2, e3, p)) == cm1 * e2 * e3
            assert chi_tilde(GKTriple(0, 1, 2, e1, e2, e3, p)) == cm1 * e1 * e3
            assert chi_tilde(GKTriple(1, 2, 3, e1, e2, e3, p)) == cm1 * e1 * e3


def test_triple_validation():
    with pytest.raises(ValueError, match="0 <= a1 <= a2 <= a3"):
        GKTriple(1, 0, 2, 1, 1, 1, 3)
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        GKTriple(0, 0, 0, 2, 1, 1, 3)


# ---------------------------------------------------------------- ternary closed form


def test_kitaoka_examples():
    assert kitaoka_ternary_poly(GKTriple(0, 0, 0, 1, 1, 1, 3)).evaluate(F(1)) == F(64, 81)
    assert kitaoka_ternary_poly(GKTriple(0, 0, 1, 1, 1, 1, 3)).evaluate(F(1)) == 0
    # chi_tilde = -1 forces a zero at X = 1
    assert kitaoka_ternary_poly(GKTriple(0, 1, 1, 1, 1, 1, 3)).evaluate(F(1)) == 0
    assert kitaoka_ternary_poly(GKTriple(0, 1, 2, 1, 1, -1, 3)).evaluate(F(1)) == F(128, 81)
    assert _bracket_integers(GKTriple(1, 3, 4, 1, -1, 1, 5)) == (1, 5, 5, 25, 0, -25, -5, -5, -1)
    assert _bracket_integers(GKTriple(2, 2, 5, -1, 1, 1, 3)) == (1, 3, 12, 18, 27, 27, 18, 12, 3, 1)


def test_kitaoka_zero_iff_chi_tilde_negative():
    for p in (3, 5):
        for a in itertools.combinations_with_replacement(range(3), 3):
            for signs in itertools.product((1, -1), repeat=3):
                t = GKTriple(*a, *signs, p)
                value = kitaoka_ternary_poly(t).evaluate(F(1))
                if chi_tilde(t) == -1:
                    assert value == 0
                else:
                    assert value > 0


def test_ternary_derivative_at_1_is_the_multiplicity():
    # the rank-3 identity: where chi_tilde = -1 the ternary series vanishes at
    # X = 1 and -K_T'(1) = (1 - p^-2)^2 e_p; elsewhere K_T(1) != 0
    vanishing = other = 0
    for p in (3, 5, 7, 11):
        scale = (1 - F(1, p * p)) ** 2
        for a in itertools.combinations_with_replacement(range(6), 3):
            for signs in itertools.product((1, -1), repeat=3):
                t = GKTriple(*a, *signs, p)
                K = kitaoka_ternary_poly(t)
                if chi_tilde(t) == -1:
                    vanishing += 1
                    assert K.evaluate(1) == 0, t
                    assert -derivative_at_1(K) == scale * e_p(*a, p), t
                else:
                    other += 1
                    assert K.evaluate(1) != 0, t
    assert (vanishing, other) == (576, 1216)


def test_ternary_series_off_one_matches_counts():
    # split_diagonal(6) is the rank-4 split form plus one hyperbolic plane,
    # so its density at 3 is K_T(1/3); counted by MITM at t = 2 on the grid
    # a3 <= 1 with every sign pattern
    p, u = 3, least_nonsquare(3)
    for a in itertools.combinations_with_replacement(range(2), 3):
        for signs in itertools.product((1, -1), repeat=3):
            t = GKTriple(*a, *signs, p)
            T = SymMat.diag(*((1 if s == 1 else u) * p**e for e, s in zip(a, signs)))
            job = CountJob(split_diagonal(6), T, p, 2)
            assert job.strategy == "mitm"
            got = density_value(job, count_solutions(job))
            assert got == kitaoka_ternary_poly(t).evaluate(F(1, 3)), t


def test_bracket_coefficient_reversal():
    # X^(a1+a2+a3) * B(1/X) = chi_tilde * B(X)
    for p in (3, 5):
        for a in itertools.combinations_with_replacement(range(4), 3):
            for signs in itertools.product((1, -1), repeat=3):
                t = GKTriple(*a, *signs, p)
                coeffs = _bracket_integers(t)
                asum = sum(a)
                assert len(coeffs) <= asum + 1
                padded = coeffs + (0,) * (asum + 1 - len(coeffs))
                reversed_ = tuple(reversed(padded))
                expected = tuple(chi_tilde(t) * c for c in padded)
                assert reversed_ == expected


def _ref_pmul(a, b):
    # the Fraction product the closed forms used before they ran on integers
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


def _ref_padd(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else F(0)) + (b[i] if i < len(b) else F(0)) for i in range(n)
    )


def _ref_monomial(c, k):
    return (F(0),) * k + (F(c),)


def _ref_bracket(t):
    """The bracket term by term in Fractions (Kitaoka, Arithmetic of Quadratic Forms, 5.6)."""
    p, (a1, a2, a3) = t.p, t.exponents
    asum, even = a1 + a2 + a3, (a1 - a2) % 2 == 0
    top = (a1 + a2) // 2 - 1 if even else (a1 + a2 - 1) // 2
    out = (F(0),)
    for el in range(top + 1):
        for k in range(min(a1, el) + 1):
            out = _ref_padd(out, _ref_monomial(p**el, 2 * el - k))
            out = _ref_padd(out, _ref_monomial(chi_tilde(t) * p**el, asum + k - 2 * el))
    if even:
        eps = chi(-1, p) * t.eps1 * t.eps2
        run = tuple(F(1) for _ in range(a1 + 1))
        geometric = tuple(F(eps) ** j for j in range(a3 - a2 + 1))
        out = _ref_padd(out, _ref_pmul(_ref_monomial(p ** ((a1 + a2) // 2), a2),
                                       _ref_pmul(run, geometric)))
    while len(out) > 1 and out[-1] == 0:
        out = out[:-1]
    return out


@pytest.mark.parametrize("p", (3, 5, 7))
def test_integer_closed_forms_match_fraction_products(p):
    # every triple with exponents <= 4 and every sign pattern; assemble_A on
    # <1> + diag(u_i p^a_i), u_i = 1 or the least nonsquare by sign
    u = next(x for x in range(2, p) if chi(x, p) == -1)
    pre = _ref_pmul((F(1), F(-1, p * p)), (F(1), F(0), F(-1, p * p)))
    unary = (F(1), F(1, p * p))
    for a in itertools.combinations_with_replacement(range(5), 3):
        for signs in itertools.product((1, -1), repeat=3):
            t = GKTriple(*a, *signs, p)
            bracket = _bracket_integers(t)
            assert bracket == _ref_bracket(t)
            assert all(type(c) is int for c in bracket)
            ternary = _ref_pmul(pre, bracket)
            assert kitaoka_ternary_poly(t) == DensityPolynomial(ternary)
            T = SymMat.diag(1, *((1 if s == 1 else u) * p**e for e, s in zip(a, signs)))
            assert assemble_A(T, p) == DensityPolynomial(_ref_pmul(unary, ternary))
            # the unary factor of <1> is 1 + X/p^2
            assert assemble_A(T, p) == DensityPolynomial(unary) * kitaoka_ternary_poly(t)


# ---------------------------------------------------------------- assembly


def test_assemble_examples():
    A = assemble_A(SymMat.diag(1, 1, 1, 1), 3)
    assert A.evaluate(F(1)) == F(640, 729)
    B = assemble_A(SymMat.diag(1, 1, 1, 3), 3)
    assert B.evaluate(F(1)) == 0
    assert derivative_at_1(B) == F(-640, 729)


def test_assemble_derivative_matches_multiplicity_bridge():
    A = assemble_A(SymMat.diag(1, 1, 3, 27), 3)
    expect = -(1 - F(1, 9)) * (1 - F(1, 81)) * e_p(0, 1, 3, 3)
    assert derivative_at_1(A) == expect


def test_assemble_rejects_without_unimodular_entry():
    with pytest.raises(ValueError, match="T must represent 1 over Z_3"):
        assemble_A(SymMat.diag(3, 3, 3, 3), 3)


def test_assemble_rejects_unrepresented_one():
    with pytest.raises(ValueError, match="T must represent 1 over Z_3"):
        assemble_A(SymMat.diag(2, 6, 3, 9), 3)


# ---------------------------------------------------------------- twisted side


def test_twisted_density_examples():
    assert twisted_density(SymMat.diag(1, 1, 1, 3), 3) == F(64, 9)
    assert twisted_density(SymMat.diag(1, 1, 1, 1), 3) == 0


def test_twisted_intermediate_factors():
    # the unary and ternary pieces in the convention of the source text; only
    # their product is the density, and the character cancels out of it
    def unary(p):
        return 1 - F(chi(-1, p), p)

    def ternary(p):
        return 2 * (1 + F(chi(-1, p), p)) * (p + 1)

    assert unary(3) == F(4, 3)
    assert ternary(3) == F(16, 3)
    assert unary(3) * ternary(3) == F(64, 9)
    # at p = 5 the character flips and both factors change shape
    assert unary(5) == F(4, 5)
    assert ternary(5) == F(72, 5)
    prod = unary(5) * ternary(5)
    assert prod == F(288, 25)
    assert twisted_density(SymMat.diag(1, 1, 2, 5), 5) == prod


def test_twisted_density_closed_value_is_character_free():
    for p in (3, 5, 7):
        u = [c for c in range(2, p) if chi(c, p) == -1][0]
        T = SymMat.diag(1, 1, u, p) if chi(-1, p) == 1 else SymMat.diag(1, 1, 1, p)
        assert twisted_density(T, p) == 2 * (1 - F(1, p * p)) * (p + 1)


def test_twisted_density_validation():
    with pytest.raises(ValueError, match="T must have rank 4, got rank 3"):
        twisted_density(SymMat.diag(1, 1, 3), 3)
    with pytest.raises(ValueError, match="T must represent 1 over Z_3"):
        twisted_density(SymMat.diag(2, 6, 3, 9), 3)
