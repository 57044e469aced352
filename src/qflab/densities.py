"""Closed forms for local representation densities (p odd).

Unary factors, the ternary closed form over the split complement, the
reduction-formula assembly of the density series A(X), its derivative at
X = 1, and the twisted (ramified-quaternion) density. Every value here is
cross-checked against the counting oracle in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import Place, Rational, check_odd_prime, chi
from .quadform import (
    SymMat,
    _represents_one,
    frac_str,
    jordan_diagonalize,
    represents_local,
    represents_one_over_Zp,
    twisted_space,
)


def _strip(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _strip(out)


def _peval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _monomial(exp: int, coeff: Rational = 1):
    out = [Fraction(0)] * (exp + 1)
    out[exp] = Fraction(coeff)
    return tuple(out)


class DensityPolynomial:
    """Polynomial in X with exact rational coefficients, constant term first."""

    def __init__(self, coeffs):
        self.coeffs = _strip([Fraction(c) for c in coeffs] or [Fraction(0)])

    def evaluate(self, x: Rational) -> Fraction:
        return _peval(self.coeffs, Fraction(x))

    @property
    def value_at_1(self) -> Fraction:
        return self.evaluate(1)

    def __mul__(self, other: "DensityPolynomial") -> "DensityPolynomial":
        return DensityPolynomial(_pmul(self.coeffs, other.coeffs))

    def __eq__(self, other):
        return isinstance(other, DensityPolynomial) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"DensityPolynomial({list(self.coeffs)})"

    def to_json(self) -> dict:
        return {"coeffs": [frac_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "DensityPolynomial":
        return cls(data["coeffs"])


def derivative_at_1(A: DensityPolynomial) -> Fraction:
    """d/dX of the polynomial at X = 1, exactly."""
    return sum((i * c for i, c in enumerate(A.coeffs)), Fraction(0))


@dataclass(frozen=True)
class GKTriple:
    """Ordered exponents and unit classes of a diagonalized ternary complement."""

    a1: int
    a2: int
    a3: int
    eps1: int
    eps2: int
    eps3: int
    p: int

    def __post_init__(self):
        if not 0 <= self.a1 <= self.a2 <= self.a3:
            raise ValueError("exponents must satisfy 0 <= a1 <= a2 <= a3")
        if any(e not in (1, -1) for e in (self.eps1, self.eps2, self.eps3)):
            raise ValueError("unit classes must be +1 or -1")
        check_odd_prime(self.p)

    @property
    def exponents(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    @property
    def signs(self) -> tuple[int, int, int]:
        return (self.eps1, self.eps2, self.eps3)


def unary_density_factor(eps0: int, p: int) -> DensityPolynomial:
    """Density of a unit square class against the base space: 1 + chi * X / p^2."""
    check_odd_prime(p)
    if eps0 not in (1, -1):
        raise ValueError("unit class must be +1 or -1")
    return DensityPolynomial((1, Fraction(eps0, p * p)))


def chi_tilde(t: GKTriple) -> int:
    """Character of the ternary complement, keyed by the exponent parity pattern."""
    cm1 = chi(-1, t.p)
    b1, b2, b3 = t.a1 % 2, t.a2 % 2, t.a3 % 2
    if b1 == b2 == b3:
        return 1
    if b1 == b2:
        return cm1 * t.eps1 * t.eps2
    if b1 == b3:
        return cm1 * t.eps1 * t.eps3
    return cm1 * t.eps2 * t.eps3


def kitaoka_bracket(t: GKTriple) -> tuple[Fraction, ...]:
    """The bracketed polynomial of the ternary closed form, without prefactor.

    Coefficient reversal: X^(a1+a2+a3) * B(1/X) = chi_tilde * B(X); the test
    suite asserts this on the coefficient tuple.
    """
    p = t.p
    ct = chi_tilde(t)
    a1, a2, a3 = t.exponents
    asum = a1 + a2 + a3
    even = (a1 - a2) % 2 == 0
    top = (a1 + a2) // 2 - 1 if even else (a1 + a2 - 1) // 2
    acc = (Fraction(0),)
    for el in range(top + 1):
        inner = (Fraction(0),)
        for k in range(min(a1, el) + 1):
            inner = _padd(inner, _monomial(2 * el - k))
            inner = _padd(inner, _monomial(asum + k - 2 * el, ct))
        acc = _padd(acc, tuple(p**el * c for c in inner))
    if even:
        eps = chi(-1, p) * t.eps1 * t.eps2
        geo1 = _strip([Fraction(1)] * (a1 + 1))
        geo2 = _strip([Fraction(eps) ** j for j in range(a3 - a2 + 1)])
        last = _pmul(_monomial(a2, p ** ((a1 + a2) // 2)), _pmul(geo1, geo2))
        acc = _padd(acc, last)
    return acc


def kitaoka_ternary_poly(t: GKTriple) -> DensityPolynomial:
    """Density series of the ternary complement against the rank-4 split form."""
    p = t.p
    pre = _pmul(
        (Fraction(1), Fraction(-1, p * p)),
        (Fraction(1), Fraction(0), Fraction(-1, p * p)),
    )
    return DensityPolynomial(_pmul(pre, kitaoka_bracket(t)))


def assemble_A(T: SymMat, p: int) -> DensityPolynomial:
    """Density series A(X) of a rank-4 target with a represented 1.

    Splits off a unimodular square witness and multiplies the unary factor
    with the ternary closed form of the complement.
    """
    from .gkmult import _normal_form

    jd = jordan_diagonalize(T, p)
    if jd.exponents[0] > 0:
        raise ValueError("reduction formula requires a unimodular entry")
    if not _represents_one(jd):
        raise ValueError("Kitaoka closed form requires represented 1")
    if T.n != 4:
        raise ValueError("normal form requires a rank-4 input")
    return _series(_normal_form(T, jd).triple)


def _series(triple: GKTriple) -> DensityPolynomial:
    # assemble_A from the normal-form triple of T
    return unary_density_factor(1, triple.p) * kitaoka_ternary_poly(triple)


def twisted_density(T: SymMat, p: int) -> Fraction:
    """Density of a rank-4 target against the rank-5 ramified-quaternion space."""
    check_odd_prime(p)
    if T.n != 4 or not T.is_nonsingular:
        raise ValueError("twisted density requires a nonsingular rank-4 target")
    if not represents_one_over_Zp(T, p):
        raise ValueError(
            "twisted closed form requires a target representing 1; "
            "use the counting oracle for other targets"
        )
    return _twisted_density(T, p)


def _twisted_density(T: SymMat, p: int) -> Fraction:
    # twisted_density for a checked T
    if not represents_local(twisted_space(p), T, Place(p)):
        return Fraction(0)
    return 2 * (1 - Fraction(1, p * p)) * (p + 1)
