"""Closed forms for local representation densities (p odd).

The ternary closed form over the split complement, the density series A(X)
(the unary factor of <1> times that form) assembled from T's Jordan data
(kept on its SymMat), its derivative at X = 1, and the twisted
(ramified-quaternion) density. Every value here is cross-checked against
the counting oracle in the test suite.

The closed forms multiply integer polynomials over one power of p: the
bracket has integer coefficients, p^4 times the ternary series is
(p^2 - X)(p^2 - X^2) times the bracket, and p^6 A(X) is (p^2 + X) times
that. A DensityPolynomial keeps those integers over their one denominator,
so the series stays integral through evaluation and differentiation; each
value is one Fraction, made at the end."""

from __future__ import annotations

import math
from fractions import Fraction

from .padic import Place, Rational, _exact, _json_field, _read_exact, check_odd_prime, chi
from .quadform import SymMat, frac_str, represents_local, twisted_space
from .gkmult import GKTriple, complement_triple


def _strip(coeffs: list) -> tuple:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _strip(out)


class DensityPolynomial:
    """Polynomial in X with exact rational coefficients, constant term first.

    Kept as integer numerators over one positive denominator, in lowest
    terms (no prime divides the denominator and every numerator), so the
    form is unique and arithmetic stays in integers until a value is read.
    """

    def __init__(self, coeffs):
        coeffs = [_exact(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs] or [0], den)

    def _set(self, numerator: list, den: int):
        # strip trailing zeros, then divide out the content shared with den
        num = _strip(numerator)
        g = math.gcd(den, *num)
        self._num = num if g == 1 else tuple(n // g for n in num)
        self._den = den // g

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._num)

    def evaluate(self, x: Rational) -> Fraction:
        """The value at x = a/b: sum n_i a^i b^(k-i) by integer Horner, over den b^k."""
        x = _exact(x)
        a, b = x.numerator, x.denominator
        acc, scale = self._num[-1], 1
        for n in reversed(self._num[:-1]):
            scale *= b
            acc = acc * a + n * scale
        return Fraction(acc, self._den * scale)

    def __mul__(self, other: "DensityPolynomial") -> "DensityPolynomial":
        return _over(_pmul(self._num, other._num), self._den * other._den)

    def __eq__(self, other):
        return (isinstance(other, DensityPolynomial)
                and (self._num, self._den) == (other._num, other._den))

    def __repr__(self):
        return f"DensityPolynomial({list(self.coeffs)})"

    def to_json(self) -> dict:
        return {"coeffs": [frac_str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "DensityPolynomial":
        return cls(map(_read_exact, _json_field(data, "coeffs", "density polynomial")))


def _over(numerator, den: int) -> DensityPolynomial:
    """The polynomial with integer coefficients numerator / den, den > 0."""
    poly = DensityPolynomial.__new__(DensityPolynomial)
    poly._set(list(numerator), den)
    return poly


def derivative_at_1(A: DensityPolynomial) -> Fraction:
    """d/dX of the polynomial at X = 1, exactly: sum i n_i over the denominator."""
    return Fraction(sum(i * n for i, n in enumerate(A._num)), A._den)


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


def _bracket_integers(t: GKTriple) -> tuple[int, ...]:
    """The bracketed polynomial of the ternary closed form, without prefactor.

    Its coefficients are integers, sums of signed powers of p, and they
    reverse: X^(a1+a2+a3) * B(1/X) = chi_tilde * B(X).
    """
    p = t.p
    ct = chi_tilde(t)
    a1, a2, a3 = t.exponents
    asum = a1 + a2 + a3
    even = (a1 - a2) % 2 == 0
    top = (a1 + a2) // 2 - 1 if even else (a1 + a2 - 1) // 2
    acc = [0] * (asum + 1)
    for el in range(top + 1):
        w = p**el
        for k in range(min(a1, el) + 1):
            acc[2 * el - k] += w
            acc[asum + k - 2 * el] += ct * w
    if even:
        # p^((a1+a2)/2) X^a2 (1 + ... + X^a1)(1 + eps X + ... + (eps X)^(a3-a2))
        eps = chi(-1, p) * t.eps1 * t.eps2
        lead = p ** ((a1 + a2) // 2)
        for i in range(a1 + 1):
            for j in range(a3 - a2 + 1):
                acc[a2 + i + j] += lead * eps**j
    return _strip(acc)


def _ternary_numerator(t: GKTriple) -> tuple[int, ...]:
    """p^4 times the ternary series: (p^2 - X)(p^2 - X^2) times the bracket."""
    q = t.p * t.p
    return _pmul(_pmul((q, -1), (q, 0, -1)), _bracket_integers(t))


def kitaoka_ternary_poly(t: GKTriple) -> DensityPolynomial:
    """Density series of the ternary complement against the rank-4 split form."""
    return _over(_ternary_numerator(t), t.p**4)


def assemble_A(T: SymMat, p: int) -> DensityPolynomial:
    """Density series A(X) of a rank-4 target with a represented 1.

    Splits off <1> and multiplies the unary factor with the ternary closed
    form of the complement, whose triple complement_triple reads; its gate
    is the only check. Kept on T per prime, as its Jordan data is; a refusal
    is not kept, so every call raises it again.
    """
    p = check_odd_prime(p)
    A = T._series.get(p)
    if A is None:
        t = complement_triple(T, p)
        # the unary factor 1 + X/p^2 is (p^2 + X) / p^2
        A = T._series[p] = _over(_pmul((p * p, 1), _ternary_numerator(t)), p**6)
    return A


def twisted_density(T: SymMat, p: int) -> Fraction:
    """Density of a rank-4 target against the rank-5 ramified-quaternion space.

    T passes complement_triple's gate; it is 0 off the represented side.
    """
    p = complement_triple(T, p).p
    if not represents_local(twisted_space(p), T, Place(p)):
        return Fraction(0)
    return 2 * (1 - Fraction(1, p * p)) * (p + 1)
