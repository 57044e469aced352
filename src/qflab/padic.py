"""Scalar p-adic arithmetic: valuations, unit square classes, Hilbert symbols.

Everything is exact. Inputs are ints or fractions.Fraction; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from sympy import isprime

Rational = Fraction | int


@dataclass(frozen=True)
class Place:
    """A place of the rationals: a finite prime or the real place."""

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None and not isprime(self.prime):
            raise ValueError(f"not a prime: {self.prime}")

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __repr__(self):
        return f"Place({self.prime})" if self.is_finite else "Place(oo)"

    def __str__(self):
        return str(self.prime) if self.is_finite else "oo"


INFINITE_PLACE = Place()


def check_odd_prime(p: int) -> int:
    if not isprime(p) or p == 2:
        raise ValueError(f"expected an odd prime, got {p}")
    return p


def valuation(x: Rational, p: int) -> int:
    """Exponent v with x = p^v * unit."""
    if x == 0:
        raise ValueError("valuation of zero undefined")
    x = Fraction(x)
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def unit_part(x: Rational, p: int) -> Fraction:
    """The p-adic unit u with x = p^valuation(x) * u."""
    return Fraction(x) / Fraction(p) ** valuation(x, p)


def _unit_residue(u: Fraction, modulus: int) -> int:
    # residue of a unit rational mod p^k (denominator invertible)
    num = u.numerator % modulus
    den = u.denominator % modulus
    return num * pow(den, -1, modulus) % modulus


def chi(u: Rational, p: int) -> int:
    """Square-class character of a p-adic unit: +1 for squares, -1 otherwise."""
    check_odd_prime(p)
    u = Fraction(u)
    if u == 0 or valuation(u, p) != 0:
        raise ValueError("chi requires a p-adic unit")
    r = _unit_residue(u, p)
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def _eps2(u: Fraction) -> int:
    # (u-1)/2 mod 2 for a 2-adic unit
    return (_unit_residue(u, 8) - 1) // 2 % 2


def _omega2(u: Fraction) -> int:
    # (u^2-1)/8 mod 2 for a 2-adic unit
    return (_unit_residue(u, 8) ** 2 - 1) // 8 % 2


def hilbert(a: Rational, b: Rational, v: Place) -> int:
    """Local Hilbert symbol (a,b)_v in {+1,-1}."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if not v.is_finite:
        return -1 if a < 0 and b < 0 else 1
    p = v.prime
    alpha, beta = valuation(a, p), valuation(b, p)
    u, w = unit_part(a, p), unit_part(b, p)
    if p == 2:
        e = _eps2(u) * _eps2(w) + alpha * _omega2(w) + beta * _omega2(u)
        return -1 if e % 2 else 1
    s = 1
    if alpha * beta % 2 and chi(-1, p) == -1:
        s = -s
    if beta % 2 and chi(u, p) == -1:
        s = -s
    if alpha % 2 and chi(w, p) == -1:
        s = -s
    return s
