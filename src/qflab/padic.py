"""Scalar p-adic arithmetic: valuations, unit square classes, Hilbert symbols.

Everything is exact. Inputs are integers (any type with `__index__`) or
fractions.Fraction; floats raise TypeError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from sympy import isprime

Rational = Fraction | int


@lru_cache(maxsize=1024, typed=True)
def _is_prime(p: int) -> bool:
    return bool(isprime(p))


@dataclass(frozen=True)
class Place:
    """A place of the rationals: a finite prime or the real place."""

    prime: int | None = None

    def __post_init__(self):
        if self.prime is not None:
            object.__setattr__(self, "prime", _plain_int(self.prime))
            if not _is_prime(self.prime):
                raise ValueError(f"not a prime: {self.prime}")

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __repr__(self):
        return f"Place({self.prime})" if self.is_finite else "Place(oo)"

    def __str__(self):
        return str(self.prime) if self.is_finite else "oo"


INFINITE_PLACE = Place()


def _plain_int(x, what: str = "an integer prime") -> int:
    """x as a plain int, from any integer with __index__ but a bool, so that
    no numpy scalar reaches three-argument pow or a cache key; TypeError
    naming what otherwise."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError(f"expected {what}, got {x!r}")


def check_odd_prime(p: int) -> int:
    """p as a plain int (_plain_int); ValueError unless it is an odd prime."""
    p = _plain_int(p)
    if p == 2 or not _is_prime(p):
        raise ValueError(f"expected an odd prime, got {p}")
    return p


def _exact(x: Rational) -> Fraction:
    """x as a Fraction; anything but an integer or a Fraction raises TypeError."""
    if isinstance(x, Fraction):
        return x
    return Fraction(_integer(x))


def residue(x: Rational, q: int, what: str = "value") -> int:
    """x mod q, num * den^-1 for x = num/den, with q a power of a prime p.

    Floats and strings raise TypeError (_exact); a denominator that p
    divides raises ValueError naming what.
    """
    x = _exact(x)
    if math.gcd(x.denominator, q) != 1:
        raise ValueError(f"{what} {x} has no residue mod {q}: p divides its denominator")
    return x.numerator * pow(x.denominator, -1, q) % q


def _integer(x) -> int:
    try:
        return operator.index(x)
    except TypeError:
        raise TypeError(f"expected an integer or Fraction, got {x!r}") from None


def _split(x: Rational, p: int) -> tuple[int, int, int]:
    """(v, num, den) with x = p^v * num / den and p dividing neither num nor den."""
    if type(p) is not int:  # the common int skips the conversion
        p = _plain_int(p)
    if p < 2:
        raise ValueError(f"expected a prime, got {p}")
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
    else:
        num, den = _integer(x), 1
    if num == 0:
        raise ValueError("valuation of zero undefined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num, den


def _legendre(r: int, p: int) -> int:
    # +1 or -1 for an integer r prime to the odd prime p
    return 1 if pow(r, (p - 1) // 2, p) == 1 else -1


def _square_class(x: Rational, p: int) -> tuple[int, int]:
    """(valuation, chi of the unit part) of a nonzero rational at an odd prime."""
    v, num, den = _split(x, p)
    # chi(num/den) = chi(num*den): den and 1/den share a square class
    return v, _legendre(num * den, p)


def valuation(x: Rational, p: int) -> int:
    """Exponent v with x = p^v * unit."""
    return _split(x, p)[0]


def unit_part(x: Rational, p: int) -> Fraction:
    """The p-adic unit u with x = p^valuation(x) * u."""
    _, num, den = _split(x, p)
    return Fraction(num, den)


def chi(u: Rational, p: int) -> int:
    """Square-class character of a p-adic unit: +1 for squares, -1 otherwise."""
    p = check_odd_prime(p)
    if _exact(u) == 0:
        raise ValueError("chi requires a p-adic unit")
    v, c = _square_class(u, p)
    if v != 0:
        raise ValueError("chi requires a p-adic unit")
    return c


def _eps2(r: int) -> int:
    # (u-1)/2 mod 2 for a 2-adic unit u with residue r mod 8
    return (r - 1) // 2 % 2


def _omega2(r: int) -> int:
    # (u^2-1)/8 mod 2 for a 2-adic unit u with residue r mod 8
    return (r * r - 1) // 8 % 2


def hilbert(a: Rational, b: Rational, v: Place) -> int:
    """Local Hilbert symbol (a,b)_v in {+1,-1}."""
    a, b = _exact(a), _exact(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if not v.is_finite:
        return -1 if a < 0 and b < 0 else 1
    p = v.prime
    alpha, ua, da = _split(a, p)
    beta, ub, db = _split(b, p)
    if p == 2:
        # an odd den is its own inverse mod 8, so num*den is the residue of num/den
        u, w = ua * da % 8, ub * db % 8
        e = _eps2(u) * _eps2(w) + alpha * _omega2(w) + beta * _omega2(u)
        return -1 if e % 2 else 1
    s = 1
    if alpha * beta % 2 and p % 4 == 3:  # chi(-1) = -1
        s = -s
    if beta % 2 and _legendre(ua * da, p) == -1:
        s = -s
    if alpha % 2 and _legendre(ub * db, p) == -1:
        s = -s
    return s
