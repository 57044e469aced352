"""Scalar local arithmetic: valuations, unit square classes, local squares,
and Hasse invariants of diagonals, with the Hilbert symbol as their
two-entry case; also the candidate primes of a search over places, and its
places, one `Place` per prime (`_place`).

The Hasse invariant has one closed form at each place (`hasse_of_diagonal`),
so the 2-adic unit arithmetic lives only here. The same pass over a
diagonal gives the square class of its product (`_hasse_and_det_class`).
A square class of Q_v^* is a small int of F_2 coordinates: bit 0 is the
valuation's parity (at the real place, the sign), bit 1 the unit's
character (chi = -1 at an odd p, eps at 2) and bit 2 omega at 2. A product
of classes is their XOR, the square class is 0, and the Hilbert symbol of
two classes is a bilinear form on the bits (`_class_hilbert`; Serre, A
Course in Arithmetic, III.1.2), so kept classes decide it by integer
arithmetic alone. This is the one module that imports sympy (`isprime`,
`factorint`).

Everything is exact. Inputs are integers (any type with `__index__` but a
bool) or fractions.Fraction; floats raise TypeError. Every integer parameter
of the package, with its lower bound, is read by `_plain_int` (an integer
field of a JSON object by `_json_int`), and every +-1 sign by `_sign`, so
each refusal names its parameter; a JSON reader takes each field through
`_json_field`, so a missing one is named too.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from sympy import factorint, isprime

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


@lru_cache(maxsize=4096, typed=True)
def _place(p: int) -> Place:
    """Place(p), validated once and then shared: a search over candidate
    primes makes its places here."""
    return Place(p)


def _check_place(v) -> Place:
    """v itself; TypeError unless it is a Place."""
    if not isinstance(v, Place):
        raise TypeError(f"expected a Place, got {v!r}")
    return v


def _plain_int(x, what: str = "an integer prime", least: int | None = None) -> int:
    """x as a plain int, from any integer with __index__ but a bool, so that
    no numpy scalar reaches three-argument pow or a cache key: the one reader
    of integer parameters. TypeError naming what otherwise, and ValueError
    naming it if x < least."""
    if type(x) is not int:  # the common plain int skips the conversion
        if isinstance(x, bool) or not hasattr(type(x), "__index__"):
            raise TypeError(f"expected {what}, got {x!r}")
        x = operator.index(x)
    if least is not None and x < least:
        raise ValueError(f"expected {what} >= {least}, got {x}")
    return x


def _json_int(x, what: str) -> int:
    """An integer field of a JSON object: x as _plain_int reads it, or a float
    or Fraction that is integral, as a JSON 3.0 is; ValueError naming what."""
    if isinstance(x, (float, Fraction)):
        if x != int(x):
            raise ValueError(f"{what} must be an integer, got {x}")
        x = int(x)
    return _plain_int(x, f"an integer {what}")


def _json_field(data, key: str, what: str):
    """data[key] of a JSON object; ValueError naming key if data is not an
    object or has no such field."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(data).__name__}")
    if key not in data:
        raise ValueError(f"{what} JSON is missing the field {key!r}")
    return data[key]


def _sign(x, what: str) -> int:
    """x as _plain_int reads it; ValueError naming what unless it is +1 or -1."""
    if (x := _plain_int(x, what)) not in (1, -1):
        raise ValueError(f"expected {what} of +1 or -1, got {x}")
    return x


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
    return Fraction(_plain_int(x, "an integer or Fraction"))


def _read_exact(x) -> Fraction:
    """x as _exact reads it, except that a string such as "1/3" (the JSON
    form) parses exactly."""
    return Fraction(x) if isinstance(x, str) else _exact(x)


def residue(x: Rational, q: int, what: str = "value") -> int:
    """x mod q, num * den^-1 for x = num/den, with q a power of a prime p.

    Floats and strings raise TypeError (_exact); a denominator that p
    divides raises ValueError naming what.
    """
    x = _exact(x)
    if math.gcd(x.denominator, q) != 1:
        raise ValueError(f"{what} {x} has no residue mod {q}: p divides its denominator")
    return x.numerator * pow(x.denominator, -1, q) % q


def _split(x: Rational, p: int) -> tuple[int, int, int]:
    """(v, num, den) with x = p^v * num / den and p dividing neither num nor den."""
    p = _plain_int(p, least=2)
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
    else:
        num, den = _plain_int(x, "an integer or Fraction"), 1
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


def chi(u: Rational, p: int) -> int:
    """Square-class character of a p-adic unit: +1 for squares, -1 otherwise."""
    p = check_odd_prime(p)
    if _exact(u) == 0:
        raise ValueError("chi requires a p-adic unit")
    v, c = _square_class(u, p)
    if v != 0:
        raise ValueError("chi requires a p-adic unit")
    return c


def hilbert(a: Rational, b: Rational, v: Place) -> int:
    """Local Hilbert symbol (a,b)_v in {+1,-1}: the Hasse invariant of <a, b>."""
    return hasse_of_diagonal((a, b), v)


def hasse_of_diagonal(diag, v: Place) -> int:
    """Product of Hilbert symbols (d_i, d_j)_v over i < j, in closed form.

    Each entry is read once, as d_i = p^a_i * u_i at a finite prime; A = sum a_i.
    - Odd p: with (d_i, d_j)_p = chi(-1)^(a_i a_j) chi(u_i)^a_j chi(u_j)^a_i
      the product is chi(-1)^#{i < j : a_i, a_j odd} * prod_i chi(u_i)^(A - a_i).
    - p = 2: with (d_i, d_j)_2 = (-1)^(e_i e_j + a_i w_j + a_j w_i), e and w
      the eps and omega of u mod 8, the exponent is
      E(E - 1)/2 + A W - sum_i a_i w_i, E = sum e_i and W = sum w_i.
    - The real place: (-1)^(N(N - 1)/2), N the number of negative entries.
    A zero entry is refused at every place, and a v that is not a Place.
    """
    return _hasse_and_det_class(diag, _check_place(v))[0]


def _hasse_and_det_class(diag, v: Place) -> tuple[int, int]:
    """(hasse_of_diagonal(diag, v), square class of the product of diag at v),
    from one pass over the entries' classes: the sums A, E and W of
    hasse_of_diagonal are the product's valuation, eps and omega."""
    if not all(diag) and not all(map(_exact, diag)):  # _exact refuses floats and bools first
        raise ValueError("hilbert symbol requires nonzero arguments")
    if not v.is_finite:
        N = sum(_exact(d) < 0 for d in diag)
        return (-1 if N * (N - 1) // 2 % 2 else 1), N & 1
    p = v.prime
    if p != 2:
        classes = [_square_class(d, p) for d in diag]
        total = sum(a for a, _ in classes)
        odd = sum(a % 2 for a, _ in classes)
        s = -1 if p % 4 == 3 and odd * (odd - 1) // 2 % 2 else 1
        unit = 0
        for a, c in classes:
            if c == -1:
                unit ^= 2
                if (total - a) % 2:
                    s = -s
        return s, total & 1 | unit
    E = A = W = AW = 0
    for d in diag:
        a, num, den = _split(d, 2)
        u = num * den % 8  # an odd den is its own inverse mod 8
        e, w = (u - 1) // 2 % 2, (u * u - 1) // 8 % 2
        E, A, W, AW = E + e, A + a, W + w, AW + a * w
    return (-1 if (E * (E - 1) // 2 + A * W - AW) % 2 else 1), A & 1 | (E & 1) << 1 | (W & 1) << 2


def _class_hilbert(x: int, y: int, v: Place) -> int:
    """(x, y)_v of two square classes at v, as _hasse_and_det_class gives them.

    The exponent is e_x e_y + a_x w_y + a_y w_x at 2; elsewhere it is
    a_x a_y (p - 1)/2 + a_x c_y + a_y c_x, which at the real place, where
    only the sign bit a is set, reads a_x a_y.
    """
    p = v.prime
    if p == 2:
        e = (x & y) >> 1 ^ x & y >> 2 ^ y & x >> 2
    else:
        e = x & y & (1 if p is None else p >> 1) ^ x & y >> 1 ^ y & x >> 1
    return -1 if e & 1 else 1


def _minus_one_class(v: Place) -> int:
    # -1 is negative at the real place, 7 mod 8 at 2, and a square at an odd
    # p exactly when p = 1 mod 4
    p = v.prime
    return 1 if p is None else 2 if p == 2 or p % 4 == 3 else 0


def is_local_square(x: Rational, v: Place) -> bool:
    _check_place(v)
    if _exact(x) == 0:
        raise ValueError("square class of zero undefined")
    return _hasse_and_det_class((x,), v)[1] == 0


def _candidate_primes(*values: Rational) -> list[int]:
    """2 and every prime dividing a numerator or denominator of the values.

    Each value is factored on its own: a prime can cancel out of a product,
    like 3 out of (1/3) * 3, and still change a local invariant. Each
    distinct integer is factored once, and its primes are kept across calls
    (`_prime_factors`).
    """
    parts = {abs(n) for x in map(_exact, values) for n in (x.numerator, x.denominator)}
    primes = {2}
    for n in parts:
        primes.update(_prime_factors(n))
    return sorted(primes)


@lru_cache(maxsize=4096)
def _prime_factors(n: int) -> tuple[int, ...]:
    # the primes of a plain int n >= 0, one factorint per distinct n while kept
    return tuple(factorint(n))
