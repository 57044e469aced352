"""Local intersection multiplicities from diagonalized quadratic data.

Reads the triple of the ternary complement of <1> in a rank-4 form that
represents 1 from the form's Jordan data (kept on its SymMat), evaluates the
closed-form multiplicity e_p on its exponents, and decides transversality.
complement_triple is the one input gate of every rank-4 closed form, here
and in densities and whittaker. Only gross_keating_exponents searches for a
witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .padic import _plain_int, _sign, check_odd_prime, chi, residue, valuation
from .quadform import SymMat, jordan_diagonalize, represents_one_over_Zp


def _exponents(a1, a2, a3) -> tuple[int, int, int]:
    """The exponents as plain ints, a1 >= 0 (_plain_int); ValueError unless a1 <= a2 <= a3."""
    a1 = _plain_int(a1, "an integer a1", 0)
    a2 = _plain_int(a2, "an integer a2")
    a3 = _plain_int(a3, "an integer a3")
    if not a1 <= a2 <= a3:
        raise ValueError("exponents must satisfy 0 <= a1 <= a2 <= a3")
    return a1, a2, a3


_FIELDS = ("a1", "a2", "a3", "eps1", "eps2", "eps3")
_SIGN_NAMES = ("an integer eps1", "an integer eps2", "an integer eps3")


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
        values = (*_exponents(*self.exponents), *map(_sign, self.signs, _SIGN_NAMES))
        for name, x in zip(_FIELDS, values):
            object.__setattr__(self, name, x)
        object.__setattr__(self, "p", check_odd_prime(self.p))

    @property
    def exponents(self) -> tuple[int, int, int]:
        return (self.a1, self.a2, self.a3)

    @property
    def signs(self) -> tuple[int, int, int]:
        return (self.eps1, self.eps2, self.eps3)


@dataclass(frozen=True)
class GKNormalForm:
    """Unimodular square witness plus the Jordan data of its complement."""

    triple: GKTriple
    witness: tuple[int, ...]
    witness_depth: int  # witness Gram value is 1 mod p^depth


def _sqrt_mod_p_power(s: Fraction, p: int, depth: int) -> int:
    """Integer y with y^2 = s mod p^depth, for a square-class unit s."""
    q = p**depth
    s_res = residue(s, q)
    y = next(y for y in range(1, p) if (y * y - s_res) % p == 0)
    inv2 = pow(2, -1, q)
    for _ in range(depth.bit_length() + 1):
        y = (y + s_res * pow(y, -1, q)) % q * inv2 % q
    if (y * y - s_res) % q:
        raise ArithmeticError("square-root lift failed")
    return y


def complement_triple(T: SymMat, p: int) -> GKTriple:
    """Triple of the ternary C in T = <1> + C, for a rank-4 T that represents 1 over Z_p.

    The one gate of the rank-4 closed forms; it refuses, in this order, an
    even or composite p, a rank other than 4, a T that is not p-integral or
    is singular (jordan_diagonalize's refusals), and a T that misses 1.

    For odd p a Z_p-class is fixed by each Jordan block's rank and determinant
    square class (Kitaoka, Arithmetic of Quadratic Forms, 5.2; O'Meara 92:2)
    and <1> cancels (Witt), so C's class-canonical data is T's Jordan terms
    without their leading (0, +1), which representing 1 guarantees.
    """
    p = check_odd_prime(p)
    if T.n != 4:
        raise ValueError(f"T must have rank 4, got rank {T.n}")
    if not represents_one_over_Zp(T, p):
        raise ValueError(f"T must represent 1 over Z_{p}")
    (a1, s1), (a2, s2), (a3, s3) = jordan_diagonalize(T, p).terms[1:]
    return GKTriple(a1, a2, a3, s1, s2, s3, p)


def gross_keating_exponents(T: SymMat, p: int) -> GKNormalForm:
    """Split T as <1> + ternary over Z_p and return the complement's Jordan data.

    The witness is the lexicographically smallest x mod p with x^T T x a
    nonzero square, lifted so the value is 1 to depth max(exponents) + 2;
    determinism of the witness makes normal forms reproducible.
    """
    triple = complement_triple(T, p)
    p, depth = triple.p, triple.a3 + 2
    q = p**depth
    witness0, value0 = next(
        (x, value) for x in itertools.product(range(p), repeat=4)
        if (value := T.apply(x)) != 0 and valuation(value, p) == 0 and chi(value, p) == 1
    )
    y_inv = pow(_sqrt_mod_p_power(value0, p, depth), -1, q)
    # y^2 = value0 mod q is checked in the lift, so T(witness) = 1 mod q
    witness = tuple(x * y_inv % q for x in witness0)
    return GKNormalForm(triple, witness, depth)


def e_p(a1: int, a2: int, a3: int, p: int) -> Fraction:
    """Closed-form local multiplicity for ordered exponents.

    The even-parity branch carries a half-integral last term; it is integral
    exactly when the caller is in the vanishing regime, so the exact rational
    is returned and never rounded.
    """
    a1, a2, a3 = _exponents(a1, a2, a3)
    p = check_odd_prime(p)
    total = Fraction(sum((i + 1) * (a1 + a2 + a3 - 3 * i) * p**i for i in range(a1)))
    if (a1 + a2) % 2 == 0:
        total += sum(
            (a1 + 1) * (2 * a1 + a2 + a3 - 4 * i) * p**i
            for i in range(a1, (a1 + a2 - 2) // 2 + 1)
        )
        total += Fraction((a1 + 1) * (a3 - a2 + 1), 2) * p ** ((a1 + a2) // 2)
    else:
        total += sum(
            (a1 + 1) * (2 * a1 + a2 + a3 - 4 * i) * p**i
            for i in range(a1, (a1 + a2 - 1) // 2 + 1)
        )
    return total


def e_p_of_form(T: SymMat, p: int) -> Fraction:
    return e_p(*complement_triple(T, p).exponents, p)


def transversal(T: SymMat, p: int) -> bool:
    """Whether the intersection at a point with fundamental matrix T is transverse."""
    by_mult = e_p_of_form(T, p) == 1
    if by_mult != (valuation(T.det, p) == 1):
        raise ArithmeticError("transversality cross-check failed")
    return by_mult


def _e_text(e: Fraction) -> str:
    """e_p as printed: an integer plainly, else num/den."""
    return str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"


def gk_table_csv(p: int, a_max: int) -> str:
    """CSV of e_p over all ordered exponent triples up to a_max."""
    a_max = _plain_int(a_max, "an integer a_max", 0)
    lines = ["a1,a2,a3,p,e"]
    for a1, a2, a3 in itertools.combinations_with_replacement(range(a_max + 1), 3):
        lines.append(f"{a1},{a2},{a3},{p},{_e_text(e_p(a1, a2, a3, p))}")
    return "\n".join(lines) + "\n"
