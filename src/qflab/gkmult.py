"""Local intersection multiplicities from diagonalized quadratic data.

Normalizes a rank-4 form that represents 1 into (1) + ternary complement,
evaluates the closed-form multiplicity e_p on the complement exponents, and
decides transversality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .padic import _square_class, check_odd_prime, valuation
from .quadform import JordanDiagonal, SymMat, _represents_one, jordan_diagonalize


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


@dataclass(frozen=True)
class GKNormalForm:
    """Unimodular square witness plus the Jordan data of its complement."""

    triple: GKTriple
    witness: tuple[int, ...]
    witness_depth: int  # witness Gram value is 1 mod p^depth


def _sqrt_mod_p_power(s: Fraction, p: int, depth: int) -> int:
    """Integer y with y^2 = s mod p^depth, for a square-class unit s."""
    q = p**depth
    s_res = s.numerator % q * pow(s.denominator % q, -1, q) % q
    y = next(y for y in range(1, p) if (y * y - s_res) % p == 0)
    inv2 = pow(2, -1, q)
    for _ in range(depth.bit_length() + 1):
        y = (y + s_res * pow(y, -1, q)) % q * inv2 % q
    if (y * y - s_res) % q:
        raise ArithmeticError("square-root lift failed")
    return y


def gross_keating_exponents(T: SymMat, p: int) -> GKNormalForm:
    """Split T as <1> + ternary over Z_p and return the complement's Jordan data.

    The witness is the lexicographically smallest x mod p with x^T T x a
    nonzero square, lifted so the value is 1 to depth max(exponents) + 2;
    determinism of the witness makes normal forms reproducible.
    """
    check_odd_prime(p)
    if T.n != 4:
        raise ValueError("normal form requires a rank-4 input")
    if not T.is_p_integral(p):
        raise ValueError("normal form requires p-integral entries")
    if not T.is_nonsingular:
        raise ValueError("normal form requires nonsingular input")
    jd = jordan_diagonalize(T, p)
    if not _represents_one(jd):
        raise ValueError("normal form requires a form that represents 1 over Z_p")
    return _normal_form(T, jd)


def _normal_form(T: SymMat, jd: JordanDiagonal) -> GKNormalForm:
    # gross_keating_exponents for a checked T whose Jordan data jd is known
    p = jd.p
    depth = max(jd.exponents) + 2
    q = p**depth

    witness0, value0 = next(
        (x, value) for x in itertools.product(range(p), repeat=4)
        if (value := T.apply(x)) != 0 and _square_class(value, p) == (0, 1)
    )
    y = _sqrt_mod_p_power(value0, p, depth)
    y_inv = pow(y, -1, q)
    witness = tuple(x * y_inv % q for x in witness0)
    value = T.apply(witness)
    if value != 1 and valuation(value - 1, p) < depth:
        raise ArithmeticError("witness lift failed")

    i0 = next(i for i in range(4) if witness[i] % p != 0)
    tw = [sum(T[i, j] * witness[j] for j in range(4)) for i in range(4)]
    rest = [i for i in range(4) if i != i0]
    comp = SymMat([
        [T[i, j] - tw[i] * tw[j] / value for j in rest] for i in rest
    ])
    jd = jordan_diagonalize(comp, p)
    (a1, s1), (a2, s2), (a3, s3) = jd.terms
    return GKNormalForm(GKTriple(a1, a2, a3, s1, s2, s3, p), witness, depth)


def e_p(a1: int, a2: int, a3: int, p: int) -> Fraction:
    """Closed-form local multiplicity for ordered exponents.

    The even-parity branch carries a half-integral last term; it is integral
    exactly when the caller is in the vanishing regime, so the exact rational
    is returned and never rounded.
    """
    if not 0 <= a1 <= a2 <= a3:
        raise ValueError("exponents must satisfy 0 <= a1 <= a2 <= a3")
    check_odd_prime(p)
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
    nf = gross_keating_exponents(T, p)
    return e_p(*nf.triple.exponents, p)


def transversal(T: SymMat, p: int) -> bool:
    """Whether the intersection at a point with fundamental matrix T is transverse."""
    nf = gross_keating_exponents(T, p)
    by_det = valuation(T.det, p) == 1
    by_mult = e_p(*nf.triple.exponents, p) == 1
    if by_det != by_mult:
        raise ArithmeticError("transversality cross-check failed")
    return by_det


def gk_table_csv(p: int, a_max: int) -> str:
    """CSV of e_p over all ordered exponent triples up to a_max."""
    lines = ["a1,a2,a3,p,e"]
    for a1, a2, a3 in itertools.combinations_with_replacement(range(a_max + 1), 3):
        e = e_p(a1, a2, a3, p)
        text = str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        lines.append(f"{a1},{a2},{a3},{p},{text}")
    return "\n".join(lines) + "\n"
