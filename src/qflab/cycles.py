"""Intersection bookkeeping for special cycles on the supersingular locus.

Covers the block decomposition of a fundamental matrix, the isolation
criterion, the component-count decision table, the reduced finite-field
quadratic spaces at a crossing point, incidence constants recomputed by
enumeration, and the multiplicity-weighted point sum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .padic import check_odd_prime
from .quadform import SymMat, least_nonsquare, represents_one_over_Zp
from .gkmult import e_p_of_form


def extract_blocks(T: SymMat, sizes) -> list[SymMat]:
    """Principal diagonal blocks of the given sizes, in order."""
    sizes = tuple(int(s) for s in sizes)
    if T.n != 4:
        raise ValueError("block extraction expects a rank-4 fundamental matrix")
    if any(not 1 <= s <= 4 for s in sizes) or sum(sizes) != 4:
        raise ValueError("block sizes must lie in 1..4 and sum to 4")
    out, start = [], 0
    for s in sizes:
        out.append(T.principal_block(start, s))
        start += s
    return out


def is_isolated(T: SymMat, p: int) -> bool:
    """Whether the intersection with fundamental matrix T is a single point.

    Criterion: T nonsingular and representing 1 over the p-adic integers.
    """
    p = check_odd_prime(p)
    if not T.is_p_integral(p):
        raise ValueError("isolation criterion requires p-integral entries")
    return T.is_nonsingular and represents_one_over_Zp(T, p)


_LABELS = ("isolated", "one_line", "two_lines", "p_plus_one_lines")


@dataclass(frozen=True)
class ComponentClassification:
    """Label plus a short description of the matching case."""

    label: str
    case_ref: str

    def __post_init__(self):
        if self.label not in _LABELS:
            raise ValueError(f"unknown classification label: {self.label}")


def classify_component(
    rank_t_mod_p: int, dim_m: int, m_data: dict, p: int
) -> ComponentClassification:
    """Decision table for how many distinguished lines stay in the cycle.

    Inputs describe the mod-p reduction: the rank of the fundamental matrix,
    the dimension of the reduced endomorphism form m, and two flags of m
    (whether it represents 1, whether it carries a radical line). The form m
    is extra data, not derivable from the matrix alone.
    """
    p = check_odd_prime(p)
    if not 0 <= rank_t_mod_p <= 3:
        raise ValueError("inconsistent case: the rank of the reduction is at most 3")
    if not 0 <= dim_m <= 3:
        raise ValueError("inconsistent case: the reduced form has dimension at most 3")
    if rank_t_mod_p > dim_m:
        raise ValueError(
            "inconsistent case: the rank of the reduction cannot exceed its dimension"
        )
    represents_one = bool(m_data.get("represents_one", False))
    has_radical = bool(m_data.get("has_radical_line", False))
    if rank_t_mod_p == 0 and represents_one:
        raise ValueError("inconsistent case: a reduction divisible by p cannot represent 1")
    if rank_t_mod_p == dim_m and has_radical:
        raise ValueError("inconsistent case: a full-rank reduction has no radical line")

    if represents_one:
        return ComponentClassification(
            "isolated", "the reduced form represents 1: proper intersection point"
        )
    if rank_t_mod_p == 0:
        if dim_m == 0:
            return ComponentClassification(
                "p_plus_one_lines",
                "divisible matrix, trivial reduced form: "
                "every distinguished line lies in the cycle",
            )
        if dim_m == 1 and has_radical:
            return ComponentClassification(
                "one_line",
                "divisible matrix, one null endomorphism line: "
                "a unique distinguished line lies in the cycle",
            )
    if rank_t_mod_p == 1:
        if dim_m == 1:
            return ComponentClassification(
                "two_lines",
                "unit part a nonsquare on a single line: "
                "exactly two distinguished lines lie in the cycle",
            )
        if dim_m == 2 and has_radical:
            return ComponentClassification(
                "one_line",
                "rank-one reduction on two dimensions with its radical line: "
                "exactly one distinguished line lies in the cycle",
            )
    raise ValueError(
        "inconsistent case: no clause matches rank "
        f"{rank_t_mod_p}, dim {dim_m}, represents_one={represents_one}, "
        f"radical_line={has_radical}"
    )


@dataclass(frozen=True)
class FiniteFieldQuadSpace:
    """Quadratic form over F_p (p odd) of dimension 1..3, values by enumeration."""

    p: int
    gram: tuple

    def __post_init__(self):
        object.__setattr__(self, "p", check_odd_prime(self.p))
        rows = tuple(tuple(int(x) % self.p for x in row) for row in self.gram)
        if not 1 <= len(rows) <= 3 or any(len(r) != len(rows) for r in rows):
            raise ValueError("finite-field form must be square of dimension 1..3")
        for i in range(len(rows)):
            for j in range(len(rows)):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("finite-field form must be symmetric")
        object.__setattr__(self, "gram", rows)

    @classmethod
    def diagonal(cls, p: int, entries) -> "FiniteFieldQuadSpace":
        n = len(entries)
        return cls(p, tuple(
            tuple(entries[i] % p if i == j else 0 for j in range(n)) for i in range(n)
        ))

    @property
    def dim(self) -> int:
        return len(self.gram)

    def evaluate(self, x) -> int:
        return sum(
            x[i] * self.gram[i][j] * x[j]
            for i in range(self.dim) for j in range(self.dim)
        ) % self.p

    def values(self) -> frozenset:
        """The set of values, enumerated once per instance."""
        values = self.__dict__.get("_values")
        if values is None:
            values = frozenset(
                self.evaluate(x) for x in itertools.product(range(self.p), repeat=self.dim)
            )
            object.__setattr__(self, "_values", values)
        return values

    def represents(self, c: int) -> bool:
        return c % self.p in self.values()


def reduced_superspecial_space(p: int) -> FiniteFieldQuadSpace:
    """Rank-3 form at a superspecial point: a negative line plus the negated
    quadratic-extension norm form, presented diagonally."""
    u = least_nonsquare(p)
    return FiniteFieldQuadSpace.diagonal(p, (-1, -1, -u))


def reduced_distinguished_space(p: int) -> FiniteFieldQuadSpace:
    """Rank-1 form on a distinguished line: a nonsquare class, so 1 is missed."""
    return FiniteFieldQuadSpace.diagonal(p, (least_nonsquare(p),))


class IncidenceCounts(NamedTuple):
    lines_through_superspecial: int
    points_per_line: int


def _fp2_elements(p: int):
    return itertools.product(range(p), repeat=2)


def _fp2_mul(x, y, p: int, u: int):
    # (x0 + x1 d)(y0 + y1 d) with d^2 = u
    return (
        (x[0] * y[0] + u * x[1] * y[1]) % p,
        (x[0] * y[1] + x[1] * y[0]) % p,
    )


def _fp2_pow(x, e: int, p: int, u: int):
    out = (1, 0)
    base = x
    while e:
        if e & 1:
            out = _fp2_mul(out, base, p, u)
        base = _fp2_mul(base, base, p, u)
        e >>= 1
    return out


def incidence_counts(p: int) -> IncidenceCounts:
    """Count crossing-point incidences by enumeration over the quadratic extension.

    Lines through a superspecial point: solutions of norm(mu) = -1, the norm
    taken against the p-power conjugate. Crossing points on a component:
    points of a projective line over the quadratic extension, counted from
    normalized representatives.
    """
    p = check_odd_prime(p)
    u = least_nonsquare(p)
    q = p * p

    fiber = 0
    for mu in _fp2_elements(p):
        conj = _fp2_pow(mu, p, p, u)
        norm = _fp2_mul(mu, conj, p, u)
        if norm[1] != 0:
            raise ArithmeticError("norm landed outside the prime field")
        if norm[0] == (p - 1) % p:
            fiber += 1

    inverse = {
        x: _fp2_pow(x, q - 2, p, u) for x in _fp2_elements(p) if x != (0, 0)
    }
    points = set()
    for a, b in itertools.product(_fp2_elements(p), repeat=2):
        if a == (0, 0) and b == (0, 0):
            continue
        if a != (0, 0):
            points.add(((1, 0), _fp2_mul(inverse[a], b, p, u)))
        else:
            points.add(((0, 0), (1, 0)))
    return IncidenceCounts(fiber, len(points))


def proper_intersection_sum(entries, p: int) -> Fraction:
    """Sum of local multiplicity times point count over isolated targets."""
    p = check_odd_prime(p)
    total = Fraction(0)
    for idx, (T, count) in enumerate(entries):
        if count < 0:
            raise ValueError(f"entry {idx} has a negative point count")
        if not (T.is_p_integral(p) and is_isolated(T, p)):
            raise ValueError(f"entry {idx} fails the isolation criterion: {T!r}")
        total += e_p_of_form(T, p) * count
    return total
