"""Intersection bookkeeping for special cycles on the supersingular locus.

Covers the isolation criterion of a fundamental matrix, the component-count
decision table, the reduced finite-field quadratic spaces at a crossing
point, and incidence constants recomputed by enumeration.

The enumerations run on plain ints. A finite-field form reads each vector's
value from per-coordinate tables of its square and cross terms, and the
incidence counts write an element x0 + x1 d of F_{p^2} as x0 + p x1 and
multiply through log and antilog tables built on each call. Nothing is kept
between calls but a form's own value set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .padic import _plain_int, check_odd_prime, residue
from .quadform import SymMat, least_nonsquare, represents_one_over_Zp


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
    (whether it represents 1, whether it carries a radical line), given as
    the bools m_data["represents_one"] and m_data["has_radical_line"], each
    False when absent. The form m is extra data, not derivable from the
    matrix alone.
    """
    p = check_odd_prime(p)
    rank_t_mod_p = _plain_int(rank_t_mod_p, "an integer rank_t_mod_p", 0)
    dim_m = _plain_int(dim_m, "an integer dim_m", 0)
    if rank_t_mod_p > 3:
        raise ValueError("inconsistent case: the rank of the reduction is at most 3")
    if dim_m > 3:
        raise ValueError("inconsistent case: the reduced form has dimension at most 3")
    if rank_t_mod_p > dim_m:
        raise ValueError(
            "inconsistent case: the rank of the reduction cannot exceed its dimension"
        )
    if not isinstance(m_data, dict):
        raise TypeError(f"m_data must be a dict of flags, got {m_data!r}")
    for key, flag in m_data.items():
        if key not in ("represents_one", "has_radical_line"):
            raise ValueError(f"unknown m_data flag {key!r}")
        if not isinstance(flag, bool):
            raise TypeError(f"m_data flag {key!r} must be a bool, got {flag!r}")
    represents_one = m_data.get("represents_one", False)
    has_radical = m_data.get("has_radical_line", False)
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
    """Quadratic form over F_p (p odd) of dimension 1..3, values by enumeration.

    Entries and vector coordinates are integers or Fractions read mod p,
    a Fraction as numerator times the inverse of its denominator.
    """

    p: int
    gram: tuple

    def __post_init__(self):
        p = check_odd_prime(self.p)
        object.__setattr__(self, "p", p)
        rows = tuple(
            tuple(residue(x, p, f"entry ({i}, {j})") for j, x in enumerate(row))
            for i, row in enumerate(self.gram)
        )
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
            tuple(entries[i] if i == j else 0 for j in range(n)) for i in range(n)
        ))

    @property
    def dim(self) -> int:
        return len(self.gram)

    def evaluate(self, x) -> int:
        x = [residue(c, self.p, f"coordinate {i}") for i, c in enumerate(x)]
        return sum(
            x[i] * self.gram[i][j] * x[j]
            for i in range(self.dim) for j in range(self.dim)
        ) % self.p

    def values(self) -> frozenset:
        """The set of values over all of F_p^dim, enumerated once per instance.

        Coordinates are added one at a time: Q(head, x) = Q(head) + x (g_kk x
        + 2 s) with s = sum_i g_ik head_i, so coordinate k reads one table of
        its square and cross terms, indexed by s mod p and x.
        """
        values = self.__dict__.get("_values")
        if values is None:
            p, g, field = self.p, self.gram, range(self.p)
            partial = [((), 0)]  # (head, Q(head)) over the first k coordinates
            for k in range(self.dim):
                table = [[(g[k][k] * x + 2 * s) * x % p for x in field] for s in field]
                grown = []
                for head, v in partial:
                    row = table[sum(g[i][k] * h for i, h in enumerate(head)) % p]
                    grown += [(head + (x,), v + row[x]) for x in field]
                partial = grown
            values = frozenset(v % p for _, v in partial)
            object.__setattr__(self, "_values", values)
        return values

    def represents(self, c) -> bool:
        return residue(c, self.p) in self.values()


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


def _fp2_log_tables(p: int, u: int) -> tuple[list[int], list[int]]:
    """Antilog and log tables of F_{p^2} = F_p(d), d^2 = u a nonsquare.

    An element x0 + x1 d is the int x0 + p x1. antilog[k] = g^k for
    k < p^2 - 1, with g the first element outside F_p whose powers run
    through all of F_{p^2}^*; log inverts it, and log[0] is -1. Products
    become index sums mod p^2 - 1 (Lidl-Niederreiter, Finite Fields, ch. 2).
    """
    order = p * p - 1
    for g in range(p, p * p):
        g1, g0 = divmod(g, p)
        antilog, x0, x1 = [1], 1, 0
        while len(antilog) < order:
            x0, x1 = (x0 * g0 + u * x1 * g1) % p, (x0 * g1 + x1 * g0) % p
            if x1 == 0 and x0 == 1:
                break  # the cycle closed early: g is not a generator
            antilog.append(x0 + p * x1)
        else:
            log = [-1] * (p * p)
            for k, x in enumerate(antilog):
                log[x] = k
            return antilog, log
    raise ArithmeticError(f"no generator of F_{p}^2 found")


def incidence_counts(p: int) -> IncidenceCounts:
    """Count crossing-point incidences by enumeration over the quadratic extension.

    Lines through a superspecial point: solutions of norm(mu) = -1, the norm
    taken against the p-power conjugate. Crossing points on a component:
    points of a projective line over the quadratic extension, counted from
    normalized representatives. Each element is read through per-call log
    tables (_fp2_log_tables), so a power or a quotient is an index sum.
    """
    p = check_odd_prime(p)
    antilog, log = _fp2_log_tables(p, least_nonsquare(p))
    order = len(antilog)

    fiber = 0  # mu = 0 has norm 0, never -1
    for k in range(order):  # mu = g^k: mu * mu^p = g^(k (p + 1))
        norm = antilog[k * (p + 1) % order]
        if norm >= p:
            raise ArithmeticError("norm landed outside the prime field")
        fiber += norm == p - 1

    # a point (a : b) with a != 0 is (1 : b/a), kept as the int b/a (0 for
    # b = 0); every (0 : b) is (0 : 1), kept as p^2
    nonzero_logs = log[1:]  # the logs of a, b = 1, ..., p^2 - 1
    points = {0, p * p}
    for la in nonzero_logs:
        points.update([antilog[(lb - la) % order] for lb in nonzero_logs])
    return IncidenceCounts(fiber, len(points))

