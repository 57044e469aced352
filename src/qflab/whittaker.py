"""Local Whittaker values and the derivative ratio identity.

Values are representation densities; derivatives are exact multiples of
log p, kept symbolic so nothing ever touches floating point. The headline
check: at a place in Diff(T), the ratio of the derivative to the twisted
value has coefficient (p^2+1)(p-1)/2 times the local multiplicity. Each side
comes from public closed forms that share T's Jordan data, kept on T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import Place, Rational, _exact, check_odd_prime
from .quadform import SymMat, base_diagonal, base_space, diff_set, frac_str, represents_local
from .counting import density_oracle
from .densities import assemble_A, derivative_at_1, twisted_density
from .gkmult import complement_triple, e_p
from .clifford import IncoherentCollection


@dataclass(frozen=True)
class LogPMultiple:
    """An exact rational multiple of log p; arithmetic stays symbolic."""

    coeff: Fraction
    p: int

    def __post_init__(self):
        object.__setattr__(self, "coeff", _exact(self.coeff))
        object.__setattr__(self, "p", check_odd_prime(self.p))

    def _check(self, other: "LogPMultiple"):
        if self.p != other.p:
            raise ValueError("mismatched primes in log-p arithmetic")

    def __add__(self, other: "LogPMultiple") -> "LogPMultiple":
        self._check(other)
        return LogPMultiple(self.coeff + other.coeff, self.p)

    def __neg__(self) -> "LogPMultiple":
        return LogPMultiple(-self.coeff, self.p)

    def __mul__(self, scalar: Rational) -> "LogPMultiple":
        return LogPMultiple(self.coeff * _exact(scalar), self.p)

    __rmul__ = __mul__

    def __truediv__(self, scalar: Rational) -> "LogPMultiple":
        scalar = _exact(scalar)
        if scalar == 0:
            raise ZeroDivisionError("division of a log-p multiple by zero")
        return LogPMultiple(self.coeff / scalar, self.p)

    def __repr__(self):
        return f"({self.coeff})*log({self.p})"


def whittaker_value(T: SymMat, p: int, r: int = 0) -> Fraction:
    """Central value: the density of T against the base space with r extra planes.

    Non-p-integral targets give 0. Uses the closed form when T passes
    complement_triple's gate (rank 4, representing 1), otherwise the
    counting oracle. r must be >= 0.
    """
    p = check_odd_prime(p)
    if r < 0:
        raise ValueError(f"the number r of extra split planes must be >= 0, got r = {r}")
    if not T.is_nonsingular:
        raise ValueError("Whittaker value requires a nonsingular target")
    if not T.is_p_integral(p):
        return Fraction(0)
    try:
        series = assemble_A(T, p)
    except ValueError:
        # at the base level the density vanishes off the represented side;
        # only consult the counting oracle when there is something to measure
        if r == 0 and T.n == 4 and not represents_local(base_space(), T, Place(p)):
            return Fraction(0)
        return density_oracle(base_diagonal(r), T, p).value
    return series.evaluate(Fraction(1, p**r))


def whittaker_derivative(T: SymMat, p: int) -> LogPMultiple:
    """Leading derivative term at a place where the value vanishes.

    T passes complement_triple's gate, and p must lie in Diff(T).
    """
    p = complement_triple(T, p).p
    if represents_local(base_space(), T, Place(p)):
        raise ValueError("derivative identity requires Diff(T) ∋ p")
    return _derivative(T, p)


def _derivative(T: SymMat, p: int) -> LogPMultiple:
    """whittaker_derivative past its checks: T passed the gate, p in Diff(T)."""
    return LogPMultiple(-derivative_at_1(assemble_A(T, p)), p)


def whittaker_twisted_value(T: SymMat, p: int) -> Fraction:
    """Value against the ramified twin, with its p^-4 volume normalization."""
    p = check_odd_prime(p)  # a plain int, so no numpy scalar reaches the Fraction
    return Fraction(1, p**4) * twisted_density(T, p)


def ratio_audit_constant(p: int) -> Fraction:
    """The volume-ratio constant relating the two normalizations."""
    p = check_odd_prime(p)
    num = (1 - Fraction(1, p**4)) * (1 - Fraction(1, p**2))
    den = Fraction(1, p**4) * (1 - Fraction(1, p**2)) * 2 * (p + 1)
    return num / den


def _sorted_places(places) -> tuple[Place, ...]:
    return tuple(sorted(places, key=lambda v: (not v.is_finite, v.prime or 0)))


@dataclass(frozen=True)
class RatioReport:
    T: SymMat
    p: int
    lhs: LogPMultiple
    rhs: Fraction
    equal: bool
    multiplicity: Fraction
    diff: tuple[Place, ...]

    def to_json(self) -> dict:
        return {
            "T": self.T.to_json(),
            "p": self.p,
            "lhs_coeff": frac_str(self.lhs.coeff),
            "rhs": frac_str(self.rhs),
            "equal": self.equal,
            "e_p": int(self.multiplicity),
            "diff": [v.prime if v.is_finite else "oo" for v in self.diff],
        }


def verify_ratio_identity(T: SymMat, p: int) -> RatioReport:
    """Compare derivative/value against the closed-form multiplicity at p.

    Both sides are computed by independent pipelines: the left from the
    assembled density series and the twisted value, the right from the
    complement exponents alone. T's Jordan data is computed once, kept on T,
    and both sides read the complement triple off it. T passes
    complement_triple's gate, and p must lie in Diff(T).
    """
    triple = complement_triple(T, p)
    p = triple.p
    if represents_local(base_space(), T, Place(p)):
        raise ValueError(
            "ratio identity requires p in Diff(T): the target is represented "
            "by the base space at p"
        )
    value = whittaker_twisted_value(T, p)
    if value == 0:
        raise ArithmeticError("twisted value vanished on the twisted side of the dichotomy")
    lhs = _derivative(T, p) / value
    mult = e_p(*triple.exponents, p)
    if mult.denominator != 1:
        raise ArithmeticError("non-integral multiplicity inside the vanishing regime")
    rhs = ratio_audit_constant(p) * mult
    diff = _sorted_places(diff_set(T, IncoherentCollection.split()))
    return RatioReport(T, p, lhs, rhs, lhs.coeff == rhs, mult, diff)
