"""Quaternion algebras over Q, the attached rank-5 quadratic space, the
incoherent collection built from it, and the explicit 4x4 spin picture with
its symplectic compatibility.

Nothing here materializes a full Clifford algebra: every identity is checked
inside the 4x4 matrix image or at the level of quadratic-space invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .padic import (
    INFINITE_PLACE, Place, Rational, _candidate_primes, _exact, _plain_int, _sign, hilbert,
)
from .quadform import SymMat, hasse_invariant, rational_diagonalization, signature


@dataclass(frozen=True)
class QuaternionAlgebra:
    """Cyclic algebra with i^2 = a, j^2 = b, ij = -ji = k."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _exact(self.a))
        object.__setattr__(self, "b", _exact(self.b))
        if self.a == 0 or self.b == 0:
            raise ValueError("quaternion structure constants must be nonzero")

    def quaternion(self, x0: Rational, x1: Rational = 0, x2: Rational = 0,
                   x3: Rational = 0) -> "Quaternion":
        return Quaternion((x0, x1, x2, x3), self)

    def basis(self) -> tuple:
        """(1, i, j, k)."""
        return (
            self.quaternion(1), self.quaternion(0, 1),
            self.quaternion(0, 0, 1), self.quaternion(0, 0, 0, 1),
        )


@dataclass(frozen=True)
class Quaternion:
    """Element x0 + x1 i + x2 j + x3 k with exact rational coefficients."""

    coeffs: tuple
    algebra: QuaternionAlgebra

    def __post_init__(self):
        if len(self.coeffs) != 4:
            raise ValueError("quaternion needs four coefficients")
        object.__setattr__(self, "coeffs", tuple(map(_exact, self.coeffs)))

    def _check(self, other: "Quaternion"):
        if self.algebra != other.algebra:
            raise ValueError("mismatched quaternion algebras")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)), self.algebra
        )

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        return Quaternion(
            tuple(x - y for x, y in zip(self.coeffs, other.coeffs)), self.algebra
        )

    def __neg__(self) -> "Quaternion":
        return Quaternion(tuple(-x for x in self.coeffs), self.algebra)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        self._check(other)
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        y0, y1, y2, y3 = other.coeffs
        return Quaternion((
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        ), self.algebra)

    def conj(self) -> "Quaternion":
        x0, x1, x2, x3 = self.coeffs
        return Quaternion((x0, -x1, -x2, -x3), self.algebra)

    def norm(self) -> Fraction:
        a, b = self.algebra.a, self.algebra.b
        x0, x1, x2, x3 = self.coeffs
        return x0 * x0 - a * x1 * x1 - b * x2 * x2 + a * b * x3 * x3

    def trace(self) -> Fraction:
        return 2 * self.coeffs[0]


def ramified_places(B: QuaternionAlgebra) -> frozenset:
    """Places where the algebra is division, computed from Hilbert symbols."""
    candidates = [Place(q) for q in _candidate_primes(B.a, B.b)]
    candidates.append(INFINITE_PLACE)
    ram = frozenset(v for v in candidates if hilbert(B.a, B.b, v) == -1)
    if len(ram) % 2:
        raise ArithmeticError("ramified set has odd cardinality; reciprocity violated")
    return ram


def discriminant(B: QuaternionAlgebra) -> int:
    """Product of the finite ramified primes."""
    return math.prod(v.prime for v in ramified_places(B) if v.is_finite)


def quaternion_with_discriminant(d: int) -> QuaternionAlgebra:
    """Deterministic small-coefficient algebra with the given discriminant."""
    d = _plain_int(d, "an integer discriminant d", 1)
    candidates = sorted(
        ((a, b) for a in range(-12, 13) for b in range(-12, 13) if a and b),
        key=lambda ab: (abs(ab[0]) + abs(ab[1]), abs(ab[0]), ab[0], ab[1]),
    )
    for a, b in candidates:
        B = QuaternionAlgebra(a, b)
        if discriminant(B) == d:
            return B
    raise ValueError(f"no small-coefficient algebra has discriminant {d}")


def vb_space(B: QuaternionAlgebra) -> SymMat:
    """Rank-5 space <1> + (norm form of B), diagonally <1, 1, -a, -b, ab>."""
    return SymMat.diag(1, 1, -B.a, -B.b, B.a * B.b)


class IncoherentCollection:
    """Local spaces of the completed quaternion construction, flipped at the real place.

    B is any object with nonzero rational fields a, b (i^2 = a, j^2 = b) that
    is indefinite, i.e. split at the real place. Finite local spaces all come
    from vb_space(B); the real member is positive definite.
    """

    def __init__(self, B):
        B = QuaternionAlgebra(B.a, B.b)
        ramified = ramified_places(B)
        if INFINITE_PLACE in ramified:
            raise ValueError("incoherent collection requires an indefinite quaternion algebra")
        self.a = B.a
        self.b = B.b
        self.space = vb_space(B)
        self.finite_ramified = tuple(sorted(v.prime for v in ramified))
        self.finite_discriminant = math.prod(self.finite_ramified)

    @classmethod
    @lru_cache(maxsize=None)
    def split(cls) -> "IncoherentCollection":
        """The collection of M_2(Q); one shared instance, as base_space() is."""
        return cls.from_pair(1, 1)

    @classmethod
    def from_pair(cls, a: Rational, b: Rational) -> "IncoherentCollection":
        return cls(QuaternionAlgebra(a, b))


GENERATOR_ORDER = ("e0", "e1", "v0", "f0", "f1")

# Doubled bilinear values: sigma(x) sigma(y) + sigma(y) sigma(x) = gram[x][y] * 1.
_GRAM = (
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 2, 0, 0),
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
)

_MATRICES = {
    "e0": ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
    "e1": ((0, 0, 0, 0), (0, 0, 0, 0), (0, -1, 0, 0), (1, 0, 0, 0)),
    "v0": ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)),
    "f0": ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)),
    "f1": ((0, 0, 0, 1), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
}

_J = ((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0))


@dataclass(frozen=True)
class SpinGenerators:
    """The five 4x4 generator images and the symplectic form they respect."""

    matrices: dict
    J: np.ndarray
    gram: np.ndarray

    def matrix(self, name: str) -> np.ndarray:
        if name not in self.matrices:
            raise ValueError(f"unknown generator: {name}")
        return self.matrices[name]

    def word_matrix(self, word) -> np.ndarray:
        out = np.eye(4, dtype=np.int64)
        for name in word:
            out = out @ self.matrix(name)
        return out


def spin_generators() -> SpinGenerators:
    return SpinGenerators(
        {k: np.array(v, dtype=np.int64) for k, v in _MATRICES.items()},
        np.array(_J, dtype=np.int64),
        np.array(_GRAM, dtype=np.int64),
    )


def check_spin_compatibility(words) -> bool:
    """Verify the pairwise anticommutation relations and, for each word, that
    conjugating the transpose by the symplectic form reverses the word."""
    gens = spin_generators()
    eye = np.eye(4, dtype=np.int64)
    for i, x in enumerate(GENERATOR_ORDER):
        for j, y in enumerate(GENERATOR_ORDER):
            lhs = gens.matrix(x) @ gens.matrix(y) + gens.matrix(y) @ gens.matrix(x)
            if not np.array_equal(lhs, int(gens.gram[i, j]) * eye):
                raise RuntimeError(f"Clifford relation failed for pair ({x}, {y})")
    j_inv = -gens.J
    for word in words:
        word = tuple(word)
        lhs = gens.J @ gens.word_matrix(word).T @ j_inv
        if not np.array_equal(lhs, gens.word_matrix(tuple(reversed(word)))):
            raise RuntimeError(
                "involution compatibility failed for word " + "*".join(word)
            )
    return True


def involution_tensor_type(t1: str, t2: str) -> str:
    """Type of a tensor product of involutions: mixed pairs give the main type."""
    for t in (t1, t2):
        if t not in ("main", "neben"):
            raise ValueError(f"involution type must be 'main' or 'neben': {t!r}")
    return "main" if t1 != t2 else "neben"


def positive_involution_criterion(b_type: str, conj_sign: int,
                                  square_sign: int | None = None) -> bool:
    """Positivity of x -> t x' t^{-1} on a real quaternion algebra.

    Split case: the twisting element must be conjugate-reversed with negative
    square. Division case: it must be conjugate-fixed.
    """
    if b_type not in ("split", "division"):
        raise ValueError(f"algebra type must be 'split' or 'division': {b_type!r}")
    conj_sign = _sign(conj_sign, "an integer conj_sign")
    if b_type == "division":
        return conj_sign == 1
    if conj_sign == 1:
        return False
    if square_sign is None:
        raise ValueError(
            "split case with reversed conjugation needs the sign of the square"
        )
    return _sign(square_sign, "an integer square_sign") == -1


def witt_index_rank5(space: SymMat) -> int:
    """Witt index over Q of a rank-5 space: 2 exactly when it matches the
    two-hyperbolic-plane model at every place, 1 when merely indefinite."""
    if space.n != 5:
        raise ValueError("Witt index helper expects a rank-5 space")
    if space.det == 0:
        raise ValueError("Witt index helper expects a nonsingular space")
    sig = signature(space)
    if 5 in sig:
        return 0
    model = SymMat.diag(1, -1, 1, -1, space.det)
    if sig != signature(model):
        return 1
    for q in _candidate_primes(*rational_diagonalization(space)):
        if hasse_invariant(space, Place(q)) != hasse_invariant(model, Place(q)):
            return 1
    return 2
