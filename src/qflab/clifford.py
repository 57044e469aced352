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
    INFINITE_PLACE, Rational, _candidate_primes, _exact, _place, _plain_int, _sign, hilbert,
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


def ramified_places(B: QuaternionAlgebra) -> frozenset:
    """Places where the algebra is division, computed from Hilbert symbols."""
    candidates = [_place(q) for q in _candidate_primes(B.a, B.b)]
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


def _frozen(rows) -> np.ndarray:
    out = np.array(rows, dtype=np.int64)
    out.flags.writeable = False
    return out


# Doubled bilinear values: sigma(x) sigma(y) + sigma(y) sigma(x) = gram[x][y] * 1.
_GRAM = _frozen((
    (0, 0, 0, 1, 0),
    (0, 0, 0, 0, 1),
    (0, 0, 2, 0, 0),
    (1, 0, 0, 0, 0),
    (0, 1, 0, 0, 0),
))

# The five 4x4 generator images and the symplectic form J they respect.
_MATRICES = {name: _frozen(rows) for name, rows in {
    "e0": ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)),
    "e1": ((0, 0, 0, 0), (0, 0, 0, 0), (0, -1, 0, 0), (1, 0, 0, 0)),
    "v0": ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)),
    "f0": ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)),
    "f1": ((0, 0, 0, 1), (0, 0, -1, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
}.items()}

_J = _frozen(((0, 0, 1, 0), (0, 0, 0, 1), (-1, 0, 0, 0), (0, -1, 0, 0)))

_EYE = _frozen(np.eye(4, dtype=np.int64))


def _word_matrix(word) -> np.ndarray:
    out = _EYE
    for name in word:
        if name not in _MATRICES:
            raise ValueError(f"unknown generator: {name}")
        out = out @ _MATRICES[name]
    return out


def check_spin_compatibility(words) -> bool:
    """Verify the pairwise anticommutation relations and, for each word, that
    conjugating the transpose by the symplectic form reverses the word."""
    for i, x in enumerate(GENERATOR_ORDER):
        for j, y in enumerate(GENERATOR_ORDER):
            lhs = _MATRICES[x] @ _MATRICES[y] + _MATRICES[y] @ _MATRICES[x]
            if not np.array_equal(lhs, int(_GRAM[i, j]) * _EYE):
                raise RuntimeError(f"Clifford relation failed for pair ({x}, {y})")
    j_inv = -_J
    for word in words:
        word = tuple(word)
        lhs = _J @ _word_matrix(word).T @ j_inv
        if not np.array_equal(lhs, _word_matrix(reversed(word))):
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
    for v in map(_place, _candidate_primes(*rational_diagonalization(space))):
        if hasse_invariant(space, v) != hasse_invariant(model, v):
            return 1
    return 2
