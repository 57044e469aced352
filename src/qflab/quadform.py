"""Symmetric bilinear forms over Q and Z_p (p odd).

Covers exact symmetric matrices, class-canonical Jordan diagonalization,
local representation decisions, the specific rank-5 spaces used elsewhere
(a quadratic space over Q is the SymMat of its Gram matrix), and the set
of places where an incoherent collection fails to represent a target form.

One congruence elimination (`_eliminate`) serves every invariant. A SymMat
keeps its diagonal over Q beside its product, the determinant (the moves
have determinant +-1), and its signature; its own candidate primes (those
of det and of the entry denominators) once asked for; and per place its
Hasse invariant and the square class of its determinant, read from that
diagonal in one pass (`padic._hasse_and_det_class`). It also keeps its
Jordan data per prime: the same loop with a valuation-first pivot rank.
The local tests read the kept invariants of both the space and the target,
so a finite place they have both seen costs a few integer operations on
square classes (`padic._class_hilbert`) and no Fraction arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .padic import (
    INFINITE_PLACE,
    Place,
    Rational,
    _candidate_primes,
    _check_place,
    _class_hilbert,
    _exact,
    _hasse_and_det_class,
    _json_field,
    _json_int,
    _minus_one_class,
    _place,
    _plain_int,
    _read_exact,
    _sign,
    _square_class,
    check_odd_prime,
    chi,
    valuation,
)


def frac_str(x: Rational) -> str:
    x = _exact(x)
    return f"{x.numerator}/{x.denominator}"


class SymMat:
    """Symmetric matrix with exact rational entries: integers, Fractions or
    strings like "1/3"; floats raise TypeError."""

    def __init__(self, entries):
        rows = tuple(tuple(map(_read_exact, row)) for row in entries)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        self.entries = rows
        self.n = n
        self._diagonal = None  # with _det and _signature, set by rational_diagonalization
        self._det = None
        self._signature = None  # (positive, negative) counts, also for a singular form
        self._primes = None  # set by _own_primes
        self._jordan = {}  # prime -> JordanDiagonal
        # prime, None for the real place -> (Hasse invariant, square class of
        # det), set by _local_classes
        self._local = {}
        self._series = {}  # prime -> DensityPolynomial, set by densities.assemble_A

    @classmethod
    def diag(cls, *values: Rational) -> "SymMat":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, SymMat) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        if all(self.entries[i][j] == 0 for i in range(self.n) for j in range(self.n) if i != j):
            inner = ",".join(str(self.entries[i][i]) for i in range(self.n))
            return f"SymMat.diag({inner})"
        return f"SymMat({[list(r) for r in self.entries]})"

    @property
    def det(self) -> Fraction:
        if self._det is None:
            rational_diagonalization(self)
        return self._det

    @property
    def is_nonsingular(self) -> bool:
        if self._signature is None:
            rational_diagonalization(self)
        return sum(self._signature) == self.n

    def is_p_integral(self, p: int) -> bool:
        p = _plain_int(p, least=2)
        return all(x.denominator % p for row in self.entries for x in row)

    def apply(self, x) -> Fraction:
        """Value of the quadratic form: x^T M x."""
        nonzero = [(i, v) for i, v in enumerate(map(_exact, x)) if v]
        return sum(
            (self.entries[i][j] * a * b for i, a in nonzero for j, b in nonzero), Fraction(0)
        )

    def to_json(self) -> dict:
        return {"n": self.n, "entries": [[frac_str(x) for x in row] for row in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "SymMat":
        n = _json_int(_json_field(data, "n", "matrix"), "matrix size n")
        m = cls(_json_field(data, "entries", "matrix"))
        if m.n != n:
            raise ValueError("matrix size does not match declared n")
        return m


def _sym_swap(m, i, j):
    m[i], m[j] = m[j], m[i]
    for row in m:
        row[i], row[j] = row[j], row[i]


def _sym_add(m, i, j, c=Fraction(1)):
    # basis move x_i -> x_i + c*x_j (congruence: row then column)
    n = len(m)
    for t in range(n):
        if m[j][t]:
            m[i][t] += c * m[j][t]
    for t in range(n):
        if m[t][j]:
            m[t][i] += c * m[t][j]


def _eliminate(entries, rank) -> list[Fraction]:
    """Diagonal of a congruent form, by symmetric elimination; zeros for the radical.

    Each step pivots on the nonzero entry (i, j), i <= j, of the trailing
    block with the least rank(value, i, j). An off-diagonal pivot is pulled
    onto the diagonal with x_i -> x_i + x_j first.
    """
    n = len(entries)
    m = [list(row) for row in entries]
    diag = []
    for k in range(n):
        pivots = [(rank(m[i][j], i, j), i, j) for i in range(k, n) for j in range(i, n) if m[i][j]]
        if not pivots:
            return diag + [Fraction(0)] * (n - k)
        _, i, j = min(pivots)
        if i != j:
            _sym_add(m, i, j)
        if i != k:
            _sym_swap(m, k, i)
        d = m[k][k]
        for r in range(k + 1, n):
            if m[r][k]:
                _sym_add(m, r, k, -m[r][k] / d)
        diag.append(d)
    return diag


def rational_diagonalization(T: SymMat) -> tuple[Fraction, ...]:
    """Diagonal entries of a congruent diagonal form over Q (zeros for the radical).

    Pivots on a nonzero diagonal entry if there is one, else on the first
    nonzero off-diagonal entry. Computed once per matrix and kept on it, with
    its product, the determinant, and its signature.
    """
    if T._diagonal is None:
        diagonal = tuple(_eliminate(T.entries, lambda x, i, j: (i != j, i, j)))
        T._det = math.prod(diagonal, start=Fraction(1))
        T._signature = sum(d > 0 for d in diagonal), sum(d < 0 for d in diagonal)
        T._diagonal = diagonal
    return T._diagonal


def _local_classes(T: SymMat, v: Place) -> tuple[int, int]:
    """(Hasse invariant, square class of det T) of a nonsingular T at v, from
    its rational diagonal in one pass; computed once per place and kept on T."""
    local = T._local.get(v.prime)
    if local is None:
        if not T.is_nonsingular:
            raise ValueError("Hasse invariant requires a nonsingular form")
        local = T._local[v.prime] = _hasse_and_det_class(rational_diagonalization(T), v)
    return local


def hasse_invariant(T: SymMat, v: Place) -> int:
    """Hasse invariant of a nonsingular T at v, from its rational diagonal;
    computed once per place and kept on T."""
    return _local_classes(T, _check_place(v))[0]


def signature(T: SymMat) -> tuple[int, int]:
    """(positive, negative) inertia indices; requires a nonsingular form."""
    if not T.is_nonsingular:
        raise ValueError("signature requires a nonsingular form")
    return T._signature


def _own_primes(T: SymMat) -> tuple[int, ...]:
    """2 and the primes of det T and of T's entry denominators; kept on T."""
    if T._primes is None:
        denominators = {x.denominator for row in T.entries for x in row}
        T._primes = tuple(_candidate_primes(T.det, *denominators))
    return T._primes


@lru_cache(maxsize=1024)
def least_nonsquare(p: int) -> int:
    p = check_odd_prime(p)
    return next(u for u in range(2, p) if chi(u, p) == -1)


@dataclass(frozen=True)
class JordanDiagonal:
    """Exponent/unit-class data of a Z_p-diagonalized form, exponents nondecreasing.

    The terms are stored class-canonically: inside each exponent block every
    sign is +1 except the last, which carries the block's product. For odd p
    a p^a-modular block is determined by its rank and the square class of its
    determinant (Kitaoka, Arithmetic of Quadratic Forms, 5.2), so equality,
    hashing and diagonal_rep depend only on the Z_p-class of the form.
    """

    terms: tuple[tuple[int, int], ...]  # (exponent, unit class sign)
    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", check_odd_prime(self.p))
        read = [(_plain_int(a, "an integer term exponent", 0), _sign(s, "an integer term sign"))
                for a, s in self.terms]
        if read != sorted(read, key=lambda t: t[0]):
            raise ValueError("exponents must be nondecreasing")
        terms = []
        for a, block in itertools.groupby(read, key=lambda t: t[0]):
            signs = [s for _, s in block]
            terms += [(a, 1)] * (len(signs) - 1) + [(a, math.prod(signs))]
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.terms)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.terms)

    @property
    def rank(self) -> int:
        return len(self.terms)

    @property
    def unimodular_terms(self) -> tuple[tuple[int, int], ...]:
        return tuple(t for t in self.terms if t[0] == 0)

    def diagonal_rep(self) -> tuple[int, ...]:
        """Integer diagonal Z_p-equivalent to the original form."""
        ns = least_nonsquare(self.p)
        return tuple((1 if s == 1 else ns) * self.p**a for a, s in self.terms)


def jordan_diagonalize(T: SymMat, p: int) -> JordanDiagonal:
    """Split T into p-power-scaled unit classes via congruence moves over Z_p;
    the result is class-canonical (see JordanDiagonal).

    Pivots on an entry of minimal valuation (diagonal preferred); off-diagonal
    pivots are pulled onto the diagonal with x_i -> x_i + x_j, which keeps the
    minimal valuation only because p is odd. Kept on T per prime; a refusal
    is not kept, so every call raises it again.
    """
    p = check_odd_prime(p)
    jd = T._jordan.get(p)
    if jd is None:
        if not T.is_p_integral(p):
            raise ValueError("Jordan form requires p-integral entries")
        diag = _eliminate(T.entries, lambda x, i, j: (valuation(x, p), i != j, i, j))
        if 0 in diag:
            raise ValueError("Jordan form requires nonsingular input")
        jd = T._jordan[p] = JordanDiagonal(tuple(sorted(_square_class(d, p) for d in diag)), p)
    return jd


# Canonical rank-5 spaces and their oracle-ready diagonals.

def base_diagonal(r: int = 0) -> tuple[int, ...]:
    """Diagonalized base space, with r >= 0 extra split planes appended."""
    return (1, 1, -1, 1, -1) + (1, -1) * _plain_int(r, "an integer r", 0)


@lru_cache(maxsize=None)
def base_space() -> SymMat:
    """The base space; one shared instance, so its kept Hasse invariants are reused."""
    return SymMat.diag(*base_diagonal())


def split_diagonal(rank: int) -> tuple[int, ...]:
    rank = _plain_int(rank, "an integer split form rank", 0)
    if rank % 2:
        raise ValueError("split form has even rank")
    return (1, -1) * (rank // 2)


def twisted_diagonal(p: int) -> tuple[int, ...]:
    """Rank-5 twisted space at p: <1> plus the norm form of the ramified quaternions."""
    p = check_odd_prime(p)
    b = least_nonsquare(p)
    return (1, 1, -b, -p, b * p)


def twisted_complement_diagonal(p: int) -> tuple[int, ...]:
    # the rank-4 quaternion norm form left after splitting off <1>
    p = check_odd_prime(p)
    b = least_nonsquare(p)
    return (1, -b, -p, b * p)


def twisted_space(p: int) -> SymMat:
    """The twisted space at p; one shared instance per p, however p is typed."""
    return _twisted_space(check_odd_prime(p))


@lru_cache(maxsize=1024)
def _twisted_space(p: int) -> SymMat:
    return SymMat.diag(*twisted_diagonal(p))


def _check_space(S: SymMat) -> None:
    if S.n != 5:
        raise ValueError("representation test requires a rank-5 space")
    if not S.is_nonsingular:
        raise ValueError("representation test requires a nonsingular space")


def represents_local(S: SymMat, T: SymMat, v: Place) -> bool:
    """Whether the nonsingular rank-5 space S represents the form T over the
    completion at v. Both forms are read through their kept signature, and
    their Hasse invariant and determinant's square class at v, so a finite
    place both have seen is decided by integer arithmetic (`_represents_at`).

    At the real place: signature containment.
    """
    _check_place(v)
    _check_space(S)
    if not (1 <= T.n <= 4):
        raise ValueError("target rank must be between 1 and 4")
    if not T.is_nonsingular:
        raise ValueError("target must be nonsingular")
    if not v.is_finite:
        tp, tn = signature(T)
        sp, sn = signature(S)
        return tp <= sp and tn <= sn
    return _represents_at(S, T, v)


def _represents_at(S: SymMat, T: SymMat, v: Place) -> bool:
    """represents_local at a finite place, past its checks.

    By corank: a rank-4 target is represented when T + <det T det S> has
    S's Hasse invariant (equal rank after forcing the determinant); a rank-3
    target needs a binary complement R with det R ~ det S det T, and the
    only obstruction is det R ~ -1 (then R is hyperbolic with Hasse +1)
    while R's forced Hasse, hasse(S) hasse(T + <det R>), is -1; corank >= 3
    always represents. By bilinearity hasse(T + <e>) = hasse(T) (det T, e),
    and (det T, det T det S) = (det T, -det S), so both cases read
    hasse(T) (det T, -det S)_v. The symbol and the rank-3 clause (det R ~ -1
    exactly when det T ~ -det S) are read from the square classes kept on T
    and S, so a place both have seen does no Fraction arithmetic.
    """
    if T.n <= 2:
        return True
    hasse_t, det_t = _local_classes(T, v)
    hasse_s, det_s = _local_classes(S, v)
    minus_det_s = det_s ^ _minus_one_class(v)
    forced = hasse_t * _class_hilbert(det_t, minus_det_s, v)
    if T.n == 4:
        return forced == hasse_s
    return not (det_t == minus_det_s and forced != hasse_s)


def represents_one_over_Zp(T: SymMat, p: int) -> bool:
    """Whether some x over Z_p has x^T T x = 1, via the unimodular Jordan part.

    A unimodular part of rank >= 2 covers every unit class mod p and lifts;
    rank 1 works only for the square class; no unimodular part leaves all
    values divisible by p.
    """
    uni = jordan_diagonalize(T, p).unimodular_terms
    return len(uni) >= 2 or (len(uni) == 1 and uni[0][1] == 1)


def diff_set(T: SymMat, C) -> set[Place]:
    """Places where the incoherent collection C fails to represent T.

    Only C.space, a nonsingular rank-5 SymMat, and C.finite_ramified, the
    primes dividing D(B), are read (see clifford.IncoherentCollection). The
    finite search runs over 2, the primes dividing D(B), and T's own primes,
    those dividing det T or a denominator of an entry of T, kept on T;
    everywhere else both sides are unimodular of rank 5 at odd primes and the
    comparison passes. S and T are checked once, and each candidate prime is
    one `_represents_at` test, on the kept invariants of S and T, at its
    shared `Place`. The real place joins exactly for signatures (3,1) and
    (1,3); other indefinite signatures never contribute it.
    """
    if T.n != 4 or not T.is_nonsingular:
        raise ValueError("Diff requires a nonsingular rank-4 form")
    S = C.space
    _check_space(S)
    places = map(_place, {*_own_primes(T), *C.finite_ramified})
    out = {v for v in places if not _represents_at(S, T, v)}
    if T._signature[0] in (1, 3):  # signature (3, 1) or (1, 3)
        out.add(INFINITE_PLACE)
    return out
