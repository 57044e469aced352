"""Valuations, quadratic characters, and Hilbert symbols."""

import random
from fractions import Fraction

import pytest

from qflab import INFINITE_PLACE, Place, chi, hilbert, unit_part, valuation
from qflab.padic import residue


def test_valuation_examples():
    assert valuation(18, 3) == 2
    assert valuation(Fraction(5, 9), 3) == -2
    assert valuation(7, 3) == 0
    assert valuation(-27, 3) == 3
    assert valuation(Fraction(49, 25), 7) == 2


def test_valuation_zero_rejected():
    with pytest.raises(ValueError, match="valuation of zero undefined"):
        valuation(0, 3)


@pytest.mark.parametrize("call", [
    lambda x: valuation(x, 3),
    lambda x: unit_part(x, 3),
    lambda x: chi(x, 3),
    lambda x: hilbert(x, 3, Place(3)),
    lambda x: hilbert(3, x, INFINITE_PLACE),
])
def test_floats_rejected(call):
    for bad in (0.5, 2.0, 0.0):
        with pytest.raises(TypeError, match=repr(bad)):
            call(bad)


def test_integral_types_and_fractions_accepted():
    import numpy as np

    for x in (np.int64(18), np.uint8(18), Fraction(18)):
        assert valuation(x, 3) == 2
        assert unit_part(x, 3) == 2
    assert chi(np.int32(2), 3) == chi(2, 3) == -1
    assert hilbert(np.int64(3), Fraction(2), Place(3)) == hilbert(3, 2, Place(3))


def test_residue_mod_prime_powers():
    assert [residue(x, 9) for x in (7, -1, 18, Fraction(1, 2))] == [7, 8, 0, 5]
    assert residue(Fraction(-3, 4), 25) == 18 and residue(Fraction(2, 3), 5, "entry") == 4
    rng = random.Random(3)
    for _ in range(200):
        p, t = rng.choice((3, 5, 7)), rng.randint(1, 4)
        x = Fraction(rng.randint(-99, 99), rng.choice([d for d in range(1, 60) if d % p]))
        assert (residue(x, p**t) * x.denominator - x.numerator) % p**t == 0
    with pytest.raises(TypeError, match="0.5"):
        residue(0.5, 3)
    with pytest.raises(ValueError, match=r"^value 1/3 has no residue mod 9: p divides its denominator$"):
        residue(Fraction(1, 3), 9)


def test_unit_part_reconstructs():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-80, 80) or 1, rng.randint(1, 80))
        for p in (3, 5, 7):
            assert x == Fraction(p) ** valuation(x, p) * unit_part(x, p)
            assert valuation(unit_part(x, p), p) == 0


def test_chi_examples():
    assert chi(1, 3) == 1
    assert chi(2, 3) == -1
    assert chi(-1, 3) == -1
    assert chi(-1, 5) == 1
    assert chi(2, 7) == 1


def test_chi_rejects_non_units():
    with pytest.raises(ValueError, match="chi requires a p-adic unit"):
        chi(3, 3)
    with pytest.raises(ValueError, match="chi requires a p-adic unit"):
        chi(Fraction(1, 5), 5)


def test_chi_is_multiplicative_and_matches_squares():
    for p in (3, 5, 7, 11):
        squares = {x * x % p for x in range(1, p)}
        for u in range(1, p):
            assert chi(u, p) == (1 if u in squares else -1)
            for w in range(1, p):
                assert chi(u * w, p) == chi(u, p) * chi(w, p)


def test_chi_depends_only_on_unit_class():
    # a fraction like 5/9 is a unit times 3^-2; chi sees only the unit
    assert chi(Fraction(5, 1), 3) == chi(5 + 3 * 11, 3)
    assert chi(Fraction(7, 4), 3) == chi(7 * pow(4, -1, 27), 3)


def test_hilbert_examples():
    assert hilbert(-1, -1, INFINITE_PLACE) == -1
    assert hilbert(-1, -1, Place(2)) == -1
    assert hilbert(2, 3, Place(3)) == -1
    assert hilbert(1, -1, INFINITE_PLACE) == 1
    assert hilbert(3, 5, Place(7)) == 1


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(23)
    places = [INFINITE_PLACE, Place(2), Place(3), Place(5), Place(7)]
    for _ in range(120):
        a = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
        b = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
        c = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
        for v in places:
            assert hilbert(a, b, v) == hilbert(b, a, v)
            assert hilbert(a * c, b, v) == hilbert(a, b, v) * hilbert(c, b, v)


def test_hilbert_unit_rules_at_odd_p():
    for p in (3, 5, 7):
        for u in range(1, p):
            for w in range(1, p):
                assert hilbert(u, w, Place(p)) == 1
            assert hilbert(p, u, Place(p)) == chi(u, p)
            assert hilbert(u, p, Place(p)) == chi(u, p)


def _soluble_odd(a: int, b: int, p: int) -> bool:
    # primitive solution of a x^2 + b y^2 = z^2 mod p^3
    q = p ** 3
    for x in range(q):
        for y in range(q):
            w = (a * x * x + b * y * y) % q
            for z in range(q):
                if (x % p, y % p, z % p) == (0, 0, 0):
                    continue
                if (z * z - w) % q == 0:
                    return True
    return False


def test_hilbert_against_brute_force_solubility_p3():
    vals = [1, 2, 3, -1, -3, 6, -6, 9]
    for a in vals:
        for b in vals:
            assert hilbert(a, b, Place(3)) == (1 if _soluble_odd(a, b, 3) else -1)


def _soluble_dyadic(a: int, b: int) -> bool:
    # mod 16 decides the symbol for odd a, b
    for x in range(16):
        for y in range(16):
            for z in range(16):
                if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
                    continue
                if (a * x * x + b * y * y - z * z) % 16 == 0:
                    return True
    return False


def test_hilbert_against_brute_force_solubility_dyadic():
    odd_units = (-7, -5, -3, -1, 1, 3, 5, 7)
    for a in odd_units:
        for b in odd_units:
            assert hilbert(a, b, Place(2)) == (1 if _soluble_dyadic(a, b) else -1)


def test_hilbert_reciprocity_500_random_pairs():
    rng = random.Random(1729)
    checked = 0
    while checked < 500:
        a = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        b = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        if a == 0 or b == 0:
            continue
        primes = set()
        for x in (a, b):
            for part in (x.numerator, x.denominator):
                n = abs(part)
                d = 2
                while d * d <= n:
                    while n % d == 0:
                        primes.add(d)
                        n //= d
                    d += 1
                if n > 1:
                    primes.add(n)
        primes.add(2)
        prod = hilbert(a, b, INFINITE_PLACE)
        for q in sorted(primes):
            prod *= hilbert(a, b, Place(q))
        assert prod == 1
        checked += 1


def test_place_api():
    assert INFINITE_PLACE.prime is None and not INFINITE_PLACE.is_finite
    assert Place(3).is_finite and Place(3).prime == 3
    assert str(Place(5)) == "5" and str(INFINITE_PLACE) == "oo"
    assert Place(3) == Place(3) != INFINITE_PLACE
    with pytest.raises(ValueError, match="not a prime"):
        Place(6)
