import random
import time

import pytest
from hypothesis import given, strategies as st

from lamplighter.errors import NotInvertibleError, RingMismatchError
from lamplighter.ring import INTEGERS, ScalarRing, _pocklington, is_prime

GF2 = ScalarRing(2)
GF3 = ScalarRing(3)
GF5 = ScalarRing(5)
Z4 = ScalarRing(4)


def test_ring_construction():
    assert INTEGERS.modulus == 0
    assert not INTEGERS.is_field
    assert GF2.is_field and GF3.is_field and GF5.is_field
    assert not Z4.is_field
    with pytest.raises(ValueError):
        ScalarRing(1)
    with pytest.raises(ValueError):
        ScalarRing(-3)


def test_characteristic_two():
    one = GF2.one
    assert one + one == GF2.zero


def test_integer_arithmetic():
    assert INTEGERS.scalar(3) * INTEGERS.scalar(-2) == INTEGERS.scalar(-6)


def test_zerodivisor_in_z4():
    two = Z4.scalar(2)
    assert two * two == Z4.zero


def test_canonical_representatives():
    assert Z4.scalar(-1).value == 3
    assert Z4.scalar(7).value == 3
    assert GF3.scalar(3).value == 0
    assert INTEGERS.scalar(-7).value == -7


def test_invert_gf3():
    assert GF3.scalar(2).invert() == GF3.scalar(2)


def test_invert_gf2():
    assert GF2.one.invert() == GF2.one


def test_invert_gf5_against_exhaustive_search():
    # Independent oracle: scan the whole field for the inverse.
    for v in range(1, 5):
        expected = next(w for w in range(1, 5) if (v * w) % 5 == 1)
        assert GF5.scalar(v).invert() == GF5.scalar(expected)
    assert GF5.scalar(3).invert() == GF5.scalar(2)


def test_invert_errors():
    with pytest.raises(NotInvertibleError):
        Z4.scalar(2).invert()
    with pytest.raises(NotInvertibleError):
        INTEGERS.scalar(2).invert()
    with pytest.raises(NotInvertibleError):
        GF3.zero.invert()


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(RingMismatchError):
        GF2.one + GF3.one
    with pytest.raises(RingMismatchError):
        INTEGERS.one * GF2.one


def test_scalar_accepts_plain_ints():
    assert GF3.scalar(2) + 2 == GF3.one
    assert 2 * GF3.scalar(2) == GF3.one
    assert 1 - GF3.scalar(2) == GF3.scalar(2)


@pytest.mark.parametrize("ring", [INTEGERS, Z4, GF5])
def test_commutative_ring_axioms_random(ring):
    # 10^4 random triples per ring: associativity, commutativity,
    # distributivity, units.
    rng = random.Random(20240 + ring.modulus)
    for _ in range(10_000):
        a = ring.scalar(rng.randint(-50, 50))
        b = ring.scalar(rng.randint(-50, 50))
        c = ring.scalar(rng.randint(-50, 50))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ring.zero == a
        assert a * ring.one == a


def test_modular_results_match_reduced_integer_results():
    rng = random.Random(7)
    for _ in range(10_000):
        x = rng.randint(-100, 100)
        y = rng.randint(-100, 100)
        for ring in (Z4, GF2, GF3, GF5):
            assert (ring.scalar(x) + ring.scalar(y)).value == (x + y) % ring.modulus
            assert (ring.scalar(x) * ring.scalar(y)).value == (x * y) % ring.modulus
            assert (-ring.scalar(x)).value == (-x) % ring.modulus


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
def test_integer_sub_matches_builtin(x, y):
    assert (INTEGERS.scalar(x) - INTEGERS.scalar(y)).value == x - y


@given(st.integers(), st.sampled_from([2, 3, 4, 5, 6, 7]))
def test_canonical_range(value, modulus):
    ring = ScalarRing(modulus)
    assert 0 <= ring.scalar(value).value < modulus


def test_printing():
    assert str(INTEGERS.scalar(-7)) == "-7"
    assert str(Z4.scalar(-1)) == "3"
    assert str(GF2.one) == "1"


def test_scalars_are_immutable():
    s = GF2.one
    with pytest.raises(AttributeError):
        s.value = 0


def trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(-5, 10 ** 5) if is_prime(n)] == \
        [n for n in range(-5, 10 ** 5) if trial_division(n)]


CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]


@pytest.mark.parametrize("n", [
    # the least strong pseudoprimes to the first k prime bases, k = 1..12
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
    3825123056546413051, 318665857834031151167461,
    *CARMICHAEL,
    (2 ** 89 - 1) * (2 ** 61 - 1), (2 ** 61 - 1) ** 2])     # past the exact Miller-Rabin bound
def test_is_prime_rejects_pseudoprimes(n):
    start = time.perf_counter()
    assert not is_prime(n)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("n", [2 ** 31 - 1, 3037000493, 2 ** 61 - 1, 10 ** 18 + 9,
                               3317044064679887385961813,
                               2 ** 89 - 1, 28 * 2 ** 90 + 1])     # past the bound: proved
def test_is_prime_accepts_large_primes_quickly(n):
    start = time.perf_counter()
    assert is_prime(n)
    assert ScalarRing(n).is_field
    assert time.perf_counter() - start < 0.1


def test_pocklington_proves_primes_and_refuses_composites():
    # Carmichael numbers pass the Fermat condition for every base prime to
    # them; the gcd condition must still refuse them.
    assert not any(_pocklington(n) for n in CARMICHAEL + [2047, 3215031751, 9, 15, 4095])
    assert all(_pocklington(n) for n in [3, 5, 43, 65537, 2 ** 31 - 1, 2 ** 89 - 1])
    # The part of 2^127 - 2 made of primes below 2^16 is about 3.7e16, below
    # the square root of 2^127 - 1, so no proof is found.
    assert not _pocklington(2 ** 127 - 1)
