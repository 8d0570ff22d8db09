import copy
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from conftest import convolve, left_mul_labels, random_group_element, random_ring_element
import lamplighter
from lamplighter import groupring
from lamplighter.certificates import (Certificate, RelatorCoefficients, certify,
                                      finite_subgroup_annihilator, reduce_mod_ideal_square,
                                      right_annihilator, zerodivisor_from_coefficients)
from lamplighter.errors import LimitExceededError, RingMismatchError, UnsupportedRingError
from lamplighter.groupring import (CODED_PRODUCT_PAIRS, CODED_PRODUCT_WIDTH, CodedElements,
                                   GroupRing, GroupRingElement, element_codes,
                                   lamp_configurations, left_mul_matrix)
from lamplighter.foxwords import ModuleVector, parse_word
from lamplighter.ring import INTEGERS, Immutable, ScalarRing
from lamplighter.wreath import WreathElement, WreathGroup

G2 = WreathGroup(2)
ZG2 = GroupRing(INTEGERS, G2)
F2G2 = GroupRing(ScalarRing(2), G2)
F3G3 = GroupRing(ScalarRing(3), WreathGroup(3))


def one_minus_a(algebra):
    return algebra.one - algebra.monomial(algebra.group.generator_a(0))


def one_minus_x(algebra):
    return algebra.one - algebra.monomial(algebra.group.generator_x(1))


def test_zero_and_one():
    assert ZG2.zero.is_zero()
    assert not ZG2.one.is_zero()
    assert ZG2.one.augmentation().value == 1


def test_addition_cancels():
    rng = random.Random(1)
    alpha = random_ring_element(rng, ZG2)
    assert (alpha + (-alpha)).is_zero()
    assert alpha * 1 == alpha
    assert (one_minus_a(ZG2) + (ZG2.monomial(G2.generator_a(0)) - ZG2.one)).is_zero()


def test_geometric_annihilates_one_minus_a():
    # (1 - a)(1 + a + ... + a^(d-1)) = 0 because a^d = 1.
    for d in (2, 3, 4, 5):
        algebra = GroupRing(INTEGERS, WreathGroup(d))
        assert (one_minus_a(algebra) * algebra.geometric_a(d)).is_zero()


def test_one_is_neutral_for_mul():
    assert one_minus_x(ZG2) * ZG2.one == one_minus_x(ZG2)


def test_frozen_product_example():
    # ((1-a) x) * ((1-a[1]) x^-1) over Z, d=2, computed with the naive
    # double-loop oracle and written out term by term.
    x = ZG2.monomial(G2.generator_x(1))
    xi = ZG2.monomial(G2.generator_x(-1))
    a1 = ZG2.monomial(G2.generator_a(1))
    left = one_minus_a(ZG2) * x
    right = (ZG2.one - a1) * xi
    expected = ZG2.element([
        (G2.identity, 1),
        (G2.generator_a(0), -1),
        (G2.generator_a(2), -1),
        (G2.element({0: 1, 2: 1}), 1),
    ])
    assert left * right == expected
    assert convolve(left, right) == expected


def test_mul_matches_oracle_random():
    rng = random.Random(17)
    for algebra in (ZG2, F2G2, F3G3):
        for _ in range(300):
            u = random_ring_element(rng, algebra, terms=3, lamp_bound=1, shift_bound=1)
            v = random_ring_element(rng, algebra, terms=3, lamp_bound=1, shift_bound=1)
            assert u * v == convolve(u, v)


def test_ring_axioms_random():
    rng = random.Random(29)
    for algebra in (ZG2, F3G3):
        for _ in range(500):
            u = random_ring_element(rng, algebra, terms=2, lamp_bound=1, shift_bound=1)
            v = random_ring_element(rng, algebra, terms=2, lamp_bound=1, shift_bound=1)
            w = random_ring_element(rng, algebra, terms=2, lamp_bound=1, shift_bound=1)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            assert (u + v) * w == u * w + v * w


def test_support_of_product_is_contained_in_pairwise_products():
    rng = random.Random(31)
    for _ in range(200):
        u = random_ring_element(rng, ZG2)
        v = random_ring_element(rng, ZG2)
        allowed = {g * h for g in u.terms for h in v.terms}
        assert set((u * v).terms) <= allowed


def test_augmentation():
    rng = random.Random(37)
    for _ in range(50):
        g = random_group_element(rng, G2)
        assert ZG2.monomial(g).augmentation().value == 1
    assert one_minus_a(ZG2).augmentation().value == 0
    for _ in range(1000):
        u = random_ring_element(rng, F3G3, terms=2, lamp_bound=1, shift_bound=1)
        v = random_ring_element(rng, F3G3, terms=2, lamp_bound=1, shift_bound=1)
        assert (u * v).augmentation() == u.augmentation() * v.augmentation()
        assert (u + v).augmentation() == u.augmentation() + v.augmentation()


def test_projection_to_laurent():
    rng = random.Random(41)
    for _ in range(50):
        g = random_group_element(rng, G2)
        pi = ZG2.monomial(g).project_to_laurent()
        assert pi.coeffs == {g.shift: 1}
    assert one_minus_a(ZG2).project_to_laurent().is_zero()
    # pi is a ring map: check pi((1-x) alpha) = (1-x) pi(alpha) and products.
    for _ in range(300):
        u = random_ring_element(rng, ZG2)
        v = random_ring_element(rng, ZG2)
        assert (u * v).project_to_laurent() == u.project_to_laurent() * v.project_to_laurent()
        assert (u + v).project_to_laurent() == u.project_to_laurent() + v.project_to_laurent()
        lhs = (one_minus_x(ZG2) * u).project_to_laurent()
        assert lhs == one_minus_x(ZG2).project_to_laurent() * u.project_to_laurent()


def test_base_ideal_membership():
    assert one_minus_a(ZG2).in_base_augmentation_ideal()
    assert not one_minus_x(ZG2).in_base_augmentation_ideal()
    assert ZG2.zero.in_base_augmentation_ideal()
    rng = random.Random(43)
    for _ in range(200):
        rho = random_ring_element(rng, ZG2)
        assert (one_minus_a(ZG2) * rho).in_base_augmentation_ideal()


def test_one_minus_x_is_a_non_zerodivisor():
    rng = random.Random(47)
    for _ in range(1000):
        alpha = random_ring_element(rng, F2G2, terms=3, lamp_bound=1, shift_bound=1)
        if alpha.is_zero():
            continue
        assert not (one_minus_x(F2G2) * alpha).is_zero()
        assert not (alpha * one_minus_x(F2G2)).is_zero()


def test_left_mul_matrix_identity():
    window = [G2.identity, G2.generator_a(0), G2.generator_x(1)]
    mat, labels = left_mul_labels(F2G2.one, window)
    assert sorted(labels) == sorted(window)
    assert np.array_equal(mat[[labels.index(g) for g in window]], np.eye(3, dtype=np.int64))


def test_left_mul_matrix_one_minus_x_columns():
    group = F3G3.group
    domain = [group.identity, group.generator_x(1)]
    mat, labels = left_mul_labels(one_minus_x(F3G3), domain)
    # rows in code order, which orders shifts first
    assert labels == [group.identity, group.generator_x(1), group.generator_x(2)]
    # each column holds one 1 and one -1 (= 2 in GF(3))
    assert np.array_equal(mat, np.array([[1, 0], [2, 1], [0, 2]]))


def test_left_mul_matrix_agrees_with_mul():
    rng = random.Random(53)
    group = F2G2.group
    domain = sorted({random_group_element(rng, group, 1, 1) for _ in range(12)})
    alpha = random_ring_element(rng, F2G2, terms=3, lamp_bound=1, shift_bound=1)
    mat, labels = left_mul_labels(alpha, domain)
    for _ in range(100):
        coeffs = [rng.randrange(2) for _ in domain]
        beta = F2G2.element(list(zip(domain, coeffs)))
        image = alpha * beta
        assert set(image.terms) <= set(labels)
        expected = np.array([image.terms.get(h, 0) for h in labels])
        assert np.array_equal(mat @ np.array(coeffs) % 2, expected % 2)


def test_left_mul_matrix_needs_a_field():
    with pytest.raises(UnsupportedRingError):
        left_mul_matrix(ZG2.one, [G2.identity])


def test_mismatched_algebras_rejected():
    with pytest.raises(RingMismatchError):
        ZG2.one + F2G2.one
    with pytest.raises(RingMismatchError):
        ZG2.one * F3G3.one
    with pytest.raises(RingMismatchError):
        ZG2.monomial(WreathGroup(3).generator_a(0))


def immutable_values():
    """One value of each exported immutable type, plus a certificate whose
    N was tampered with: ``from_json`` stores it with ``verified`` False,
    which ``Certificate.__init__`` would recompute as True."""
    algebra = GroupRing(ScalarRing(3), WreathGroup(2))
    assert algebra.ring.is_field                    # fills the _is_field cache
    g = algebra.group.element({-1: 1, 2: 1}, 3)
    u = algebra.one - algebra.monomial(g, 2)
    z = RelatorCoefficients([algebra.one, u])
    cert = certify(z)
    tampered = cert.to_json()
    tampered["N"] = 0
    tampered = Certificate.from_json(tampered)
    assert cert.verified and not tampered.verified
    return [algebra.group, g, algebra.ring, u.coefficient(g), algebra, u,
            u.project_to_laurent(), parse_word("x*a*x^-1*a^2"),
            ModuleVector(algebra, "generators", {"a": u, "x": algebra.one}), z, cert,
            reduce_mod_ideal_square(F3G3.one - F3G3.monomial(F3G3.group.generator_a(-2))),
            tampered]


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                    lambda value: pickle.loads(pickle.dumps(value, 0)),
                                    lambda value: pickle.loads(
                                        pickle.dumps(value, pickle.HIGHEST_PROTOCOL))],
                         ids=["copy", "deepcopy", "pickle0", "pickle"])
def test_values_copy_and_pickle_to_their_stored_slots(copier):
    exported = {getattr(lamplighter, name) for name in lamplighter.__all__}
    exported = {cls for cls in exported if isinstance(cls, type) and "__slots__" in vars(cls)}
    assert len(exported) == 12 and all(issubclass(cls, Immutable) for cls in exported)
    values = immutable_values()
    assert {type(value) for value in values} == exported
    for value in values:
        twin = copier(value)
        assert type(twin) is type(value) and twin is not value
        for name in type(value).__slots__:
            assert getattr(twin, name) == getattr(value, name)
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(twin, name, getattr(value, name))
            with pytest.raises(AttributeError, match="is immutable"):
                delattr(twin, name)
        if isinstance(value, Certificate):    # compared by identity; verified is a slot
            continue
        assert twin == value
        if type(value).__hash__ is not None:
            assert hash(twin) == hash(value)
    u = values[5]
    twin = copier(u)
    assert type(twin) is GroupRingElement and twin == u
    assert twin * u == u * twin == u * u
    with pytest.raises(AttributeError):
        twin.terms = {}


def test_scalar_multiples():
    alpha = one_minus_a(ZG2)
    assert 2 * alpha == alpha + alpha
    assert alpha * 2 == alpha + alpha
    assert (0 * alpha).is_zero()
    assert 2 * one_minus_a(F2G2) == F2G2.zero


def test_json_round_trip():
    rng = random.Random(59)
    for algebra in (ZG2, F3G3):
        for _ in range(50):
            alpha = random_ring_element(rng, algebra)
            assert algebra.from_json(alpha.to_json()) == alpha


def test_printing_canonical():
    a0 = ZG2.monomial(G2.generator_a(0))
    a1x = ZG2.monomial(G2.element({1: 1}, -1))
    elt = ZG2.one - a0 + 2 * a1x
    assert str(elt) == "1 - a[0] + 2*a[1]*x^-1"
    assert str(ZG2.zero) == "0"
    # modular coefficients print canonically, never signed
    assert str(F2G2.one - F2G2.monomial(G2.generator_a(0))) == "1 + a[0]"


# --- The coded product kernel (products of >= CODED_PRODUCT_PAIRS pairs) ---

RINGS = [(modulus, d) for modulus in (0, 4, 2, 3) for d in (2, 3)]


@pytest.fixture
def coded_calls(monkeypatch):
    """The pair counts of the products that ran through the coded kernel."""
    calls = []
    kernel = groupring._coded_product

    def counting(left, right):
        calls.append(len(left) * len(right))
        return kernel(left, right)

    monkeypatch.setattr(groupring, "_coded_product", counting)
    return calls


def distinct_element(rng, algebra, count, lamp_bound=3, shift_bound=3):
    """An element with exactly ``count`` terms."""
    group = algebra.group
    coeffs = [c for c in range(-3, 4) if algebra.ring.canon(c)]
    terms = {}
    while len(terms) < count:
        terms[random_group_element(rng, group, lamp_bound, shift_bound)] = rng.choice(coeffs)
    return algebra.element(terms)


def check_product(left, right, coded_calls, coded=True):
    """left * right equals the oracle, terms in the oracle's order, and
    ran through the kernel exactly when it has enough pairs and, apart
    from the pair count, is ``coded``."""
    del coded_calls[:]
    product = left * right
    expected = convolve(left, right)
    assert product == expected
    assert list(product.terms) == list(expected.terms)
    pairs = len(left) * len(right)
    assert coded_calls == ([pairs] if coded and pairs >= CODED_PRODUCT_PAIRS else [])
    return product


@pytest.mark.parametrize("algebra", [ZG2, F3G3])
def test_products_below_the_threshold_multiply_every_pair_by_the_group_law(
        algebra, coded_calls, monkeypatch):
    """Each term pair of a dict-loop product is one WreathElement.__mul__
    call, the call that the benchmark's wreath.mul counter counts."""
    muls = []
    law = WreathElement.__mul__

    def counting(g, h):
        muls.append(1)
        return law(g, h)

    rng = random.Random(17)
    operands = [(distinct_element(rng, algebra, m), distinct_element(rng, algebra, n))
                for m, n in ((1, 1), (3, 5), (8, CODED_PRODUCT_PAIRS // 8 - 1))]
    w = distinct_element(rng, algebra, 5)
    operands += [(algebra.one, w), (one_minus_a(algebra), w), (w, one_minus_x(algebra))]
    monkeypatch.setattr(WreathElement, "__mul__", counting)
    for u, v in operands:
        del muls[:]
        product = u * v
        assert len(muls) == len(u) * len(v) < CODED_PRODUCT_PAIRS
        assert product == convolve(u, v)
    assert coded_calls == []


@pytest.mark.parametrize("modulus,d", RINGS + [(5, 200)])   # d > 128: int64 digits
def test_coded_product_matches_oracle_around_the_threshold(modulus, d, coded_calls):
    algebra = GroupRing(ScalarRing(modulus), WreathGroup(d))
    rng = random.Random(100 * modulus + d)
    small, step = 8, CODED_PRODUCT_PAIRS // 8
    assert small * step == CODED_PRODUCT_PAIRS
    for large in (step - 1, step, step + 1, 4 * step):
        u = distinct_element(rng, algebra, small)
        v = distinct_element(rng, algebra, large)
        # a large right operand as in certify, a large left one as in annihilate
        assert check_product(u, v, coded_calls)
        assert check_product(v, u, coded_calls)


@pytest.mark.parametrize("modulus,d", RINGS)
def test_coded_product_cancels_to_zero(modulus, d, coded_calls):
    algebra = GroupRing(ScalarRing(modulus), WreathGroup(d))
    group = algebra.group
    rng = random.Random(200 + 10 * modulus + d)
    # certify: u times the large gamma of depth N
    depth = 3 if d == 2 else 2
    z = RelatorCoefficients([random_ring_element(rng, algebra) for _ in range(depth + 1)])
    u, gamma = zerodivisor_from_coefficients(z), right_annihilator(depth, algebra)
    assert len(u) * len(gamma) >= CODED_PRODUCT_PAIRS
    assert check_product(u, gamma, coded_calls).is_zero()
    # annihilate: the sum over the d^k lamp configurations on positions
    # 0..k-1 times alpha, whose shift slices c * (a[i % k] - 1) x^i,
    # i < slices, sum to 0; the second size has fewer than twice
    # CODED_PRODUCT_PAIRS pairs, as a third of annihilate's products do
    for k, slices in ((7, 7), (5, 5)) if d == 2 else ((5, 5), (3, 5)):
        alpha = algebra.element(
            [(g, c * sign) for i in range(slices)
             for c in [rng.choice([c for c in (1, -1, 2) if algebra.ring.canon(c)])]
             for g, sign in ((group.element({i % k: 1}, i), 1), (group.generator_x(i), -1))])
        beta = finite_subgroup_annihilator([alpha])
        assert len(beta) == d ** k
        assert len(beta) * len(alpha) >= CODED_PRODUCT_PAIRS
        assert check_product(beta, alpha, coded_calls).is_zero()
    assert len(beta) * len(alpha) < 2 * CODED_PRODUCT_PAIRS


def shift_sum(algebra, count, coeff):
    """coeff * (1 + x + ... + x^(count-1))."""
    return algebra.element([(algebra.group.generator_x(k), coeff) for k in range(count)])


@pytest.mark.parametrize("c,coded", [(2 ** 29 - 1, True), (2 ** 29, False), (2 ** 40, False)])
def test_coded_product_falls_back_before_int64_overflows(c, coded, coded_calls):
    # The coefficient of x^31 sums 32 products c * (-c).  The kernel runs
    # while 32 * c^2 < 2^63; from there on the exact dict loop does.
    left, right = shift_sum(ZG2, 32, c), shift_sum(ZG2, 32, -c)
    assert 32 * 32 >= CODED_PRODUCT_PAIRS
    product = check_product(left, right, coded_calls, coded)
    assert product.terms[G2.generator_x(31)] == -32 * c * c


@pytest.mark.parametrize("modulus,coded", [(2 ** 30 - 35, True), (2 ** 40 - 87, False)])
def test_coded_product_large_prime_modulus(modulus, coded, coded_calls):
    # -1 is p - 1 in canonical form.  The coefficient of x^s, 7 <= s <= 127,
    # sums 8 products (p - 1)^2: just below 2^63 for the 30-bit prime, so
    # the kernel runs and reduces mod p; past it for the 40-bit prime.
    algebra = GroupRing(ScalarRing(modulus), G2)
    left, right = shift_sum(algebra, 8, -1), shift_sum(algebra, 128, -1)
    assert 8 * 128 >= CODED_PRODUCT_PAIRS
    for product in (check_product(left, right, coded_calls, coded),
                    check_product(right, left, coded_calls, coded)):
        assert product.terms[G2.generator_x(100)] == 8


def multiword(left, right):
    """The codes of left * right span more than one int64 word."""
    products = CodedElements.encode(G2, list(right.terms)).left_translates(list(left.terms))
    return element_codes(products).dtype.kind == "V"


def test_coded_product_on_multiword_codes(coded_calls):
    # Lamps on -28..28 and shifts in -3..3: the products have 63 binary
    # digits and a shift digit, more than one int64 word holds, so the
    # codes are byte strings.
    rng = random.Random(64)
    u = distinct_element(rng, ZG2, 8, lamp_bound=28)
    v = distinct_element(rng, ZG2, CODED_PRODUCT_PAIRS // 8, lamp_bound=28)
    assert multiword(u, v) and multiword(v, u)
    assert check_product(u, v, coded_calls)
    assert check_product(v, u, coded_calls)
    # products that differ only in lamps -28..-23, the leading digits of a word
    left = ZG2.element([(G2.element({33: 1}, k), 1) for k in range(8)])
    right = ZG2.element([(G2.element({-28 + i: (j >> i) & 1 for i in range(6)}), j + 1)
                         for j in range(64)])
    assert multiword(left, right)
    assert len(check_product(left, right, coded_calls)) == 8 * 64
    assert len(check_product(right, left, coded_calls)) == 8 * 64
    # one that cancels: (1 + a[28]) (1 - a[28]) = 1 - a[28]^2 = 0 for d = 2
    a28 = ZG2.monomial(G2.generator_a(28))
    left = v * (ZG2.one + a28)
    right = (ZG2.one - a28) * ZG2.element([(G2.generator_x(k), 1) for k in range(4)])
    assert multiword(left, right)
    assert check_product(left, right, coded_calls).is_zero()


def test_coded_product_width_bound(coded_calls):
    # Lamps a[0..w-1] times 1, x, ..., x^15: the products span w positions.
    shifts = ZG2.element([(G2.generator_x(k), 1) for k in range(16)])
    for width, coded in ((CODED_PRODUCT_WIDTH, True), (CODED_PRODUCT_WIDTH + 1, False)):
        lamps = ZG2.element([(G2.generator_a(k), 1) for k in range(width)])
        check_product(lamps, shifts, coded_calls, coded)
        # on the right, the 16 shifts move the lamps over w + 15 positions
        check_product(shifts, lamps, coded_calls, False)


@pytest.mark.parametrize("far", [10 ** 7, 2 ** 70])
def test_coded_product_leaves_far_lamps_and_shifts_to_the_dict_loop(far, coded_calls):
    # 32 x 16 pairs, where one far lamp, or one far shift moving the lamps
    # of the other side, would make every digit row of the kernel span
    # about 10^7 positions, or overflow int64 at 2^70.
    lamps = ZG2.element([(G2.generator_a(k), 1) for k in list(range(31)) + [far]])
    shifts = ZG2.element([(G2.generator_x(k), 1) for k in list(range(31)) + [far]])
    small = ZG2.element([(G2.element({0: 1}, k), k + 1) for k in range(16)])
    for left, right in ((lamps, small), (small, lamps), (shifts, small)):
        check_product(left, right, coded_calls, False)
    # with no lamps on the right a far shift only widens the shift digit,
    # which the kernel codes while it stays below 2^60
    check_product(small, shifts, coded_calls, far < 2 ** 60)


def test_coded_product_leaves_moduli_past_int64_to_the_dict_loop(coded_calls):
    # Coefficients 1 pass the coefficient guard, but a reduction mod 2^64
    # cannot run in int64.
    algebra = GroupRing(ScalarRing(2 ** 64), G2)
    left, right = shift_sum(algebra, 8, 1), shift_sum(algebra, 128, 1)
    check_product(left, right, coded_calls, False)
    check_product(left, right.scale(2 ** 64 - 1), coded_calls, False)


@pytest.mark.parametrize("d,coded", [(2 ** 62, True), (2 ** 62 + 1, False),
                                     (2 ** 63 + 1, False)])
def test_coded_product_leaves_lamp_orders_past_int64_to_the_dict_loop(d, coded, coded_calls):
    # 16 x 16 pairs whose lamp digits d - 1 and d - 2 add up in the kernel:
    # exact while 2(d - 1) < 2^63, past that the dict loop runs, and a d
    # past int64 does not raise.
    group = WreathGroup(d)
    algebra = GroupRing(INTEGERS, group)
    left = algebra.element([(group.element({0: d - 1, i + 1: 1}), 1) for i in range(16)])
    right = algebra.element([(group.element({0: d - 1 - i % 2}, i), 1) for i in range(16)])
    check_product(left, right, coded_calls, coded)


def test_coded_product_memory_bound(coded_calls, monkeypatch):
    # 8 x 64 pairs on 8 positions: estimated at 512 * (8 * (1 + 3) + 64)
    # bytes, past the bound by one byte the dict loop runs.
    lamps = ZG2.element([(G2.generator_a(k), 1) for k in range(8)])
    shifts = ZG2.element([(G2.generator_x(k), 1) for k in range(64)])
    for bound, coded in ((512 * 96, True), (512 * 96 - 1, False)):
        monkeypatch.setattr(groupring, "CODED_PRODUCT_BYTES", bound)
        check_product(lamps, shifts, coded_calls, coded)


def test_coded_product_memory_stays_below_the_dict_loop(monkeypatch):
    # u * gamma of a d = 3, N = 3 certificate: 35 x 1458 pairs that cancel.
    # The kernel's traced peak may not exceed the dict loop's for the same
    # product (7.8 MB for the dict loop, 3.7 MB for the kernel, measured
    # on Python 3.11 and numpy 2.4).
    rng = random.Random(3)
    z = RelatorCoefficients([random_ring_element(rng, F3G3) for _ in range(4)])
    u, gamma = zerodivisor_from_coefficients(z), right_annihilator(3, F3G3)
    assert (len(u), len(gamma)) == (35, 1458)
    peaks = []
    for threshold in (CODED_PRODUCT_PAIRS, len(u) * len(gamma) + 1):   # kernel, dict loop
        monkeypatch.setattr(groupring, "CODED_PRODUCT_PAIRS", threshold)
        tracemalloc.start()
        try:
            assert (u * gamma).is_zero()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_widely_spread_positions_are_refused_before_allocation(monkeypatch):
    # Four configurations of [0, 10^9] would need 4 x (10^9 + 1) digit
    # bytes: refused before anything is allocated.
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceededError, match="over 1000000001 positions exceed"):
            lamp_configurations(G2, [0, 10 ** 9], (0,), 10 ** 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    # at the byte bound itself the digits are built, one byte past it not
    monkeypatch.setattr(groupring, "CODED_PRODUCT_BYTES", 4 * 100)
    assert lamp_configurations(G2, [0, 99], (0,), 10 ** 6).digits.shape == (4, 100)
    with pytest.raises(LimitExceededError, match="exceed the bound of 400 bytes"):
        lamp_configurations(G2, [0, 100], (0,), 10 ** 6)


def test_shifts_are_counted_only_to_the_cap():
    # A range of 2^64 shifts is too long for len(); the shifts are counted
    # to cap + 1 and the count is a lower bound only past that.
    assert len(lamp_configurations(G2, [], range(4), 4)) == 4
    with pytest.raises(LimitExceededError, match="^enumeration of 5 elements exceeds the cap 4$"):
        lamp_configurations(G2, [], range(5), 4)
    for positions, shifts in (([], range(6)), ([], range(2 ** 64)), ([0], range(-2 ** 64, 2 ** 64))):
        with pytest.raises(LimitExceededError, match="^enumeration of at least 5 elements exceeds"):
            lamp_configurations(G2, positions, shifts, 4)
