import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import time_limit
from lamplighter.certificates import RelatorCoefficients, certify
from lamplighter.errors import LimitExceededError, UnsupportedRingError
from lamplighter.groupring import GroupRing, left_mul_matrix
from lamplighter.linalg import nullspace_mod_p
from lamplighter.oresearch import (Window, _combination, annihilator_search, build_system,
                                   check_solution, nullspace, run_search)
from lamplighter.ring import INTEGERS, ScalarRing
from lamplighter.wreath import WreathElement, WreathGroup

G2 = WreathGroup(2)
G3 = WreathGroup(3)
F2G2 = GroupRing(ScalarRing(2), G2)
F3G3 = GroupRing(ScalarRing(3), G3)
F3G2 = GroupRing(ScalarRing(3), G2)


def one_minus_a(algebra):
    return algebra.one - algebra.monomial(algebra.group.generator_a(0))


def one_minus_x(algebra):
    return algebra.one - algebra.monomial(algebra.group.generator_x(1))


def test_window_enumeration():
    win = Window(0, 0)
    assert win.elements(G2) == [G2.identity, G2.generator_a(0)]
    assert len(Window(1, 1).elements(G2)) == 8 * 3
    elems = Window(1, 1).elements(G3)
    assert len(elems) == 27 * 3
    assert elems == sorted(elems, key=WreathElement.sort_key)
    assert len(set(elems)) == len(elems)
    with pytest.raises(ValueError):
        Window(-1, 0)
    with pytest.raises(LimitExceededError):
        Window(3, 3).elements(G3, cap=100)


def test_build_system_tiny():
    system = build_system(F2G2, Window(0, 0))
    assert system.basis == (G2.identity, G2.generator_a(0))
    assert system.matrix.shape[1] == 4  # two unknowns per window element
    # the extended window is computed from the actual products
    products = {h * g for g in system.basis
                for f in (one_minus_a(F2G2), one_minus_x(F2G2))
                for h in f.terms}
    assert set(system.extended) == products
    # known solution sigma = 1 + a, alpha = 0
    vec = np.array([1, 1, 0, 0])
    assert not ((system.matrix @ vec) % 2).any()


def test_tiny_kernel_is_exactly_the_known_solution():
    system = build_system(F2G2, Window(0, 0))
    vectors = nullspace(system)
    assert len(vectors) == 1
    sigma, alpha = system.solution_pair(vectors[0])
    assert sigma == F2G2.one + F2G2.monomial(G2.generator_a(0))
    assert alpha.is_zero()


def test_solutions_satisfy_equation_exactly():
    for algebra, win in ((F2G2, Window(1, 1)), (F3G3, Window(1, 0)),
                         (F2G2, Window(0, 2)), (F3G2, Window(1, 1))):
        system = build_system(algebra, win)
        lhs = one_minus_a(algebra)
        rhs = one_minus_x(algebra)
        for vec in nullspace(system):
            sigma, alpha = system.solution_pair(vec)
            assert lhs * sigma == rhs * alpha


def test_window_monotonicity():
    # solutions found in a small window stay solutions of any larger system
    small = build_system(F2G2, Window(1, 1))
    big = build_system(F2G2, Window(2, 2))
    index = {g: j for j, g in enumerate(big.basis)}
    w = len(big.basis)
    for vec in nullspace(small):
        sigma, alpha = small.solution_pair(vec)
        embedded = np.zeros(2 * w, dtype=np.int64)
        for g, c in sigma.terms.items():
            embedded[index[g]] = c
        for g, c in alpha.terms.items():
            embedded[w + index[g]] = c
        assert not ((big.matrix @ embedded) % 2).any()


def test_sigma_projects_to_zero_when_d_equals_p():
    for algebra, win in ((F2G2, Window(1, 1)), (F2G2, Window(2, 1)),
                         (F3G3, Window(1, 1))):
        system = build_system(algebra, win)
        for vec in nullspace(system):
            sigma, _ = system.solution_pair(vec)
            assert sigma.in_base_augmentation_ideal()


def test_annihilator_search_finds_witness_for_one_plus_a():
    sigma = F2G2.one + F2G2.monomial(G2.generator_a(0))
    w = annihilator_search(sigma, Window(0, 0))
    assert w is not None and not w.is_zero()
    assert (sigma * w).is_zero()


def test_annihilator_search_inconclusive_for_one_minus_x():
    sigma = one_minus_x(F2G2)
    for win in (Window(0, 0), Window(1, 1), Window(2, 2)):
        assert annihilator_search(sigma, win) is None


ALGEBRAS = [GroupRing(ScalarRing(p), WreathGroup(d)) for p in (2, 3, 5) for d in (2, 3)]


@st.composite
def sigmas_and_windows(draw):
    """A nonzero sigma near the identity and a search window of at most
    (2,2).  Half the sigmas are tau * (1 - a), which the sum of the powers
    of a annihilates inside every window, so both outcomes occur."""
    algebra = draw(st.sampled_from(ALGEBRAS))
    group, p = algebra.group, algebra.ring.modulus
    term = st.tuples(st.dictionaries(st.integers(-2, 2), st.integers(1, group.d - 1),
                                     max_size=3),
                     st.integers(-2, 2), st.integers(1, p - 1))
    sigma = algebra.element([(group.element(lamps, shift), c)
                             for lamps, shift, c in draw(st.lists(term, min_size=1, max_size=4))])
    if draw(st.booleans()):
        sigma = sigma * one_minus_a(algebra)
    assume(not sigma.is_zero())
    return sigma, Window(draw(st.integers(0, 2)), draw(st.integers(0, 2)))


@settings(max_examples=40, deadline=None)
@given(sigmas_and_windows())
@example((one_minus_x(F3G2), Window(2, 2)))                       # injective: None
@example((F2G2.one + F2G2.monomial(G2.generator_a(0)), Window(1, 1)))   # a witness
def test_annihilator_search_equals_the_dense_kernel(case):
    # The one-pass sparse elimination against the first vector of the
    # canonical kernel basis of the dense matrix.
    sigma, window = case
    domain = window.elements(sigma.group)
    kernel = nullspace_mod_p(left_mul_matrix(sigma, domain), sigma.ring.modulus)
    want = _combination(sigma.algebra, domain, kernel[0]) if len(kernel) else None
    assert annihilator_search(sigma, window) == want


@pytest.mark.parametrize("window", [Window(1, 4), Window(2, 2)])
def test_annihilator_search_stays_below_the_dense_matrix(window):
    # An injective sigma of (1,4), eliminated to the last column, and the
    # largest sigma of (2,2): the search never holds its dense matrix.
    report = run_search(F2G2, window)
    search = window.widened(lamps=1)
    if window == Window(1, 4):
        sigma = next(r.sigma for r in report.solutions if r.annihilator is None)
    else:
        sigma = max((r.sigma for r in report.solutions), key=len)
    dense = left_mul_matrix(sigma, search.elements(G2)).nbytes
    annihilator_search(sigma, search)           # the window's codes are cached
    tracemalloc.start()
    try:
        annihilator_search(sigma, search)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense


def test_huge_modulus_is_refused_before_the_primality_test():
    # is_prime(2^127 - 1) ends in trial division; the int64 bound refuses first.
    algebra = GroupRing(ScalarRing(2 ** 127 - 1), G2)
    sigma = algebra.one + algebra.monomial(G2.generator_a(0))
    for call in (lambda: left_mul_matrix(sigma, [G2.identity]),
                 lambda: annihilator_search(sigma, Window(0, 0)),
                 lambda: run_search(algebra, Window(0, 0))):
        with time_limit(0.9), pytest.raises(UnsupportedRingError, match="overflow int64"):
            call()


def test_annihilator_search_rejects_zero():
    with pytest.raises(ValueError):
        annihilator_search(F2G2.zero, Window(0, 0))


def test_annihilator_search_covers_certificate_witnesses():
    # u from a certificate: the certificate annihilator lies in the
    # search space, so the kernel is nonzero and a witness comes back.
    z = RelatorCoefficients([F2G2.zero, F2G2.one])
    cert = certify(z)
    assert cert.verified
    win = Window(1, 0)  # covers the lamps at -1..1 of gamma's support
    assert all(abs(pos) <= 1 and g.shift == 0
               for g in cert.gamma.terms for pos, _ in g.lamps)
    w = annihilator_search(cert.u, win)
    assert w is not None
    assert (cert.u * w).is_zero()
    # gamma itself is one of the solutions of the annihilator system
    domain = win.elements(G2)
    coords = np.array([cert.gamma.terms.get(g, 0) for g in domain])
    support = sorted({h * g for g in domain for h in cert.u.terms},
                     key=WreathElement.sort_key)
    mat = left_mul_matrix(cert.u, domain, support)
    assert not ((mat @ coords) % 2).any()


def test_check_solution_zero_sigma():
    rec = check_solution(F2G2.zero, F2G2.zero, Window(0, 0))
    assert rec.in_base_ideal
    assert rec.annihilator is None


def test_run_search_consistent_for_d_equals_p():
    report = run_search(F2G2, Window(1, 1))
    assert report.verdict == "consistent"
    assert report.d == 2 and report.p == 2
    assert report.nullspace_dim == len(report.solutions)
    for rec in report.solutions:
        assert rec.in_base_ideal
        assert rec.annihilator is not None
        assert (rec.sigma * rec.annihilator).is_zero()


def test_run_search_with_d_not_equal_p():
    # d = 2 over GF(3): sigma = 1 + a has nonzero projection (1 + 1 = 2),
    # which is fine there; the verdict only requires annihilators.
    report = run_search(F3G2, Window(0, 0))
    assert report.nullspace_dim == 1
    rec = report.solutions[0]
    assert not rec.in_base_ideal
    assert rec.annihilator is not None
    assert report.verdict == "consistent"


def test_run_search_is_deterministic():
    a = run_search(F2G2, Window(1, 1)).to_json()
    b = run_search(F2G2, Window(1, 1)).to_json()
    assert json.dumps(a) == json.dumps(b)


def test_report_json_shape():
    report = run_search(F2G2, Window(0, 0))
    data = report.to_json()
    assert set(data) == {"d", "p", "window", "extended_window_size",
                         "nullspace_dim", "solutions", "verdict"}
    assert data["window"] == {"lamps": 0, "shift": 0}
    sol = data["solutions"][0]
    assert set(sol) == {"sigma", "alpha", "in_base_ideal", "annihilator"}
    # solution elements round-trip through the element schema
    assert F2G2.from_json(sol["sigma"]) == report.solutions[0].sigma


def test_solver_needs_a_prime_field():
    with pytest.raises(UnsupportedRingError):
        build_system(GroupRing(ScalarRing(4), G2), Window(0, 0))
    with pytest.raises(UnsupportedRingError):
        build_system(GroupRing(INTEGERS, G2), Window(0, 0))


def test_cap_propagates():
    with pytest.raises(LimitExceededError):
        run_search(F2G2, Window(2, 2), cap=10)


def test_left_mul_matrix_consistency_with_solver():
    # matrix route and exact convolution agree on random window elements
    rng = random.Random(97)
    system = build_system(F2G2, Window(1, 1))
    lhs = one_minus_a(F2G2)
    for _ in range(30):
        coeffs = [rng.randrange(2) for _ in system.basis]
        beta = F2G2.element(list(zip(system.basis, coeffs)))
        image = lhs * beta
        w = len(system.basis)
        column = (system.matrix[:, :w] @ np.array(coeffs)) % 2
        reconstructed = F2G2.element(
            [(g, int(column[i])) for i, g in enumerate(system.extended)])
        assert reconstructed == image


# sha256 of json.dumps(run_search(...).to_json(), sort_keys=True), with the
# annihilators, recorded when left_mul_matrix still multiplied WreathElement
# objects cell by cell and every search took the whole kernel basis.
RUN_SEARCH_DIGESTS = {
    (2, 2, 2, 1): "5604463c86a6f69bd3652d1c091934b122f1252ae3177854c383285137a03faf",
    (2, 2, 1, 4): "ecc7c87062d435f663e0d2335ca19d49d43b6d92ee8fd97e1ca232ed488e676c",
    (3, 2, 1, 1): "3bcd7796f736dcef15b07ce14c69e3f488e9f84db6ab27cac2be5e03e60463a6",
}


@pytest.mark.parametrize("case", sorted(RUN_SEARCH_DIGESTS))
def test_run_search_reports_are_pinned(case):
    p, d, lamps, shift = case
    report = run_search(GroupRing(ScalarRing(p), WreathGroup(d)), Window(lamps, shift))
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_SEARCH_DIGESTS[case]


@pytest.mark.parametrize("algebra, window", [(F2G2, Window(0, 30)), (F3G3, Window(0, 20))])
def test_left_mul_matrix_on_long_shift_windows(algebra, window):
    # Products reach lamp positions -30..30 (or -20..20 for d = 3), more
    # base-d digits than one int64 holds; the matrix must stay exact.
    rng = random.Random(61)
    group, p = algebra.group, algebra.ring.modulus
    bound = window.shift_bound
    domain = window.elements(group)
    shifts = [-bound, bound] + rng.sample(range(1 - bound, bound), 2)
    alpha = algebra.element([(group.element({0: rng.randrange(1, group.d)}, n), 1 + n % (p - 1))
                             for n in shifts])
    codomain = sorted({h * g for g in domain for h in alpha.terms}, key=WreathElement.sort_key)
    assert max(abs(pos) for g in codomain for pos, _ in g.lamps) == bound
    mat = left_mul_matrix(alpha, domain, codomain)
    for _ in range(20):
        coeffs = [rng.randrange(p) for _ in domain]
        image = alpha * algebra.element(list(zip(domain, coeffs)))
        column = (mat.astype(np.int64) @ np.array(coeffs)) % p
        assert algebra.element([(g, int(c)) for g, c in zip(codomain, column)]) == image
    # Without a codomain the rows come in code order: the same rows permuted.
    coded = left_mul_matrix(alpha, domain)
    assert sorted(map(tuple, coded.tolist())) == sorted(map(tuple, mat.tolist()))
    assert np.array_equal(nullspace_mod_p(coded, p), nullspace_mod_p(mat, p))


def test_dense_matrices_are_bounded_before_allocation():
    # Window (4,4) needs a 7168 x 9216 system; the search window (5,4) of
    # an annihilator has 18,432 elements.  Both are refused before any
    # matrix exists: the traced peak stays far below one such matrix.
    sigma = F2G2.one + F2G2.monomial(G2.generator_a(0))
    for search in (lambda: run_search(F2G2, Window(4, 4)),
                   lambda: annihilator_search(sigma, Window(5, 4))):
        tracemalloc.start()
        try:
            with pytest.raises(LimitExceededError, match="cells"):
                search()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20
