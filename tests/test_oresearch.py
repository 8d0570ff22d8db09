import hashlib
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (configurations_reference, convolve, is_balanced, left_mul_labels,
                      random_group_element, tau, time_limit, window_reference)
from lamplighter import oresearch
from lamplighter.certificates import RelatorCoefficients, certify
from lamplighter.errors import LimitExceededError, UnsupportedRingError
from lamplighter.foxwords import relator_fox_derivative
from lamplighter.groupring import CodedElements, GroupRing, element_codes, left_mul_matrix
from lamplighter.linalg import nullspace_mod_p
from lamplighter.oresearch import (Window, _combination, annihilator_search, build_system,
                                   check_solution, nullspace, run_search)
from lamplighter.ring import INTEGERS, ScalarRing
from lamplighter.wreath import DEFAULT_CAP, WreathElement, WreathGroup

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


@pytest.mark.parametrize("d", [2, 3, 5, 131])
@pytest.mark.parametrize("lamps", [0, 1, 2])
@pytest.mark.parametrize("shift", [0, 1, 3])
def test_window_coded_equals_the_reference(d, lamps, shift):
    # The digit table in sort_key order, against the product/sorted oracle
    # encoded; d = 131 has int64 digits.  Windows over the cap are refused.
    group = WreathGroup(d)
    window = Window(lamps, shift)
    if d ** (2 * lamps + 1) * (2 * shift + 1) > DEFAULT_CAP:
        with pytest.raises(LimitExceededError, match="exceeds the cap"):
            window.coded(group)
        return
    coded = window.coded(group)
    want = CodedElements.encode(group, window_reference(group, lamps, shift))
    assert coded.lo == want.lo and coded.digits.dtype == want.digits.dtype
    assert np.array_equal(coded.digits, want.digits)
    assert np.array_equal(coded.shifts, want.shifts)


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


def dense_witness(sigma, window):
    """Oracle: the first canonical kernel vector of the dense matrix."""
    domain = window.elements(sigma.group)
    kernel = nullspace_mod_p(left_mul_matrix(sigma, domain), sigma.ring.modulus)
    return _combination(sigma.algebra, domain, kernel[0]) if len(kernel) else None


@pytest.mark.parametrize("algebra, window", [
    (F2G2, Window(1, 2)), (F3G2, Window(2, 1)), (F3G3, Window(1, 1)),
    (F2G2, Window(0, 30)), (F3G3, Window(0, 20))])     # codes of several int64 words
def test_shared_translate_table_equals_the_dense_kernel(algebra, window):
    # Random sigmas searched alone and through one table for all of them.
    # Half are tau * (1 - a), which the powers of a annihilate, and half
    # are random sums, mostly without an annihilator.  Shifts at both ends
    # of the window make the products of the long windows span more lamp
    # positions than one int64 code holds.
    rng = random.Random(window.lamp_bound * 100 + window.shift_bound)
    group, p = algebra.group, algebra.ring.modulus
    bound = window.shift_bound

    def term():
        lamps = {pos: rng.randrange(group.d) for pos in range(-1, 2)}
        shift = rng.choice([-bound, bound, rng.randint(-bound, bound)])
        return group.element(lamps, shift), rng.randrange(1, p)

    sigmas = []
    for k in range(8):
        sigma = algebra.element([term() for _ in range(rng.randint(1, 3))])
        sigmas.append(sigma * one_minus_a(algebra) if k % 2 else sigma)
    sigmas = [s for s in sigmas if not s.is_zero()]
    table = oresearch._TranslateTable(group, window, sigmas, DEFAULT_CAP)
    found = []
    for sigma in sigmas:
        want = dense_witness(sigma, window)
        assert annihilator_search(sigma, window) == want
        assert annihilator_search(sigma, window, table=table) == want
        found.append(want is not None)
    assert any(found) and not all(found)
    # a sigma without an annihilator read every column, block by block
    assert table.built == len(window.elements(group)) and len(table.blocks) > 2
    assert (table.blocks[0].dtype == object) == (bound >= 20)


@settings(max_examples=40, deadline=None)
@given(sigmas_and_windows(), st.dictionaries(st.integers(-3, 3), st.integers(1, 2), max_size=3),
       st.integers(-3, 3), st.integers(1, 4))
@example((F2G2.one + F2G2.monomial(G2.generator_a(0)), Window(1, 1)), {}, 2 ** 40, 1)
@example((F3G3.one - F3G3.monomial(G3.generator_x(1)), Window(1, 1)), {2 ** 40 - 1: 2},
         2 ** 40, 2)
@example((F2G2.one + F2G2.monomial(G2.generator_a(0)), Window(1, 1)), {0: 1}, 2 ** 40, 1)
def test_left_translates_share_the_witness(case, lamps, shift, c):
    # (c * g * sigma) * w = c * g * (sigma * w), so c * g * sigma has the
    # witness of sigma, alone or through one table that keys both to one
    # orbit, also for g far left of the window (shift 2^40).  Each orbit is
    # searched on its normal form, so lamps of g near 0, whose products
    # would span 2^40 lamp positions, are searched as fast as sigma.
    sigma, window = case
    p, group = sigma.ring.modulus, sigma.group
    assume(c % p)
    moved = sigma.algebra.monomial(group.element(lamps, shift), c) * sigma
    moved = sigma.algebra.element(list(moved.terms.items())[::-1])    # key not by term order
    want = dense_witness(sigma, window)
    assert annihilator_search(moved, window) == annihilator_search(sigma, window) == want
    table = oresearch._TranslateTable(group, window, [moved, sigma], DEFAULT_CAP)
    (member,) = table.members                   # one orbit, one representative
    assert same_orbit(sigma, member)
    assert annihilator_search(moved, window, table=table) == want
    assert annihilator_search(sigma, window, table=table) == want


def same_orbit(s, t):
    """Oracle for t = c * g * s, by exact products: with h a fixed term of s,
    some term h' of t must be g * h, so g = h' * h^-1 and c = c_h' / c_h."""
    h, c_h = next(iter(s.terms.items()))
    inverse = pow(c_h, -1, s.ring.modulus)
    return any(s.algebra.monomial(g * h.inverse(), c * inverse) * s == t
               for g, c in t.terms.items())


def orbit_members(sigmas):
    """The first sigma of each left-translation orbit, in order."""
    members = []
    for t in sigmas:
        if not any(same_orbit(s, t) for s in members):
            members.append(t)
    return members


@pytest.mark.parametrize("algebra, window", [
    (F2G2, Window(1, 4)), (F3G2, Window(1, 1)), (F3G3, Window(1, 0))])
def test_run_search_annihilators_equal_the_dense_kernel(algebra, window, monkeypatch):
    tables = []

    class Recorded(oresearch._TranslateTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(oresearch, "_TranslateTable", Recorded)
    report = run_search(algebra, window)
    search = window.widened(lamps=1)
    for rec in report.solutions:
        assert rec.annihilator == dense_witness(rec.sigma, search)
    (table,) = tables                           # one table for the whole run
    # one representative per orbit, and its factors are their terms
    members = orbit_members([rec.sigma for rec in report.solutions])
    assert len(table.members) == len(members)
    assert all(same_orbit(s, t) for s, t in zip(members, table.members))
    assert set(table.factors) == {h for sigma in table.members for h in sigma.terms}
    if window == Window(1, 4):                  # 20 sigmas read all 288 columns
        assert table.built == 288 and len(table.blocks) > 2


@pytest.mark.parametrize("algebra, window", [
    (F2G2, Window(1, 4)), (F3G2, Window(1, 1)), (F3G3, Window(1, 0))])
def test_run_search_witnesses_equal_the_reference_dense_kernel(algebra, window):
    # Each witness is decoded from the codes of its columns only; it must be
    # the first canonical kernel vector of the dense matrix over the search
    # window listed by the oracle, with no lamp enumerator involved.
    search = window.widened(lamps=1)
    domain = window_reference(algebra.group, search.lamp_bound, search.shift_bound)
    report = run_search(algebra, window)
    assert any(rec.annihilator is not None for rec in report.solutions)
    for rec in report.solutions:
        kernel = nullspace_mod_p(left_mul_matrix(rec.sigma, domain), algebra.ring.modulus)
        want = _combination(algebra, domain, kernel[0]) if len(kernel) else None
        assert rec.annihilator == want


def test_run_search_never_decodes_the_search_window(monkeypatch):
    # The search window (2,1) has 96 elements.  The run decodes the Ore
    # window's 24 for the basis and a few per witness, never all 96, and no
    # search lists window elements as objects.
    sizes, decode = [], CodedElements.decode

    def recorded(self):
        sizes.append(len(self))
        return decode(self)

    def elements(*args):
        raise AssertionError("a window was listed as objects")

    monkeypatch.setattr(CodedElements, "decode", recorded)
    monkeypatch.setattr(Window, "elements", elements)
    oresearch._coded_window.cache_clear()
    report = run_search(F2G2, Window(1, 1))
    assert report.verdict == "consistent" and report.extended_window_size == 40
    assert 24 in sizes and max(sizes) < 96


@pytest.mark.parametrize("algebra, window, orbits", [
    (F2G2, Window(1, 4), 17), (F2G2, Window(2, 1), 12), (F3G2, Window(1, 1), None),
    (F3G3, Window(1, 1), 11)])
def test_run_search_eliminates_once_per_orbit(algebra, window, orbits, monkeypatch):
    # annihilator_search is still called once per nonzero sigma, but the
    # elimination runs once per left-translation orbit of the sigmas.
    searches, eliminations = [], []
    search, first = oresearch.annihilator_search, oresearch.first_dependency

    def counted_search(*args, **kwargs):
        searches.append(args[0])
        return search(*args, **kwargs)

    def counted_first(*args):
        eliminations.append(1)
        return first(*args)

    monkeypatch.setattr(oresearch, "annihilator_search", counted_search)
    monkeypatch.setattr(oresearch, "first_dependency", counted_first)
    report = run_search(algebra, window)
    sigmas = [rec.sigma for rec in report.solutions if rec.sigma]
    assert searches == sigmas
    assert len(eliminations) == len(orbit_members(sigmas)) < len(sigmas)
    if orbits is not None:
        assert len(eliminations) == orbits


def test_run_search_forms_fewer_products_than_the_full_table(monkeypatch):
    # Every product h * g_j that run_search forms goes through
    # left_translates.  The shared table is built only as far as a search
    # reads, so the count stays below |H| x n, and a second run forms the
    # same products again: nothing is carried over between runs.
    formed = []
    translates = CodedElements.left_translates

    def counted(self, hs):
        products = translates(self, hs)
        formed[-1] += len(products)
        return products

    monkeypatch.setattr(CodedElements, "left_translates", counted)
    for _ in range(2):
        formed.append(0)
        report = run_search(F2G2, Window(2, 2))
    factors = {h for rec in report.solutions for h in rec.sigma.terms}
    n = len(Window(3, 2).elements(G2))
    assert formed[0] == formed[1] < len(factors) * n


def test_gf3_d3_window_2_1_completes():
    # The 11,664 x 6,561 cell matrix of one of its sigmas used to refuse
    # this run (exit 3).  The searches build no matrix, and the search
    # window's 6,561^2 cells pass the n x n bound.
    report = run_search(F3G3, Window(2, 1))
    assert (report.verdict, report.nullspace_dim) == ("consistent", 319)
    assert all(rec.annihilator is not None for rec in report.solutions)


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
    # is_prime cannot prove 2^127 - 1 prime, a probable prime past its exact
    # bound: field_dtype refuses it before anything is enumerated.
    algebra = GroupRing(ScalarRing(2 ** 127 - 1), G2)
    sigma = algebra.one + algebra.monomial(G2.generator_a(0))
    for call in (lambda: left_mul_matrix(sigma, [G2.identity]),
                 lambda: annihilator_search(sigma, Window(0, 0)),
                 lambda: run_search(algebra, Window(0, 0))):
        with time_limit(0.9), pytest.raises(UnsupportedRingError, match="cannot prove"):
            call()


@pytest.mark.parametrize("p", [2 ** 61 - 1, 2 ** 64 - 59])
def test_run_search_past_the_int64_bound_is_exact(p):
    # The kernels of GF(3) at d = 2 have these dimensions too; past 2^63 the
    # system matrix holds Python ints.
    algebra = GroupRing(ScalarRing(p), G2)
    for window, dim in ((Window(1, 1), 14), (Window(2, 1), 57)):
        report = run_search(algebra, window)
        assert (report.verdict, report.nullspace_dim) == ("consistent", dim)
        for rec in report.solutions:
            assert rec.annihilator and not convolve(rec.sigma, rec.annihilator)


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
    mat, _ = left_mul_labels(cert.u, domain)
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
    # matrix route and exact convolution agree on random window elements,
    # in both blocks; over GF(3) the entries -1 = 2 differ from the 1s
    rng = random.Random(97)
    for algebra in (F2G2, F3G2, F3G3):
        p = algebra.ring.modulus
        system = build_system(algebra, Window(1, 1))
        w = len(system.basis)
        for block, factor in ((slice(None, w), one_minus_a(algebra)),
                              (slice(w, None), -one_minus_x(algebra))):
            for _ in range(30):
                coeffs = [rng.randrange(p) for _ in system.basis]
                image = factor * algebra.element(list(zip(system.basis, coeffs)))
                column = (system.matrix[:, block].astype(np.int64) @ np.array(coeffs)) % p
                reconstructed = algebra.element(
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
    products = CodedElements.encode(group, domain).left_translates(list(alpha.terms))
    assert element_codes(products).dtype.kind == "V"        # codes of several words
    mat, labels = left_mul_labels(alpha, domain)
    assert max(abs(pos) for g in labels for pos, _ in g.lamps) == bound
    for _ in range(20):
        coeffs = [rng.randrange(p) for _ in domain]
        image = alpha * algebra.element(list(zip(domain, coeffs)))
        column = (mat.astype(np.int64) @ np.array(coeffs)) % p
        assert algebra.element([(g, int(c)) for g, c in zip(labels, column)]) == image


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


def test_searches_over_the_cell_bound_are_refused_before_elimination(monkeypatch):
    # Window (4,3): the 5632 x 7168 system passes the cell bound, but the
    # search window (5,3) has 14,336 elements, so every sigma's matrix has
    # at least 14,336^2 cells and each search would be refused.  The run
    # stops before the kernel is computed.
    def eliminate(system):
        raise AssertionError("the kernel was computed")

    monkeypatch.setattr(oresearch, "nullspace", eliminate)
    with pytest.raises(LimitExceededError, match="14336 x 14336"):
        run_search(F2G2, Window(4, 3))


@pytest.mark.parametrize("ring", [ScalarRing(4), INTEGERS])
def test_coefficients_outside_gf_p_are_refused_before_encoding(ring, monkeypatch):
    def encode(*args):
        raise AssertionError("elements were encoded")

    monkeypatch.setattr(CodedElements, "encode", encode)
    algebra = GroupRing(ring, G2)
    sigma = algebra.one + algebra.monomial(G2.generator_a(0))
    for call in (lambda: build_system(algebra, Window(0, 0)),
                 lambda: run_search(algebra, Window(0, 0)),
                 lambda: annihilator_search(sigma, Window(0, 0)),
                 lambda: left_mul_matrix(sigma, [G2.identity])):
        with pytest.raises(UnsupportedRingError):
            call()


@pytest.mark.parametrize("shift", [2 ** 40, 2 ** 62, 2 ** 63 + 5])
def test_far_right_shifts_are_refused_before_any_product(shift, monkeypatch):
    # (1 + a) * x^shift moves the window's lamps by shift past the lamp of a:
    # at 2^40 one column of products spans 2^40 lamp positions (32 TiB in
    # one block), and 2^62 and 2^63 + 5 pass the 2^60 bound of exact int64
    # codes.  Each is refused before any product is formed.
    def left_translates(*args):
        raise AssertionError("products were formed")

    monkeypatch.setattr(CodedElements, "left_translates", left_translates)
    sigma = (F2G2.one + F2G2.monomial(G2.generator_a(0))) * \
        F2G2.monomial(G2.generator_x(shift))
    match = "bytes" if shift < 2 ** 60 else "2\\^60"
    with pytest.raises(LimitExceededError, match=match):
        annihilator_search(sigma, Window(1, 1))


def test_table_blocks_stay_within_the_byte_bound(monkeypatch):
    # With room for five columns of digits, every block is at most five
    # columns wide, and the witnesses are those of the dense kernel.
    window = Window(1, 2)
    sigmas = [one_minus_x(F2G2), F2G2.one + F2G2.monomial(G2.generator_a(1))]
    table = oresearch._TranslateTable(G2, window, sigmas, DEFAULT_CAP)
    width = table.coded.left_translates(table.factors).digits.shape[1]
    column = len(table.factors) * width         # one byte per digit at d = 2
    monkeypatch.setattr(oresearch, "CODED_PRODUCT_BYTES", 5 * column)
    table = oresearch._TranslateTable(G2, window, sigmas, DEFAULT_CAP)
    for sigma in sigmas:
        assert annihilator_search(sigma, window, table=table) == dense_witness(sigma, window)
    assert table.built == len(table.coded)      # 1 - x reads every column
    assert max(block.shape[1] for block in table.blocks) == 5


def test_an_oversized_search_window_is_refused_before_any_product(monkeypatch):
    # Window (5,4) has 18,432 elements, so every sigma's matrix has at least
    # 18,432^2 cells: refused before the window is translated by sigma.
    def left_translates(*args):
        raise AssertionError("products were formed")

    monkeypatch.setattr(CodedElements, "left_translates", left_translates)
    sigma = F2G2.one + F2G2.monomial(G2.generator_a(0))
    with pytest.raises(LimitExceededError, match="18432 x 18432"):
        annihilator_search(sigma, Window(5, 4))


# --- Fact E (module docstring): every window solution is killed by w_L ---

def relator_chains(algebra, rng):
    """(l, sigma, alpha) for l = 0..7, sigma = tau(dr_l/da) h and alpha =
    -tau(dr_l/dx) h, for h the identity, x^-2 a[1] and four random elements."""
    group = algebra.group
    hs = [group.identity, group.element({1: 1}, -2)]
    hs += [random_group_element(rng, group, lamp_bound=1) for _ in range(4)]
    for l in range(8):
        sigma_l, alpha_l = (tau(relator_fox_derivative(algebra, l, s)) for s in "ax")
        for h in hs:
            yield l, convolve(sigma_l, algebra.monomial(h)), -convolve(alpha_l, algebra.monomial(h))


def witness(algebra, bound, lamp=0):
    """(sum of the lamp subgroup on [lamp - L, lamp + L] without ``lamp``)
    * (1 - a[lamp]) for L = ``bound``; at lamp 0 this is w_L."""
    group = algebra.group
    positions = [p for p in range(lamp - bound, lamp + bound + 1) if p != lamp]
    subgroup_sum = algebra.element(
        [(c, 1) for c in configurations_reference(group, positions, (0,))])
    return convolve(subgroup_sum, algebra.one - algebra.monomial(group.generator_a(lamp)))


def lamp_reach(sigma, lamp=0):
    """The least L such that sigma's lamps lie in [lamp - L, lamp + L]."""
    return max((abs(p - lamp) for g in sigma.terms for p, _ in g.lamps), default=0)


@pytest.mark.parametrize("d", range(2, 8))
def test_relator_chains_are_balanced_solutions_killed_by_w_l(d):
    # Over Z, so the identities hold over every commutative ring.  Each
    # translated relator chain re-substitutes into (1 - a) sigma =
    # (1 - x) alpha and is balanced at lamp 0; where the lamp subgroup of
    # w_L has at most 81 elements, w_L * sigma = 0 by the oracle product.
    # At lamp 1 the a^d and [a, x a x^-1] chains are not all balanced, and
    # the lamp-1 witness kills exactly the chains balanced at lamp 1.
    algebra = GroupRing(INTEGERS, WreathGroup(d))
    one_minus_a_, one_minus_x_ = one_minus_a(algebra), one_minus_x(algebra)
    killed, unbalanced_at_1 = set(), set()
    for l, sigma, alpha in relator_chains(algebra, random.Random(d)):
        assert convolve(one_minus_a_, sigma) == convolve(one_minus_x_, alpha)
        assert is_balanced(sigma)
        if d ** (2 * lamp_reach(sigma)) <= 81:
            assert convolve(witness(algebra, lamp_reach(sigma)), sigma).is_zero()
            killed.add(l)
        if not is_balanced(sigma, lamp=1):
            unbalanced_at_1.add(l)
        if d ** (2 * lamp_reach(sigma, lamp=1)) <= 81:
            product = convolve(witness(algebra, lamp_reach(sigma, lamp=1), lamp=1), sigma)
            assert product.is_zero() == is_balanced(sigma, lamp=1)
    assert {0, 1} <= killed and {0, 1} <= unbalanced_at_1
