"""Shared test helpers: independent oracles, random-value generators, a
check of left-multiplication matrices against exact products and a time
limit for calls that used to hang.

The oracles here deliberately avoid the code paths they check:

* wreath products are evaluated as sequences of one-generator actions on
  a lamp configuration instead of the packaged normal-form law;
* group-ring products are accumulated by a bare double loop over term
  pairs;
* certify's u is expanded from its closed form, with no Fox calculus;
* division by 1 - x is done by peeling shift slices, with no matrices;
* lamp configurations are listed by ``itertools.product`` and sorted by
  ``sort_key``, with no digit arithmetic.
"""

from __future__ import annotations

import contextlib
import signal
from itertools import product

import numpy as np

from lamplighter.groupring import GroupRing, GroupRingElement, left_mul_matrix, left_mul_rows
from lamplighter.wreath import WreathElement, WreathGroup


def act_mul(g: WreathElement, h: WreathElement) -> WreathElement:
    """Oracle product: apply g's generator word to h's configuration.

    g = (lamps) * x^n acts on a state (config, shift) by first shifting
    the whole configuration n steps and then toggling each of g's lamps
    at its absolute position.
    """
    group = g.group
    d = group.d
    config = dict(h.lamps)
    shift = h.shift
    n = g.shift
    config = {pos + n: val for pos, val in config.items()}
    shift += n
    for pos, val in g.lamps:
        v = (config.get(pos, 0) + val) % d
        if v:
            config[pos] = v
        else:
            config.pop(pos, None)
    return group.element(config, shift)


def convolve(u: GroupRingElement, v: GroupRingElement) -> GroupRingElement:
    """Oracle product: bare double loop over term pairs."""
    acc: dict[WreathElement, int] = {}
    for g, c in u.terms.items():
        for h, e in v.terms.items():
            k = g * h
            acc[k] = acc.get(k, 0) + c * e
    return u.algebra.element(acc.items())


def tau(u: GroupRingElement) -> GroupRingElement:
    """The anti-automorphism of kG that fixes a and x: b*x^n goes to the
    element with the same shift whose lamp at position p sits at n - p."""
    group = u.group
    return u.algebra.element([(group.element({g.shift - p: v for p, v in g.lamps}, g.shift), c)
                              for g, c in u.terms.items()])


def is_balanced(sigma: GroupRingElement, lamp: int = 0) -> bool:
    """True when, for each shift, sigma's coefficients summed over the
    terms with value v at position ``lamp`` are the same for every v in Z/d."""
    sums: dict[tuple[int, int], int] = {}
    for g, c in sigma.terms.items():
        key = (g.shift, dict(g.lamps).get(lamp, 0))
        sums[key] = sums.get(key, 0) + c
    canon = sigma.ring.canon
    return all(len({canon(sums.get((n, v), 0)) for v in range(sigma.group.d)}) == 1
               for n, _ in sums)


def certificate_u_reference(entries) -> GroupRingElement:
    """Oracle for certify's u from z_0..z_N, with no Fox calculus: z_0
    times 1 + a + ... + a^(d-1), plus z_l (1 + a x^l - a[l] - x^l) for
    each l >= 1, each product by ``convolve``."""
    algebra = entries[0].algebra
    group = algebra.group
    factors = [[(group.element({0: i}), 1) for i in range(group.d)]]
    factors += [[(group.identity, 1), (group.element({0: 1}, l), 1),
                 (group.element({l: 1}), -1), (group.element({}, l), -1)]
                for l in range(1, len(entries))]
    out = algebra.zero
    for z, factor in zip(entries, factors):
        out = out + convolve(z, algebra.element(factor))
    return out


def configurations_reference(group: WreathGroup, positions, shifts) -> list[WreathElement]:
    """Oracle for the lamp enumerator: every b * x^n with b supported on
    ``positions`` and n in ``shifts``, built one element at a time from
    ``itertools.product`` and sorted by ``sort_key``."""
    return sorted((group.element(zip(positions, values), n) for n in shifts
                   for values in product(range(group.d), repeat=len(positions))),
                  key=WreathElement.sort_key)


def window_reference(group: WreathGroup, lamps: int, shift: int) -> list[WreathElement]:
    """Oracle for ``Window(lamps, shift).elements``."""
    return configurations_reference(group, range(-lamps, lamps + 1), range(-shift, shift + 1))


def left_mul_labels(alpha: GroupRingElement, domain) -> tuple[np.ndarray, list]:
    """The matrix of g -> alpha * g and the product each of its rows stands
    for, checked against exact products: ``left_mul_rows`` gives h_k * g_j
    and h_k' * g_j' the same row exactly when they are equal, and
    ``left_mul_matrix`` holds c_k at [rows[k, j], j] and zero elsewhere."""
    rows, height = left_mul_rows(alpha, domain)
    labels: dict[int, WreathElement] = {}
    for k, h in enumerate(alpha.terms):
        for j, g in enumerate(domain):
            assert labels.setdefault(int(rows[k, j]), act_mul(h, g)) == act_mul(h, g)
    assert sorted(labels) == list(range(height))
    assert len(set(labels.values())) == height
    mat = left_mul_matrix(alpha, domain)
    expected = np.zeros_like(mat)
    for k, c in enumerate(alpha.terms.values()):
        expected[rows[k], np.arange(len(domain))] = c
    assert np.array_equal(mat, expected)
    return mat, [labels[r] for r in range(height)]


def divide_by_one_minus_x(rho: GroupRingElement) -> GroupRingElement | None:
    """The unique alpha with (1 - x) * alpha = rho, or None.

    Solved slice by slice: writing rho = sum_n rho_n x^n with rho_n in
    the base-group ring, alpha_n = rho_n + shift(alpha_{n-1}).  A finite
    solution exists iff the running slice vanishes one step above rho's
    top shift.  1 - x is a non-zerodivisor, so the solution is unique in
    the whole group ring whenever it exists.
    """
    algebra = rho.algebra
    group = algebra.group
    if rho.is_zero():
        return algebra.zero
    slices: dict[int, dict[WreathElement, int]] = {}
    for g, c in rho.terms.items():
        base = WreathElement(group, g.lamps, 0)
        slices.setdefault(g.shift, {})[base] = c
    lo = min(slices)
    hi = max(slices)
    out: list[tuple[WreathElement, int]] = []
    current: dict[WreathElement, int] = {}
    for n in range(lo, hi + 1):
        shifted = {}
        for b, c in current.items():
            moved = group.element({pos + 1: val for pos, val in b.lamps}, 0)
            shifted[moved] = shifted.get(moved, 0) + c
        for b, c in slices.get(n, {}).items():
            shifted[b] = shifted.get(b, 0) + c
        current = {b: algebra.ring.canon(c) for b, c in shifted.items()
                   if algebra.ring.canon(c)}
        if n < hi:
            for b, c in current.items():
                out.append((WreathElement(group, b.lamps, n), c))
    if current:
        return None
    return algebra.element(out)


def random_group_element(rng, group: WreathGroup, lamp_bound: int = 2,
                         shift_bound: int = 2) -> WreathElement:
    lamps = {pos: rng.randrange(group.d)
             for pos in range(-lamp_bound, lamp_bound + 1)}
    return group.element(lamps, rng.randint(-shift_bound, shift_bound))


def random_ring_element(rng, algebra: GroupRing, terms: int = 3,
                        lamp_bound: int = 2, shift_bound: int = 2,
                        coeff_bound: int = 3) -> GroupRingElement:
    return algebra.element(
        [(random_group_element(rng, algebra.group, lamp_bound, shift_bound),
          rng.randint(-coeff_bound, coeff_bound))
         for _ in range(terms)])


def random_base_ideal_element(rng, algebra: GroupRing, terms: int = 4,
                              lamp_bound: int = 2,
                              shift_bound: int = 2) -> GroupRingElement:
    """A random element of the kernel of the projection to k[x, x^-1].

    Subtracting the projection shift by shift leaves every slice with
    coefficient sum zero.
    """
    alpha = random_ring_element(rng, algebra, terms, lamp_bound, shift_bound)
    correction = []
    for n, c in alpha.project_to_laurent().coeffs.items():
        correction.append((algebra.group.generator_x(n), -c))
    return alpha + algebra.element(correction)


def random_free_word(rng, max_len: int = 12):
    from lamplighter.foxwords import FreeWord
    letters = tuple((rng.choice("ax"), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, max_len)))
    return FreeWord(letters)


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass,
    so a regression to a hang fails the test instead of stalling the run."""
    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
