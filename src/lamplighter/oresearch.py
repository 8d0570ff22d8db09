"""Window-bounded falsifier for the Ore condition in k[Z/dZ wr Z].

The Ore condition asks, for the non-zerodivisor 1 - x and the element
1 - a, for solutions of

    (1 - a) * sigma = (1 - x) * alpha

with sigma a non-zerodivisor.  This module characterizes *all* solutions
whose supports lie in a finite window: the equation becomes an exact
linear system over GF(p) whose kernel is computed by reduced row
echelon form.  Every kernel basis solution is then checked:

* sigma must project to zero in k[x, x^-1] (membership in the ideal
  generated by the base augmentation ideal), and
* a nonzero right annihilator of sigma is searched for in a slightly
  larger window, exhibiting sigma as a left zerodivisor.  Every
  c * g * sigma (c a unit, g a group element) has the right annihilators
  of sigma, so the search eliminates once per left-translation orbit.

A failed annihilator search is inconclusive (reported, never treated as
evidence that sigma is a non-zerodivisor).  All results are exact and
deterministic; reports are byte-identical across runs.

Why every solution should be a left zerodivisor (an argument, not yet
checked by a second reader; ``tests/test_oresearch.py`` tests its base
case).  Call sigma *balanced* when, for each shift, its coefficients
summed over the terms with lamp-0 value v agree for every v in Z/d.  If
sigma's lamps lie in [-L, L], then w_L * sigma = 0 exactly when sigma is
balanced, where w_L = (sum of the lamp subgroup on [-L, L] minus {0}) *
(1 - a) has 2 d^(2L) distinct terms, so w_L != 0.  A solution is a
1-cycle of the Cayley graph with edges g -- a g and x g -- g, sigma_g
the coefficient of the a-edge at g, and balance is linear in them.  The
relators a^d and [a, x^i a x^-i], i >= 1, present the group, so its
Cayley complex is simply connected: every 1-cycle over Z is a sum of
relator loops at base points, and the integral cycles span the solutions
over every commutative ring k.  Each loop is balanced: an a^d loop puts
1 on each of the d classes of one shift; a commutator loop at h has two
pairs of a-edges of opposite signs, at h and a[i] h (same shift and lamp
0, as i != 0) and at x^-i a h and x^-i h (same shift, lamp 0 of each is
lamp i of h).  In the Fox calculus the loop at h is sigma = tau(dr_l/da)
h, alpha = -tau(dr_l/dx) h, with tau the anti-automorphism fixing a, x.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import LamplighterError, LimitExceededError
from .groupring import (CODED_PRODUCT_BYTES, CodedElements, GroupRing, GroupRingElement,
                        check_matrix_cells, coded_width, element_codes, lamp_configurations)
from .linalg import field_dtype, first_dependency, nullspace_mod_p
from .wreath import DEFAULT_CAP, WreathElement, WreathGroup


@dataclass(frozen=True)
class Window:
    """A finite truncation of the group: lamp positions in
    [-lamp_bound, lamp_bound], shifts in [-shift_bound, shift_bound].
    Its elements are enumerated coded (:meth:`coded`); the searches read
    only the codes and decode the few elements that they report."""

    lamp_bound: int
    shift_bound: int

    def __post_init__(self):
        if self.lamp_bound < 0 or self.shift_bound < 0:
            raise ValueError("window bounds must be >= 0")

    def coded(self, group: WreathGroup, cap: int = DEFAULT_CAP) -> CodedElements:
        """All window elements as a coded table in canonical order
        (:meth:`~lamplighter.wreath.WreathElement.sort_key`: shifts by
        magnitude, negative first, then the sorted (position, value) pairs
        of the lit lamps).  Over the positions in order, those tuples compare
        as the digits do once each unlit lamp reads d when a later lamp is
        lit (that lamp sorts after every value here) and 0 when none is (a
        shorter tuple sorts first): one lexsort of that key."""
        table = lamp_configurations(group, range(-self.lamp_bound, self.lamp_bound + 1),
                                    range(-self.shift_bound, self.shift_bound + 1), cap)
        lit = table.digits > 0
        later = np.zeros_like(lit)          # a lamp after this position is lit
        later[:, :-1] = np.logical_or.accumulate(lit[:, :0:-1], axis=1)[:, ::-1]
        key = np.where(lit, table.digits, group.d * later)
        return table.take(np.lexsort([*key.T[::-1], table.shifts, np.abs(table.shifts)]))

    def elements(self, group: WreathGroup, cap: int = DEFAULT_CAP) -> list[WreathElement]:
        """All window elements in canonical order (shift, then lamps)."""
        return self.coded(group, cap).decode()

    def widened(self, lamps: int = 1, shift: int = 0) -> "Window":
        return Window(self.lamp_bound + lamps, self.shift_bound + shift)

    def to_json(self) -> dict:
        return {"lamps": self.lamp_bound, "shift": self.shift_bound}


@dataclass(frozen=True)
class OreSystem:
    """The linear system M * (coords sigma, coords alpha) = 0 on a window.

    Rows are indexed by the extended window (the distinct g, a * g and
    x * g over window elements g), in code order (see
    :func:`~lamplighter.groupring.element_codes`): the kernel and the
    extended window's size do not depend on row order.  The extended
    window is kept coded (``rows``) and decoded only when
    :attr:`extended` is read.  The left column block is multiplication by
    1 - a, the right block the negative of multiplication by 1 - x.
    """

    algebra: GroupRing
    window: Window
    basis: tuple[WreathElement, ...]
    rows: CodedElements
    matrix: np.ndarray

    @cached_property
    def extended(self) -> tuple[WreathElement, ...]:
        """The group element of each row."""
        return tuple(self.rows.decode())

    def solution_pair(self, vector) -> tuple[GroupRingElement, GroupRingElement]:
        """Reassemble (sigma, alpha) from a coordinate vector."""
        w = len(self.basis)
        return (_combination(self.algebra, self.basis, vector[:w]),
                _combination(self.algebra, self.basis, vector[w:]))


def _combination(algebra: GroupRing, elements, vector) -> GroupRingElement:
    """The element sum of vector[j] * elements[j]."""
    return algebra.element([(elements[j], int(vector[j])) for j in np.flatnonzero(vector)])


def _ore_pair(algebra: GroupRing) -> tuple[GroupRingElement, GroupRingElement]:
    """The elements 1 - a and 1 - x of the Ore equation."""
    group = algebra.group
    return (algebra.one - algebra.monomial(group.generator_a(0)),
            algebra.one - algebra.monomial(group.generator_x(1)))


def build_system(algebra: GroupRing, window: Window, cap: int = DEFAULT_CAP) -> OreSystem:
    """Set up the window-bounded equation (1 - a) sigma = (1 - x) alpha.

    One translate pass forms every g, a * g and x * g; their distinct codes
    are the rows.  Column j of the left block holds 1 at g_j and -1 at
    a * g_j, column j of the right block -1 at g_j and 1 at x * g_j.
    """
    p = algebra.ring.modulus
    dtype = field_dtype(p)      # refuses coefficients outside GF(p) before enumerating
    group = algebra.group
    coded = window.coded(group, cap)
    products = coded.left_translates([group.identity, group.generator_a(0),
                                      group.generator_x(1)])
    _, first, rows = np.unique(element_codes(products), return_index=True,
                               return_inverse=True)
    n = len(coded)
    check_matrix_cells(len(first), 2 * n)
    matrix = np.zeros((len(first), 2 * n), dtype=dtype)
    g, ag, xg = rows.reshape(3, n)
    left, right = np.arange(n), np.arange(n, 2 * n)
    matrix[g, left] = matrix[xg, right] = 1
    matrix[ag, left] = matrix[g, right] = p - 1
    return OreSystem(algebra, window, tuple(coded.decode()), products.take(first), matrix)


def nullspace(system: OreSystem) -> list[np.ndarray]:
    """Canonical kernel basis of the system (see linalg.nullspace_mod_p)."""
    return list(nullspace_mod_p(system.matrix, system.algebra.ring.modulus))


@lru_cache(maxsize=8)
def _coded_window(group: WreathGroup, window: Window, cap: int) -> CodedElements:
    """The window's elements, coded once for all searches and never decoded
    as a whole: a search decodes only its witness's elements.  Every
    sigma's matrix has a row per element at least, so a window whose n x n
    matrix is over the cell bound is refused before any product is formed.
    This also bounds a run's translate table: its factors lie in a smaller
    window, so it holds fewer than n x n codes."""
    coded = window.coded(group, cap)
    check_matrix_cells(len(coded), len(coded))
    coded.shifts.flags.writeable = coded.digits.flags.writeable = False   # shared
    return coded


# Width of the first column block of a translate table.  The searches of
# the benchmark windows read 4-11 columns in the median, and 164 at most
# at GF(2) window (3,3).  On the six benchmark searches 16 took the least
# CPU time of 4-128, with 8-64 within timing noise of it.
_FIRST_BLOCK = 16


def _orbit_key(sigma: GroupRingElement) -> tuple:
    """A key shared by sigma and every c * g * sigma, c a unit and g a group
    element: the least of the translates c_h^-1 * h^-1 * sigma over the
    terms c_h * h of least shift, each a sorted tuple of (shift, lamps,
    coefficient).  Equal keys mean sigma' = c * g * sigma.  Computed on lamp
    tuples: h^-1 * g has the lamps of g minus those of h and the shift of g
    minus that of h, all moved down by the shift of h, which every such h
    shares, so the terms are moved once.
    """
    p, d = sigma.ring.modulus, sigma.group.d
    low = min(h.shift for h in sigma.terms)
    moved = [(g.shift - low, [(pos - low, v) for pos, v in g.lamps], c)
             for g, c in sigma.terms.items()]
    keys = []
    for shift_h, lamps_h, c_h in moved:
        if shift_h:
            continue
        inverse = pow(c_h, -1, p)
        translate = []
        for shift, lamps, c in moved:
            if lamps_h:
                acc = dict(lamps)
                for pos, v in lamps_h:
                    if (w := (acc.get(pos, 0) - v) % d):
                        acc[pos] = w
                    else:
                        del acc[pos]
                lamps = sorted(acc.items())
            translate.append((shift, tuple(lamps), c * inverse % p))
        translate.sort()
        keys.append(tuple(translate))
    return min(keys)


class _TranslateTable:
    """The code of h * g_j for every left factor h and every element g_j of
    a search window, shared by the annihilator searches of one run.

    (c * g * sigma) * w = c * g * (sigma * w) for a unit c and a group
    element g, so the matrix of w -> c * g * sigma * w is that of sigma with
    its rows relabelled by g and its entries scaled by c: the same first
    dependent column with the same combination, the same witness.  The
    table keys each sigma by its left-translation orbit once
    (:func:`_orbit_key`); its factors are the terms of each orbit's normal
    form, the translate that names its key (so a sigma far from the window
    is searched as one near it), and each orbit is eliminated once, its
    witness kept for every member.

    Columns are built in blocks, only when a search reads past the built
    ones: the first block is ``_FIRST_BLOCK`` wide, each later one as wide
    as all before it, and no block's digits exceed
    ``CODED_PRODUCT_BYTES``.  The shift range is fixed from the factors and
    the window before the first block (the lamp positions already are:
    every block translates the same coded window by the same factors), so
    codes agree across blocks and serve directly as the rows of the
    elimination; codes of several int64 words become Python ints.  A
    table whose products would reach 2^60 or whose single column is over
    the byte bound is refused before anything is translated.
    """

    def __init__(self, group: WreathGroup, window: Window,
                 sigmas: Iterable[GroupRingElement], cap: int):
        self.window = window
        self.coded = _coded_window(group, window, cap)
        self.orbit: dict[frozenset, int] = {}       # terms of a sigma -> its orbit
        self.members: list[GroupRingElement] = []   # each orbit's normal form
        orbits: dict[tuple, int] = {}
        for sigma in sigmas:
            terms = frozenset(sigma.terms.items())
            if terms in self.orbit:
                continue
            key = _orbit_key(sigma)
            if key not in orbits:
                orbits[key] = len(self.members)
                self.members.append(sigma.algebra.element(
                    [(WreathElement(group, lamps, shift), c) for shift, lamps, c in key]))
            self.orbit[terms] = orbits[key]
        self.witnesses: dict[int, GroupRingElement | None] = {}
        self.factors = list(dict.fromkeys(h for sigma in self.members for h in sigma.terms))
        self.row = {h: k for k, h in enumerate(self.factors)}
        # two window elements at its extreme shifts and lamps span what all do
        corners = [group.element({-window.lamp_bound: 1}, -window.shift_bound),
                   group.element({window.lamp_bound: 1}, window.shift_bound)]
        width = coded_width(self.factors, corners)
        if width is None:
            raise LimitExceededError("a shift or lamp position of the annihilator "
                                     "search reaches 2^60")
        column = len(self.factors) * width * self.coded.digits.itemsize
        if column > CODED_PRODUCT_BYTES:
            raise LimitExceededError(f"one column of {len(self.factors)} products over {width} "
                                     f"lamp positions exceeds the bound of "
                                     f"{CODED_PRODUCT_BYTES} bytes")
        self.block_limit = CODED_PRODUCT_BYTES // max(column, 1)
        shifts = [h.shift for h in self.factors]
        self.shift_range = (min(shifts, default=0) - window.shift_bound,
                            max(shifts, default=0) + window.shift_bound)
        self.blocks: list[np.ndarray] = []      # len(factors) x block width
        self.built = 0

    def _grow(self) -> bool:
        """Build the next block of columns; False when all are built."""
        start = self.built
        if start == len(self.coded):
            return False
        self.built = min(len(self.coded), max(_FIRST_BLOCK, 2 * start),
                         start + self.block_limit)
        products = self.coded.take(slice(start, self.built)).left_translates(self.factors)
        codes = element_codes(products, self.shift_range)
        if codes.dtype.kind == "V":
            codes = np.array([int.from_bytes(c, "little") for c in codes.tolist()],
                             dtype=object)
        self.blocks.append(codes.reshape(len(self.factors), self.built - start))
        return True

    def columns(self, sigma: GroupRingElement):
        """Column j of the matrix of g -> sigma * g, as {code of h * g_j: c_h}."""
        rows = [self.row[h] for h in sigma.terms]
        coeffs = list(sigma.terms.values())
        k = 0
        while k < len(self.blocks) or self._grow():
            for column in self.blocks[k][rows].T.tolist():
                yield dict(zip(column, coeffs))
            k += 1

    def witness(self, sigma: GroupRingElement) -> GroupRingElement | None:
        """The witness of sigma's orbit, searched on its normal form's
        columns when the orbit is first asked for, then kept.  Only the
        window elements of the witness's columns are decoded."""
        orbit = self.orbit[frozenset(sigma.terms.items())]
        if orbit not in self.witnesses:
            member = self.members[orbit]
            first = first_dependency(self.columns(member), member.ring.modulus)
            cols = sorted(first or ())
            self.witnesses[orbit] = None if first is None else member.algebra.element(
                zip(self.coded.take(cols).decode(), [first[j] for j in cols]))
        return self.witnesses[orbit]


def annihilator_search(sigma: GroupRingElement, search_window: Window,
                       cap: int = DEFAULT_CAP,
                       table: _TranslateTable | None = None) -> GroupRingElement | None:
    """Any nonzero w supported in the window with sigma * w = 0, else None.

    None is inconclusive: it never certifies that sigma is a
    non-zerodivisor, only that no annihilator lives in this window.  The
    witness is the first vector of the canonical kernel basis of the
    matrix of g -> sigma * g (see linalg.first_dependency), found without
    building the matrix: its columns are read from a translate table of
    the window, ``table`` when a run shares one built for its sigmas, else
    one built for sigma alone.  Its rows are product codes, which the
    kernel does not depend on, and every c * g * sigma has the same
    witness, so a shared table searches each left-translation orbit once.
    Coefficients outside GF(p) (see linalg.field_dtype), a window whose
    n x n matrix is over the cell bound and products whose lamps or shifts
    a coded table cannot hold are refused before any product is formed.
    """
    if sigma.is_zero():
        raise ValueError("annihilator search needs a nonzero element")
    field_dtype(sigma.ring.modulus)
    if table is None:
        table = _TranslateTable(sigma.group, search_window, [sigma], cap)
    elif table.window != search_window:
        raise ValueError("the translate table belongs to another search window")
    return table.witness(sigma)


@dataclass(frozen=True)
class SolutionRecord:
    """One kernel basis solution with its verification flags."""

    sigma: GroupRingElement
    alpha: GroupRingElement
    in_base_ideal: bool
    annihilator: GroupRingElement | None

    def to_json(self) -> dict:
        return {"sigma": self.sigma.to_json(),
                "alpha": self.alpha.to_json(),
                "in_base_ideal": self.in_base_ideal,
                "annihilator": None if self.annihilator is None else self.annihilator.to_json()}


def check_solution(sigma: GroupRingElement, alpha: GroupRingElement,
                   search_window: Window, cap: int = DEFAULT_CAP,
                   table: _TranslateTable | None = None) -> SolutionRecord:
    """Flags for one solution: base-ideal membership and a zerodivisor
    witness, searched through ``table`` when given (see annihilator_search)."""
    in_ideal = sigma.in_base_augmentation_ideal()
    witness = None
    if not sigma.is_zero():
        witness = annihilator_search(sigma, search_window, cap, table=table)
    return SolutionRecord(sigma, alpha, in_ideal, witness)


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a window search: kernel basis plus per-solution verdicts.

    ``verdict`` is "consistent" when every solution lies in the base
    augmentation ideal slice (required only when d = p, where that claim
    holds) and every sigma received a nonzero right annihilator;
    otherwise "inconsistent".
    """

    d: int
    p: int
    window: Window
    extended_window_size: int
    nullspace_dim: int
    solutions: tuple[SolutionRecord, ...]
    verdict: str

    def to_json(self) -> dict:
        return {"d": self.d,
                "p": self.p,
                "window": self.window.to_json(),
                "extended_window_size": self.extended_window_size,
                "nullspace_dim": self.nullspace_dim,
                "solutions": [s.to_json() for s in self.solutions],
                "verdict": self.verdict}


def run_search(algebra: GroupRing, window: Window,
               annihilator_window: Window | None = None,
               cap: int = DEFAULT_CAP) -> SearchReport:
    """Full pipeline: system, kernel, re-substitution, per-solution checks.

    The annihilator window defaults to the search window widened by one
    lamp position.  Every reported solution is re-substituted into the
    defining equation with exact group-ring arithmetic before being
    trusted; a failure there would be an internal error, not a report.
    The searches share one translate table, which eliminates once per
    left-translation orbit of the sigmas; it lives for this call only.
    """
    p, d = algebra.ring.modulus, algebra.group.d
    if annihilator_window is None:
        annihilator_window = window.widened(lamps=1)
    system = build_system(algebra, window, cap)
    # The kernel always holds sigma = 1 + a + ... + a^(d-1), so a search
    # window that every search would refuse is refused before eliminating.
    _coded_window(algebra.group, annihilator_window, cap)
    vectors = nullspace(system)
    one_minus_a, one_minus_x = _ore_pair(algebra)
    pairs = [system.solution_pair(vec) for vec in vectors]
    for sigma, alpha in pairs:
        if one_minus_a * sigma != one_minus_x * alpha:
            raise LamplighterError("kernel vector fails exact re-substitution")
    table = _TranslateTable(algebra.group, annihilator_window,
                            [sigma for sigma, _ in pairs if sigma], cap)
    records = [check_solution(sigma, alpha, annihilator_window, cap, table)
               for sigma, alpha in pairs]
    ok = all((d != p or rec.in_base_ideal) for rec in records) and \
        all(rec.sigma.is_zero() or rec.annihilator is not None for rec in records)
    verdict = "consistent" if ok else "inconsistent"
    return SearchReport(d, p, window, len(system.rows), len(vectors),
                        tuple(records), verdict)
