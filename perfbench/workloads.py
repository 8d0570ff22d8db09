"""Seeded input generators for the benchmark workloads.

Every workload is a closed loop with one client.  Its inputs come in
*blocks*: one block holds each op class of the workload a fixed number of
times, in an order and with entries drawn from ``random.Random``.  A run
executes whole blocks only, so every run, whatever its seed, has the same
mix of op sizes.  That keeps ops/s and the latency percentiles steady
across seeds; the seed varies the entries and the order.

An op is a plain dict.  ``argv`` (CLI workloads) or ``relators``
(fox-boundary) is all the program receives; the structured fields beside
it are what the independent checks in ``oracle.py`` recompute from.

Terms are ``[coeff, [[pos, val], ...], shift]``: the group element
a[pos]^val ... * x^shift with lamps sorted by position and values in
1..d-1.  Only the standard library is used, so generating inputs imports
neither numpy nor the program.
"""

from __future__ import annotations

import random

WORKLOADS = ("certify", "ore-search", "annihilate", "fox-boundary")

# (modulus, d, window lamps, window shift).  The ore-search block is this
# list shuffled: no case repeats, so caching results cannot help.
ORE_CASES = ((2, 2, 1, 1), (2, 2, 2, 1), (2, 2, 2, 2), (2, 2, 1, 4),
             (3, 3, 1, 1), (3, 2, 2, 1))

# certify: (d, N, number of ops) per block, each op on a random ring.
# Sizes run from milliseconds (N = 0) to about 0.5 s (d = 3, N = 3); the
# counts put the median inside the d = 2, N = 2 class and the 90th
# percentile inside the d = 2, N = 4 class, away from a jump between
# classes, so neither percentile flips between classes from seed to seed.
CERTIFY_RINGS = (0, 4, 2, 3)
CERTIFY_CLASSES = ((2, 0, 4), (3, 0, 4), (2, 1, 4), (3, 1, 4), (2, 2, 8),
                   (3, 2, 4), (2, 3, 4), (2, 4, 4), (3, 3, 2))

# annihilate: ((modulus, d), elements, rank of the lamp span, ops) per
# block.  The closure has d^rank members, so rank sets the op size.  By
# size the block has 11 light ops (about 5 ms), 8 mid ops (about 12 ms)
# that hold the median, 6 rank-4 GF(3) ops, 4 rank-5 GF(3) ops that hold
# the 90th percentile, and one rare large closure of rank 7.
ANNIHILATE_CLASSES = (
    ((2, 2), 1, 2, 3), ((0, 2), 1, 2, 3), ((3, 3), 1, 2, 2), ((2, 2), 2, 3, 1),
    ((0, 2), 2, 3, 2),
    ((0, 2), 3, 4, 1), ((2, 2), 3, 4, 1), ((3, 3), 2, 3, 4), ((0, 2), 2, 5, 1),
    ((2, 2), 2, 5, 1),
    ((3, 3), 3, 4, 6),
    ((3, 3), 2, 5, 4),
    ((3, 3), 3, 7, 1))
ANNIHILATE_POSITIONS = tuple(range(-4, 5))

# fox-boundary: (modulus, d) rings and relator-vector lengths.
FOX_RINGS = ((0, 2), (2, 2), (3, 3), (0, 3))
FOX_COMPONENTS = (2, 3)
FOX_MAX_INDEX = 8


def element_text(terms) -> str:
    """Render terms in the program's group-ring grammar."""
    parts = []
    for coeff, lamps, shift in terms:
        atoms = [f"a[{p}]" + (f"^{v}" if v != 1 else "") for p, v in lamps]
        if shift:
            atoms.append("x" if shift == 1 else f"x^{shift}")
        g = "*".join(atoms) or "e"
        mag = abs(coeff)
        text = g if mag == 1 else f"{mag}*{g}"
        if parts:
            parts.append(("- " if coeff < 0 else "+ ") + text)
        else:
            parts.append(("-" if coeff < 0 else "") + text)
    return " ".join(parts)


def _coeff(rng: random.Random, modulus: int, bound: int = 3) -> int:
    """A coefficient in [-bound, bound] that is nonzero in the ring."""
    while True:
        c = rng.randint(-bound, bound)
        if c % modulus if modulus else c:
            return c


def _config(rng: random.Random, d: int, positions) -> list:
    """A lamp configuration with a random value at each position."""
    return [[p, v] for p in positions for v in (rng.randrange(d),) if v]


def _random_terms(rng: random.Random, modulus: int, d: int, count: int = 3,
                  bound: int = 2) -> list:
    """``count`` terms on distinct group elements, lamps and shifts in
    [-bound, bound]."""
    positions = range(-bound, bound + 1)
    seen = set()
    terms = []
    while len(terms) < count:
        lamps = _config(rng, d, positions)
        shift = rng.randint(-bound, bound)
        key = (tuple(map(tuple, lamps)), shift)
        if key not in seen:
            seen.add(key)
            terms.append([_coeff(rng, modulus), lamps, shift])
    return terms


def _certify_op(rng, modulus, d, depth):
    z = [_random_terms(rng, modulus, d) for _ in range(depth + 1)]
    argv = ["certify", "--z=" + ";".join(element_text(t) for t in z),
            "--d", str(d), "--mod", str(modulus), "--format", "json"]
    return {"workload": "certify", "argv": argv, "d": d, "k": modulus, "z": z}


def _ore_op(modulus, d, lamps, shift):
    argv = ["ore-search", "--d", str(d), "--mod", str(modulus),
            "--window-lamps", str(lamps), "--window-shift", str(shift),
            "--format", "json"]
    return {"workload": "ore-search", "argv": argv, "case": f"k{modulus}-d{d}-w{lamps}.{shift}",
            "d": d, "k": modulus}


def _independent(rng, d, rank):
    """``rank`` lamp configurations on ANNIHILATE_POSITIONS that are
    linearly independent over GF(d) (d is prime here)."""
    n = len(ANNIHILATE_POSITIONS)
    rows: list[list[int]] = []     # echelon form of the chosen vectors
    pivots: list[int] = []
    out = []
    while len(out) < rank:
        vec = [rng.randrange(d) for _ in range(n)]
        red = vec[:]
        for row, col in zip(rows, pivots):
            f = red[col]
            if f:
                red = [(x - f * y) % d for x, y in zip(red, row)]
        col = next((i for i, x in enumerate(red) if x), None)
        if col is None:
            continue
        inv = pow(red[col], d - 2, d)
        rows.append([(x * inv) % d for x in red])
        pivots.append(col)
        out.append(vec)
    return out


def _annihilate_op(rng, modulus, d, elements, rank):
    """``elements`` base-ideal elements whose lamp configurations span a
    subgroup of rank exactly ``rank``.

    Each element has two shift slices of ``per_slice`` terms with zero
    coefficient sum.  The number of distinct configurations depends only
    on the class, so the closure sees the same number of generators on
    every seed.
    """
    basis = _independent(rng, d, rank)
    slots = 2 * elements
    per_slice = max(3, -(-rank // slots))
    if modulus == 2 and per_slice % 2:
        per_slice += 1      # an odd number of units never sums to 0 mod 2
    # The basis vectors are drawn first, so the span is the whole rank;
    # the rest are random combinations of them.  Slices take consecutive
    # configurations, cycling when the span is smaller than the terms.
    configs = [tuple(v) for v in basis]
    seen = set(configs)
    while len(configs) < min(slots * per_slice, d ** rank):
        weights = [rng.randrange(d) for _ in basis]
        config = tuple(sum(w * v[i] for w, v in zip(weights, basis)) % d
                       for i in range(len(ANNIHILATE_POSITIONS)))
        if config not in seen:
            seen.add(config)
            configs.append(config)
    rng.shuffle(configs)
    out = []
    for e in range(elements):
        terms = []
        for s, shift in enumerate(rng.sample(range(-2, 3), 2)):
            while True:     # a zero-sum slice with every coefficient nonzero
                coeffs = [_coeff(rng, modulus) for _ in range(per_slice - 1)]
                last = -sum(coeffs)
                if last % modulus if modulus else last:
                    break
            coeffs.append(last)
            start = (2 * e + s) * per_slice
            for t, c in enumerate(coeffs, start):
                config = configs[t % len(configs)]
                lamps = [[p, v] for p, v in zip(ANNIHILATE_POSITIONS, config) if v]
                terms.append([c, lamps, shift])
        out.append(terms)
    argv = ["annihilate", "--d", str(d), "--mod", str(modulus), "--format", "json",
            "--"] + [element_text(t) for t in out]
    return {"workload": "annihilate", "argv": argv, "d": d, "k": modulus,
            "alphas": out, "rank": rank}


def _fox_op(rng, modulus, d, components):
    indices = sorted(rng.sample(range(FOX_MAX_INDEX + 1), components))
    relators = {l: _random_terms(rng, modulus, d) for l in indices}
    return {"workload": "fox-boundary", "d": d, "k": modulus,
            "relators": [[l, element_text(t)] for l, t in relators.items()],
            "terms": [[l, t] for l, t in relators.items()]}


def block(workload: str, seed: int, index: int) -> list[dict]:
    """The ``index``-th block of ops of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "ore-search":
        ops = [_ore_op(*case) for case in ORE_CASES]
    elif workload == "certify":
        ops = [_certify_op(rng, rng.choice(CERTIFY_RINGS), d, n)
               for d, n, count in CERTIFY_CLASSES for _ in range(count)]
    elif workload == "annihilate":
        ops = [_annihilate_op(rng, k, d, e, r)
               for (k, d), e, r, count in ANNIHILATE_CLASSES for _ in range(count)]
    else:
        ops = [_fox_op(rng, k, d, c)
               for k, d in FOX_RINGS for c in FOX_COMPONENTS for _ in range(2)]
    rng.shuffle(ops)
    return ops
