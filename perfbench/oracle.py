"""Independent checks of the program's outputs.

Nothing here imports the program.  Elements are dicts
``{(shift, lamps): coeff}`` with ``lamps`` a sorted tuple of
``(position, value)`` pairs, values in 1..d-1, and coefficients canonical
in Z (modulus 0) or Z/m.  Products are computed by ``product``, a numpy
convolution over dense lamp arrays that shares no code with the
program's ``GroupRingElement.__mul__``.

The checks recompute every claim from the op's inputs and never read a
``verified`` flag back:

* certify: u and gamma rebuilt from z and N, gamma != 0, u * gamma = 0,
  and the stored product is that zero;
* ore-search: each (sigma, alpha) re-substitutes, ``in_base_ideal`` and
  the verdict are recomputed, every annihilator w is nonzero with
  sigma * w = 0, and the kernel basis, its dimension, the exit code and
  the verdict match the values recorded for the case;
* annihilate: beta != 0 and beta * alpha = 0 for every input alpha;
* fox-boundary: both boundary maps recomputed by Fox calculus on the
  relator words, and the composite is zero.

Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import functools
import hashlib
import json
from itertools import product as cartesian_product

import numpy as np


def _canon(c: int, m: int) -> int:
    return c % m if m else c


def element(items, d: int, m: int) -> dict:
    """An element from ``(coeff, lamps, shift)`` items; repeats add up."""
    acc: dict = {}
    for c, lamps, shift in items:
        key = (int(shift), tuple(sorted((int(p), int(v) % d) for p, v in lamps
                                        if int(v) % d)))
        acc[key] = acc.get(key, 0) + int(c)
    return {k: _canon(c, m) for k, c in acc.items() if _canon(c, m)}


def from_json(data, d: int, m: int) -> dict:
    """An element from the program's JSON term records."""
    return element(((t["coeff"], t["lamps"], t["shift"]) for t in data), d, m)


def add(a: dict, b: dict, m: int, sign: int = 1) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = _canon(out.get(k, 0) + sign * c, m)
    return {k: c for k, c in out.items() if c}


def _dense(x: dict):
    keys = list(x)
    positions = [p for _, lamps in keys for p, _ in lamps]
    lo = min(positions, default=0)
    width = max(positions, default=0) - lo + 1
    lamps = np.zeros((len(keys), width), dtype=np.int64)
    for i, (_, ls) in enumerate(keys):
        for p, v in ls:
            lamps[i, p - lo] = v
    shifts = np.array([s for s, _ in keys], dtype=np.int64)
    coeffs = np.array([x[k] for k in keys], dtype=np.int64)
    return shifts, lamps, lo, coeffs


def product(a: dict, b: dict, d: int, m: int) -> dict:
    """The group-ring product a * b."""
    return product_sum([(a, b)], d, m)


def product_sum(pairs, d: int, m: int) -> dict:
    """The sum of the group-ring products a * b over ``pairs``.

    (b1, n1) * (b2, n2) = (b1 + b2 shifted up by n1, n1 + n2).  Term pairs
    are formed per distinct shift of the left factor by broadcasting;
    each product is coded as one integer (shift, then lamps as base-d
    digits) and equal codes are merged with ``np.unique``.
    """
    dense = []
    for a, b in pairs:
        if not a or not b:
            continue
        bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
        if bound * len(pairs) >= 1 << 62:
            raise OverflowError("coefficients too large for the int64 oracle")
        dense.append((_dense(a), _dense(b)))
    if not dense:
        return {}
    lo = min(min(lo_a, lo_b + int(sa.min()))
             for (sa, _, lo_a, _), (_, _, lo_b, _) in dense)
    hi = max(max(lo_a + la.shape[1], lo_b + lb.shape[1] + int(sa.max()))
             for (sa, la, lo_a, _), (_, lb, lo_b, _) in dense)
    s_lo = min(int(sa.min() + sb.min()) for (sa, *_), (sb, *_) in dense)
    s_span = max(int(sa.max() + sb.max()) for (sa, *_), (sb, *_) in dense) - s_lo + 1
    width = hi - lo
    if s_span * d ** width >= 1 << 62:
        raise OverflowError("support too wide for the int64 oracle")
    digits = d ** np.arange(width, dtype=np.int64)
    codes, coeffs = [], []
    for (sa, la, lo_a, ca), (sb, lb, lo_b, cb) in dense:
        for s in np.unique(sa):
            rows = np.nonzero(sa == s)[0]
            off = lo_b + int(s) - lo
            left = np.zeros((len(rows), width), dtype=np.int64)
            left[:, lo_a - lo:lo_a - lo + la.shape[1]] = la[rows]
            right = np.zeros((len(sb), width), dtype=np.int64)
            right[:, off:off + lb.shape[1]] = lb
            lamps = (left[:, None, :] + right[None, :, :]) % d
            code = lamps @ digits + (s + sb - s_lo)[None, :] * d ** width
            codes.append(code.reshape(-1))
            coeffs.append(np.outer(ca[rows], cb).reshape(-1))
    uniq, inverse = np.unique(np.concatenate(codes), return_inverse=True)
    acc = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(acc, inverse.reshape(-1), np.concatenate(coeffs))
    if m:
        acc %= m
    keep = acc != 0
    uniq, acc = uniq[keep], acc[keep]
    shifts = uniq // d ** width + s_lo
    lamps = (uniq[:, None] // digits[None, :]) % d
    out = {}
    for shift, row, c in zip(shifts.tolist(), lamps.tolist(), acc.tolist()):
        out[(shift, tuple((lo + j, v) for j, v in enumerate(row) if v))] = c
    return out


def _monomial(m: int, shift: int = 0, lamps=(), coeff: int = 1) -> dict:
    return {(shift, tuple(lamps)): _canon(coeff, m)} if _canon(coeff, m) else {}


def _base_slices_vanish(x: dict, m: int) -> bool:
    sums: dict[int, int] = {}
    for (shift, _), c in x.items():
        sums[shift] = sums.get(shift, 0) + c
    return all(_canon(c, m) == 0 for c in sums.values())


# --- certify -------------------------------------------------------------

def certificate_u(z: list, d: int, m: int) -> dict:
    """u = z_0 (1 + a + ... + a^(d-1)) + sum_n z_n (a x^n - x^n - a[n] + 1)."""
    geometric = {}
    for k in range(d):
        geometric = add(geometric, _monomial(m, 0, ((0, k),) if k else ()), m)
    u = product(element(z[0], d, m), geometric, d, m)
    for n in range(1, len(z)):
        factor = add(add(_monomial(m, n, ((0, 1),)), _monomial(m, n), m, -1),
                     add(_monomial(m, 0, ((n, 1),)), _monomial(m), m, -1), m, -1)
        u = add(u, product(element(z[n], d, m), factor, d, m), m)
    return u


def certificate_gamma(depth: int, d: int, m: int) -> dict:
    """gamma = (1 - a) * (sum of the lamp configurations on 1 <= |n| <= N)."""
    positions = [n for n in range(-depth, depth + 1) if n]
    subgroup = {}
    for values in cartesian_product(range(d), repeat=len(positions)):
        subgroup[(0, tuple((p, v) for p, v in zip(positions, values) if v))] = _canon(1, m)
    one_minus_a = add(_monomial(m), _monomial(m, 0, ((0, 1),)), m, -1)
    return product(one_minus_a, subgroup, d, m)


def check_certify(op: dict, rc: int, data: dict) -> list[str]:
    d, m = op["d"], op["k"]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    u = from_json(data["u"], d, m)
    gamma = from_json(data["gamma"], d, m)
    if u != certificate_u(op["z"], d, m):
        problems.append("u is not the element built from z")
    if gamma != certificate_gamma(len(op["z"]) - 1, d, m):
        problems.append("gamma is not the lamp-subgroup annihilator of depth N")
    if not gamma:
        problems.append("gamma is zero")
    if product(u, gamma, d, m):
        problems.append("u * gamma != 0")
    if from_json(data["product"], d, m):
        problems.append("stored product is nonzero")
    return problems


# --- ore-search ----------------------------------------------------------

def basis_digest(solutions: list) -> str:
    """sha256 of the canonical (sigma, alpha) kernel basis."""
    basis = [[s["sigma"], s["alpha"]] for s in solutions]
    text = json.dumps(basis, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_ore(op: dict, rc: int, data: dict, expected: dict) -> list[str]:
    d, p = op["d"], op["k"]
    want = expected[op["case"]]
    problems = []
    solutions = data["solutions"]
    for key, got in (("exit_code", rc), ("verdict", data["verdict"]),
                     ("nullspace_dim", data["nullspace_dim"]),
                     ("basis_sha256", basis_digest(solutions))):
        if got != want[key]:
            problems.append(f"{key} is {got!r}, recorded {want[key]!r}")
    if len(solutions) != data["nullspace_dim"]:
        problems.append("solution count differs from nullspace_dim")
    one_minus_a = add(_monomial(p), _monomial(p, 0, ((0, 1),)), p, -1)
    one_minus_x = add(_monomial(p), _monomial(p, 1), p, -1)
    consistent = True
    for i, s in enumerate(solutions):
        sigma = from_json(s["sigma"], d, p)
        alpha = from_json(s["alpha"], d, p)
        if product(one_minus_a, sigma, d, p) != product(one_minus_x, alpha, d, p):
            problems.append(f"solution {i}: (1-a) sigma != (1-x) alpha")
        in_ideal = _base_slices_vanish(sigma, p)
        if s["in_base_ideal"] != in_ideal:
            problems.append(f"solution {i}: in_base_ideal should be {in_ideal}")
        if s["annihilator"] is not None:
            w = from_json(s["annihilator"], d, p)
            if not w:
                problems.append(f"solution {i}: annihilator is zero")
            elif product(sigma, w, d, p):
                problems.append(f"solution {i}: sigma * w != 0")
        consistent &= (d != p or in_ideal) and (not sigma or s["annihilator"] is not None)
    if data["verdict"] != ("consistent" if consistent else "inconsistent"):
        problems.append("verdict does not follow from the solutions")
    return problems


# --- annihilate ----------------------------------------------------------

def check_annihilate(op: dict, rc: int, data: dict) -> list[str]:
    d, m = op["d"], op["k"]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    beta = from_json(data["beta"], d, m)
    if not beta:
        problems.append("beta is zero")
    for i, terms in enumerate(op["alphas"]):
        if product(beta, element(terms, d, m), d, m):
            problems.append(f"beta * alpha_{i} != 0")
    return problems


# --- fox-boundary --------------------------------------------------------

def _relator_letters(d: int, l: int) -> list[tuple[str, int]]:
    """r_0 = a^d and r_l = a (x^l a x^-l) a^-1 (x^l a^-1 x^-l)."""
    if l == 0:
        return [("a", 1)] * d
    xs, xi = [("x", 1)] * l, [("x", -1)] * l
    return [("a", 1)] + xs + [("a", 1)] + xi + [("a", -1)] + xs + [("a", -1)] + xi


def _letter(sym: str, exp: int, d: int):
    return (0, {0: exp % d}) if sym == "a" else (exp, {})


def _group_mul(g, h, d: int):
    (s, lamps), (t, other) = g, h
    out = dict(lamps)
    for p, v in other.items():
        out[p + s] = (out.get(p + s, 0) + v) % d
    return s + t, {p: v for p, v in out.items() if v}


@functools.lru_cache(maxsize=None)
def fox_derivative(d: int, l: int, sym: str, m: int) -> dict:
    """d(r_l)/d(sym): +prefix for sym, -prefix * sym^-1 for sym^-1."""
    prefix = (0, {})
    acc = {}
    for s, e in _relator_letters(d, l):
        if s == sym:
            g = prefix if e == 1 else _group_mul(prefix, _letter(s, -1, d), d)
            acc = add(acc, _monomial(m, g[0], sorted(g[1].items()), e), m)
        prefix = _group_mul(prefix, _letter(s, e, d), d)
    return acc


def check_fox(op: dict, result: dict) -> list[str]:
    d, m = op["d"], op["k"]
    image = {sym: product_sum([(element(terms, d, m), fox_derivative(d, l, sym, m))
                               for l, terms in op["terms"]], d, m)
             for sym in ("a", "x")}
    problems = []
    components = result["image"]["components"]
    for sym in ("a", "x"):
        if from_json(components.get(sym, []), d, m) != image[sym]:
            problems.append(f"boundary component {sym} differs from the Fox calculus")
    generators = {"a": _monomial(m, 0, ((0, 1),)), "x": _monomial(m, 1)}
    if product_sum([(image[sym], add(gen, _monomial(m), m, -1))
                    for sym, gen in generators.items()], d, m):
        problems.append("recomputed composite boundary is nonzero")
    if from_json(result["dd"], d, m):
        problems.append("composite boundary is nonzero")
    return problems
