"""Exact linear algebra over prime fields GF(p).

Reduced row echelon form with leftmost-pivot elimination and the
standard kernel basis built from its free columns.  The RREF of a matrix
is unique (it depends only on the row space), so the kernel basis
returned here is canonical: independent of row order, duplicated rows,
or any internal chunking.

Matrices are numpy integer arrays holding canonical representatives in
[0, p); one elimination loop serves every p.  :func:`field_dtype` is the
package's one GF(p) guard: everything that eliminates, and everything
that builds a matrix for it, calls it before enumerating or allocating
anything.  The first kernel vector
alone comes from a one-pass sparse elimination of the columns
(:func:`first_dependency`), which never builds the matrix.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from .errors import UnsupportedRingError
from .ring import is_prime


MAX_PRIME = 3_037_000_500      # the largest p with (p - 1)^2 + p <= 2^63 - 1


def working_dtype(p: int):
    """int16 when it holds entry - entry * entry for entries in [0, p), else
    int64; refused past ``MAX_PRIME``, where int64 would overflow."""
    if p > MAX_PRIME:
        raise UnsupportedRingError(f"elimination over GF({p}) would overflow int64; "
                                   f"the modulus must be at most {MAX_PRIME}")
    return np.int16 if (p - 1) * (p - 1) + p <= np.iinfo(np.int16).max else np.int64


def field_dtype(p: int):
    """``working_dtype(p)`` for a prime p, the package's one check that
    coefficients form a GF(p) this module can eliminate over: the int64
    bound is checked first, so a huge p is refused before the primality
    test.  The integers (p = 0) and composite moduli are refused too."""
    dtype = working_dtype(p)
    if not is_prime(p):
        raise UnsupportedRingError(f"linear algebra needs a prime modulus, got {p}")
    return dtype


def rref_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (R, pivot_columns) where R holds only the nonzero rows.
    """
    dtype = field_dtype(p)
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("need a 2-d matrix")
    if a.size == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64), []
    r = np.asarray(a % p, dtype=dtype)
    m, n = r.shape
    row = 0
    pivots: list[int] = []
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pivot = row + int(nz[0])
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        inv = pow(int(r[row, col]), p - 2, p)
        if inv != 1:
            r[row, col:] = (r[row, col:] * inv) % p
        hits = np.nonzero(r[:, col])[0]
        hits = hits[hits != row]
        if hits.size:
            r[hits, col:] = (r[hits, col:] - r[hits, col, None] * r[row, col:]) % p
        pivots.append(col)
        row += 1
    return r[:row].astype(np.int64), pivots


def nullspace_mod_p(matrix: np.ndarray, p: int) -> np.ndarray:
    """Canonical kernel basis of ``matrix`` over GF(p), one row per vector.

    One basis vector per free (non-pivot) column f, ordered by f: entry f
    is 1 and each pivot column j of row i carries -R[i, f].  Empty basis
    for an injective matrix.
    """
    r, pivots = rref_mod_p(matrix, p)
    n = np.asarray(matrix).shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    basis = np.zeros((len(free), n), dtype=np.int64)
    if free:
        basis[np.arange(len(free)), free] = 1
        if pivots:
            basis[:, pivots] = (-r[:, free].T) % p
    return basis


def first_dependency(columns: Iterable[Mapping[int, int]], p: int) -> dict[int, int] | None:
    """The first kernel vector of a matrix given column by column (each a
    map row -> entry), as {column: entry}, or None for independent columns.

    One pass inserts the columns into a sparse echelon basis keyed by each
    vector's largest row, normalised to 1; each vector carries its column
    combination under the keys ~j < 0, below every row.  The first column f
    that reduces to zero is a combination of the independent columns before
    it in exactly one way, so its combination, with entry 1 at f, is
    ``nullspace_mod_p(matrix, p)[0]`` whatever the order.  Later columns are
    never read.
    """
    field_dtype(p)       # the refusals of rref_mod_p
    basis: dict[int, dict[int, int]] = {}
    for j, column in enumerate(columns):
        vector = {r: c % p for r, c in column.items() if c % p}
        vector[~j] = 1
        while (top := max(vector)) >= 0:
            pivot = basis.get(top)
            if pivot is None:
                inverse = pow(vector[top], p - 2, p)
                basis[top] = vector if inverse == 1 else \
                    {k: c * inverse % p for k, c in vector.items()}
                break
            factor = vector[top]
            for k, c in pivot.items():
                c = (vector.get(k, 0) - factor * c) % p
                if c:
                    vector[k] = c
                else:
                    del vector[k]
        else:
            return {~k: c for k, c in vector.items()}
    return None


def matrix_rank_mod_p(matrix: np.ndarray, p: int) -> int:
    return len(rref_mod_p(matrix, p)[1])
