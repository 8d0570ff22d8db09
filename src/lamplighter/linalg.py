"""Dense exact linear algebra over prime fields GF(p).

Reduced row echelon form with leftmost-pivot elimination and the
standard kernel basis built from its free columns.  The RREF of a matrix
is unique (it depends only on the row space), so the kernel basis
returned here is canonical: independent of row order, duplicated rows,
or any internal chunking.

Matrices are numpy integer arrays holding canonical representatives in
[0, p).  For p = 2 a packed-bitset elimination path keeps the large
window searches fast; it produces the same unique RREF.
"""

from __future__ import annotations

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


def rref_mod_p(matrix: np.ndarray, p: int,
               stop_at_free: bool = False) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (R, pivot_columns) where R holds only the nonzero rows.  With
    ``stop_at_free`` elimination stops at the first column without a
    pivot: the pivots are then exactly the columns before it, and R holds
    their rows, fully reduced up to and including that column.
    """
    dtype = working_dtype(p)      # refuses a huge p before the primality test
    if not is_prime(p):
        raise UnsupportedRingError(f"linear algebra needs a prime modulus, got {p}")
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("need a 2-d matrix")
    if a.size == 0:
        return np.zeros((0, a.shape[1]), dtype=np.int64), []
    if p == 2:
        return _rref_gf2(a, stop_at_free)
    r = np.asarray(a % p, dtype=dtype)
    m, n = r.shape
    row = 0
    pivots: list[int] = []
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            if stop_at_free:
                break
            continue
        pivot = row + int(nz[0])
        if pivot != row:
            r[[row, pivot]] = r[[pivot, row]]
        inv = pow(int(r[row, col]), p - 2, p)
        if inv != 1:
            r[row] = (r[row] * inv) % p
        hits = np.nonzero(r[:, col])[0]
        hits = hits[hits != row]
        if hits.size:
            r[hits] = (r[hits] - r[hits, col, None] * r[row]) % p
        pivots.append(col)
        row += 1
    return r[:row].astype(np.int64), pivots


def _rref_gf2(a: np.ndarray, stop_at_free: bool) -> tuple[np.ndarray, list[int]]:
    """GF(2) elimination on rows packed into uint64 words."""
    m, n = a.shape
    packed = np.packbits((a % 2).astype(np.uint8), axis=1)
    words = np.zeros((m, (n + 63) // 64 * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    rows = words.view(np.uint64)
    row = 0
    pivots: list[int] = []
    for col in range(n):
        if row == m:
            break
        # packbits is big-endian within each byte.
        byte_index = col // 8
        byte_bit = np.uint8(0x80 >> (col % 8))
        column = words[:, byte_index] & byte_bit
        nz = np.nonzero(column[row:])[0]
        if nz.size == 0:
            if stop_at_free:
                break
            continue
        pivot = row + int(nz[0])
        if pivot != row:
            rows[[row, pivot]] = rows[[pivot, row]]
            column[[row, pivot]] = column[[pivot, row]]
        hits = np.nonzero(column)[0]
        hits = hits[hits != row]
        if hits.size:
            rows[hits] ^= rows[row]
        pivots.append(col)
        row += 1
    unpacked = np.unpackbits(words[:row].view(np.uint8), axis=1)[:, :n]
    return unpacked.astype(np.int64), pivots


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


def first_kernel_vector(matrix: np.ndarray, p: int) -> np.ndarray | None:
    """``nullspace_mod_p(matrix, p)[0]``, or None for an injective matrix.

    That vector belongs to the first free column f and reads only R[:, f]
    of the pivot rows left of f.  An RREF prefix is the RREF of the column
    prefix, so elimination runs on column prefixes of growing width and
    stops at f.
    """
    a = np.asarray(matrix)
    n = a.shape[1]
    width = min(n, 32)
    while True:
        r, pivots = rref_mod_p(a[:, :width], p, stop_at_free=True)
        free = len(pivots)      # every column before the first free one has a pivot
        if free < width:
            break
        if width == n:
            return None
        width = min(4 * width, n)
    vector = np.zeros(n, dtype=np.int64)
    vector[free] = 1
    vector[:free] = (-r[:free, free]) % p
    return vector


def matrix_rank_mod_p(matrix: np.ndarray, p: int) -> int:
    return len(rref_mod_p(matrix, p)[1])
