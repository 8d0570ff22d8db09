"""Exact linear algebra over prime fields GF(p).

Reduced row echelon form and the standard kernel basis built from its
free columns.  The RREF of a matrix is unique (it depends only on the
row space), so the kernel basis returned here is canonical: independent
of row order, duplicated rows, or any internal chunking.

One elimination serves every p: a one-pass sparse insertion of the
columns, in Python ints, reporting each column as independent of the
ones before it or as its unique combination of them.  :func:`rref_mod_p`
runs it over every column; :func:`first_dependency` stops at the first
combination, the first kernel vector, and never builds the matrix.
:func:`field_dtype` is the package's one GF(p) guard: the elimination
calls it before reading a column, and everything that builds a matrix for
it before enumerating or allocating anything.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

import numpy as np

from .errors import UnsupportedRingError
from .ring import is_prime


MAX_PRIME = 3_037_000_500      # the largest p with (p - 1)^2 + p <= 2^63 - 1


def working_dtype(p: int):
    """The storage dtype of the dense matrices that ``build_system`` and
    ``left_mul_matrix`` fill: int16 when it holds (p - 1)^2 + p, else int64;
    p past ``MAX_PRIME`` is refused."""
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


def _eliminate(columns: Iterable[Mapping[int, int]], p: int) -> Iterator[dict[int, int] | None]:
    """Per column (a map row -> entry): None if it is independent of the
    columns before it, else its one combination of them as a kernel vector
    {column: entry}, with entry 1 at itself.  The columns go into a sparse
    echelon basis of Python ints keyed by each vector's largest row,
    normalised to 1; each carries its column combination under the keys
    ~j < 0, below every row.  p is checked before the first column is read.
    """
    field_dtype(p)
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
                yield None
                break
            factor = vector[top]
            for k, c in pivot.items():
                c = (vector.get(k, 0) - factor * c) % p
                if c:
                    vector[k] = c
                else:
                    del vector[k]
        else:
            yield {~k: c for k, c in vector.items()}


def rref_mod_p(matrix: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (R, pivot_columns) where R holds only the nonzero rows.  The
    pivot columns are the independent ones of the elimination pass, and a
    dependent column f with kernel vector v has R[i, f] = -v[pivots[i]].
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError("need a 2-d matrix")
    columns: list[dict[int, int]] = [{} for _ in range(a.shape[1])]
    cols, rows = np.nonzero(a.T)
    for j, i, c in zip(cols.tolist(), rows.tolist(), a.T[cols, rows].tolist()):
        columns[j][i] = c
    dependent = {f: v for f, v in enumerate(_eliminate(columns, p)) if v is not None}
    pivots = [f for f in range(len(columns)) if f not in dependent]
    row_of = {j: i for i, j in enumerate(pivots)}
    r = np.zeros((len(pivots), len(columns)), dtype=np.int64)
    r[np.arange(len(pivots)), pivots] = 1
    for f, vector in dependent.items():
        del vector[f]
        r[[row_of[j] for j in vector], f] = [-c % p for c in vector.values()]
    return r, pivots


def nullspace_mod_p(matrix: np.ndarray, p: int) -> np.ndarray:
    """Canonical kernel basis of ``matrix`` over GF(p), one row per vector.

    One basis vector per free (non-pivot) column f, ordered by f: entry f
    is 1 and each pivot column j of row i carries -R[i, f].  Empty basis
    for an injective matrix.
    """
    r, pivots = rref_mod_p(matrix, p)
    free = sorted(set(range(r.shape[1])).difference(pivots))
    basis = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -r[:, free].T % p
    return basis


def first_dependency(columns: Iterable[Mapping[int, int]], p: int) -> dict[int, int] | None:
    """The first kernel vector of a matrix given column by column (each a
    map row -> entry), as {column: entry}, or None for independent columns.

    The elimination pass of :func:`rref_mod_p` stops at the first dependent
    column, so later columns are never read; its vector is
    ``nullspace_mod_p(matrix, p)[0]``.
    """
    return next((v for v in _eliminate(columns, p) if v is not None), None)


def matrix_rank_mod_p(matrix: np.ndarray, p: int) -> int:
    return len(rref_mod_p(matrix, p)[1])
