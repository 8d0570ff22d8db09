import random

import numpy as np
import pytest

from conftest import time_limit
from lamplighter.errors import UnsupportedRingError
from lamplighter.groupring import GroupRing, left_mul_matrix
from lamplighter.linalg import (MAX_PRIME, first_dependency, matrix_rank_mod_p,
                               nullspace_mod_p, rref_mod_p, working_dtype)
from lamplighter.ring import ScalarRing
from lamplighter.wreath import WreathGroup


def reference_rref(matrix, p):
    """Plain-python row reduction oracle, no numpy and no bit packing."""
    rows = [[x % p for x in row] for row in matrix]
    n = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    return [row for row in rows if any(row)], pivots


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_reference_on_random_matrices(p):
    rng = random.Random(100 + p)
    for _ in range(150):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
        got, pivots = rref_mod_p(np.array(mat), p)
        want, want_pivots = reference_rref(mat, p)
        assert pivots == want_pivots
        assert [list(map(int, row)) for row in got] == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_vectors_really_solve(p):
    rng = random.Random(200 + p)
    for _ in range(100):
        m = rng.randint(1, 10)
        n = rng.randint(1, 10)
        mat = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(m)])
        kernel = nullspace_mod_p(mat, p)
        assert len(kernel) == n - matrix_rank_mod_p(mat, p)
        for vec in kernel:
            assert not ((mat @ vec) % p).any()


def test_kernel_of_zero_and_identity():
    assert nullspace_mod_p(np.zeros((3, 4), dtype=int), 2).shape == (4, 4)
    assert np.array_equal(nullspace_mod_p(np.zeros((3, 4), dtype=int), 3),
                          np.eye(4, dtype=int))
    assert nullspace_mod_p(np.eye(4, dtype=int), 5).shape == (0, 4)


def test_rref_is_independent_of_row_order():
    # the reduced echelon form depends only on the row space
    rng = random.Random(300)
    for p in (2, 3):
        for _ in range(100):
            mat = [[rng.randrange(p) for _ in range(7)] for _ in range(9)]
            base, base_p = rref_mod_p(np.array(mat), p)
            rng.shuffle(mat)
            shuffled, shuffled_p = rref_mod_p(np.array(mat), p)
            assert base_p == shuffled_p
            assert np.array_equal(base, shuffled)


def test_gf2_kernel_against_exhaustive_enumeration():
    rng = random.Random(400)
    for _ in range(50):
        m = rng.randint(1, 6)
        n = rng.randint(1, 10)
        mat = np.array([[rng.randrange(2) for _ in range(n)] for _ in range(m)])
        kernel = nullspace_mod_p(mat, 2)
        members = set()
        for bits in range(2 ** n):
            vec = np.array([(bits >> j) & 1 for j in range(n)])
            if not ((mat @ vec) % 2).any():
                members.add(tuple(vec))
        # the kernel basis spans exactly the brute-force solution set
        assert 2 ** len(kernel) == len(members)
        assert all(tuple(v) in members for v in kernel)


def test_wide_and_tall_shapes():
    mat = np.array([[1, 0, 1, 1, 0, 1]])
    kernel = nullspace_mod_p(mat, 2)
    assert kernel.shape == (5, 6)
    tall = np.array([[1], [1], [0], [1]])
    assert nullspace_mod_p(tall, 3).shape == (0, 1)


def reference_kernel(matrix, p):
    """The canonical kernel basis from the plain-python RREF."""
    rows, pivots = reference_rref(matrix, p)
    basis = []
    for f in (c for c in range(len(matrix[0])) if c not in pivots):
        vector = [0] * len(matrix[0])
        vector[f] = 1
        for row, c in zip(rows, pivots):
            vector[c] = -row[f] % p
        basis.append(vector)
    return basis


def sparse_columns(matrix):
    """The columns of a dense matrix as {row: entry} maps, zeros left out."""
    return [{int(r): int(column[r]) for r in np.flatnonzero(column)}
            for column in np.asarray(matrix).T]


def first_kernel_vector(matrix, p):
    """first_dependency of the columns, as a dense vector, or None."""
    found = first_dependency(sparse_columns(matrix), p)
    if found is None:
        return None
    vector = np.zeros(np.asarray(matrix).shape[1], dtype=np.int64)
    vector[list(found)] = list(found.values())
    return vector


def test_max_prime_is_the_int64_bound_of_elimination():
    assert (MAX_PRIME - 1) ** 2 + MAX_PRIME <= np.iinfo(np.int64).max < MAX_PRIME ** 2 + 1
    assert working_dtype(181) == np.int16 and working_dtype(191) == np.int64
    assert working_dtype(MAX_PRIME) == np.int64


def test_kernel_at_the_largest_int64_prime():
    p = 3037000493          # the largest prime <= MAX_PRIME
    rng = random.Random(3037)
    for trial in range(20):
        mat = [[rng.randrange(p) for _ in range(8)] for _ in range(5)]
        if trial % 2:       # rank 4: row 4 is a combination of rows 0 and 1
            mat[4] = [(rng.randrange(p) * a + rng.randrange(p) * b) % p
                      for a, b in zip(mat[0], mat[1])]
        kernel = nullspace_mod_p(np.array(mat, dtype=np.int64), p)
        assert kernel.tolist() == reference_kernel(mat, p)
        assert not (np.array(mat, dtype=object) @ kernel.T.astype(object) % p).any()
        assert first_kernel_vector(np.array(mat), p).tolist() == kernel[0].tolist()


@pytest.mark.parametrize("p", [3037000507, 4294967311])
def test_primes_past_the_int64_bound_are_refused(p):
    mat = np.ones((5, 8), dtype=np.int64)
    for call in (working_dtype, lambda p: rref_mod_p(mat, p), lambda p: nullspace_mod_p(mat, p),
                 lambda p: first_kernel_vector(mat, p), lambda p: matrix_rank_mod_p(mat, p)):
        with pytest.raises(UnsupportedRingError, match="overflow int64"):
            call(p)
    algebra = GroupRing(ScalarRing(p), WreathGroup(2))
    with pytest.raises(UnsupportedRingError, match="overflow int64"):
        left_mul_matrix(algebra.one, [algebra.group.identity])


def test_huge_prime_is_refused_before_the_primality_test():
    # is_prime(2^127 - 1) ends in trial division; the int64 bound refuses first.
    for call in (nullspace_mod_p, first_kernel_vector):
        with time_limit(0.9), pytest.raises(UnsupportedRingError, match="overflow int64"):
            call(np.eye(2, dtype=np.int64), 2 ** 127 - 1)


def test_non_prime_modulus_rejected():
    with pytest.raises(UnsupportedRingError):
        rref_mod_p(np.eye(2, dtype=int), 4)
    with pytest.raises(UnsupportedRingError):
        nullspace_mod_p(np.eye(2, dtype=int), 6)
    with pytest.raises(UnsupportedRingError):
        first_kernel_vector(np.eye(2, dtype=int), 9)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_first_kernel_vector_is_the_first_basis_vector(p):
    # One-pass sparse elimination against the full kernel basis: tall,
    # wide, zero-row and zero-column shapes, full-rank and rank-deficient
    # entries, and widths of a few hundred columns.
    rng = np.random.default_rng(500 + p)
    shapes = [(0, 0), (4, 0), (0, 5), (200, 150), (60, 150), (150, 40), (300, 140)]
    for _ in range(30):
        n = int(rng.integers(1, 12))
        shapes.append((n + int(rng.integers(0, 6)), n))
        shapes.append((int(rng.integers(1, 8)), int(rng.integers(8, 40))))
    outcomes = set()
    for m, n in shapes:
        for rank in sorted({min(m, n), int(rng.integers(0, min(m, n) + 1))}):
            mat = (rng.integers(0, p, (m, rank)) @ rng.integers(0, p, (rank, n))) % p
            kernel = nullspace_mod_p(mat, p)
            got = first_kernel_vector(mat, p)
            if len(kernel) == 0:
                assert got is None
            else:
                assert np.array_equal(got, kernel[0])
            outcomes.add(got is None)
    assert outcomes == {True, False}
