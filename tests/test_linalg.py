"""Rank, kernel, block-inverse and cofactor helpers against exact oracles."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmin.errors import DegenerateMetric
from detmin.linalg import (block_inverse, cofactors, derived_rng, make_rng,
                           max_abs, require_finite, second_cofactors,
                           spectral_cond, stratum_bases, svd_rank)


def rational_rank(m_int):
    """Row reduction over Q; exact for integer matrices."""
    rows = [[Fraction(int(v)) for v in row] for row in m_int]
    rank, lead = 0, 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(lead, len(rows)) if rows[i][col] != 0),
                     None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        pv = rows[lead][col]
        for i in range(lead + 1, len(rows)):
            f = rows[i][col] / pv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[lead])]
        lead += 1
        rank += 1
        if lead == len(rows):
            break
    return rank


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6),
       st.integers(0, 10 ** 6))
def test_svd_rank_matches_rational_elimination(p, q, r, seed):
    r = min(r, p, q)
    rng = make_rng(seed)
    # integer factors make the product's rank exactly computable over Q
    left = rng.integers(-8, 9, size=(p, r))
    right = rng.integers(-8, 9, size=(r, q))
    m = left @ right
    assert svd_rank(m.astype(float)).rank == rational_rank(m)


def test_kernel_basis_spans_the_cokernel():
    rng = make_rng(3)
    m = rng.normal(size=(5, 2))
    res = svd_rank(m)
    kern = res.kernel_basis
    assert kern.shape == (5, 3)
    assert np.allclose(kern.T @ kern, np.eye(3), atol=1e-12)
    assert max_abs(m.T @ kern) < 1e-12
    # the range basis spans the column space and completes the kernel
    span = res.range_basis
    assert span.shape == (5, 2)
    assert max_abs(m - span @ (span.T @ m)) < 1e-12
    assert max_abs(span.T @ kern) < 1e-12


def test_rank_result_of_zero_and_empty():
    assert svd_rank(np.zeros((4, 3))).rank == 0
    assert svd_rank(np.zeros((4, 0))).rank == 0
    assert svd_rank(np.zeros((4, 0))).range_basis.shape == (4, 0)
    assert spectral_cond(np.zeros((0, 0))) == 1.0


def _orbit_generators(x):
    """Flat matrices E_ij X and X E_ij, built entry by entry."""
    p, q = x.shape
    gens = []
    for i in range(p):
        for j in range(p):
            m = np.zeros((p, q))
            m[i, :] = x[j, :]
            gens.append(m.ravel())
    for i in range(q):
        for j in range(q):
            m = np.zeros((p, q))
            m[:, j] = x[:, i]
            gens.append(m.ravel())
    return np.array(gens).T


@pytest.mark.parametrize("p,q,r", [(2, 2, 1), (3, 2, 2), (4, 3, 1),
                                   (5, 4, 3), (3, 3, 0)])
def test_stratum_bases_split_off_the_orbit_generators(p, q, r):
    rng = make_rng(70 + 10 * p + q + r)
    x = rng.normal(size=(p, r)) @ rng.normal(size=(r, q))
    tangent, normal = stratum_bases(x)
    assert tangent.shape == (p * q, r * (p + q - r))
    assert normal.shape == (p * q, (p - r) * (q - r))
    both = np.hstack([tangent, normal])
    assert max_abs(both.T @ both - np.eye(p * q)) < 1e-12
    gens = _orbit_generators(x)
    assert max_abs(gens - tangent @ (tangent.T @ gens)) < 1e-12
    assert max_abs(normal.T @ gens) < 1e-12


def test_block_inverse_agrees_with_dense_inverse():
    rng = make_rng(11)
    g = rng.normal(size=(4, 4))
    g = g @ g.T + 4 * np.eye(4)
    b = rng.normal(size=(4, 2))
    d = rng.normal(size=(2, 2))
    d = d @ d.T + 4 * np.eye(2)
    assembled = np.block([[g, b], [b.T, d]])
    want = np.linalg.inv(assembled)
    for pivot in ("leading", "trailing"):
        got = block_inverse(g, b, d, pivot=pivot).full
        assert np.allclose(got, want, atol=1e-12)


def test_block_inverse_zero_size_blocks():
    g = np.eye(3) * 2.0
    out = block_inverse(g, np.zeros((3, 0)), np.zeros((0, 0)))
    assert np.allclose(out.full, np.eye(3) / 2.0)


def test_block_inverse_rejects_singular_pivot():
    g = np.zeros((2, 2))
    b = np.zeros((2, 1))
    d = np.eye(1)
    with pytest.raises(DegenerateMetric):
        block_inverse(g, b, d, pivot="leading")


def test_require_finite():
    with pytest.raises(ValueError):
        require_finite(np.array([1.0, np.nan]))
    require_finite(np.ones(3))


def _real_and_complex(n, seed):
    rng = make_rng(seed)
    real = rng.normal(size=(n, n))
    return real, real + 1j * rng.normal(size=(n, n))


def _replaced_det(m, *row_cols):
    """Determinant of ``m`` with each listed row replaced by a unit row."""
    m = m.copy()
    for row, col in row_cols:
        m[row] = 0.0
        m[row, col] = 1.0
    return np.linalg.det(m)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cofactors_invert_up_to_the_determinant(n):
    for m in _real_and_complex(n, 50 + n):
        cof = cofactors(m)
        assert cof.dtype == m.dtype
        assert cof[n - 1, 0] == _replaced_det(m, (n - 1, 0))
        scale = np.linalg.norm(m) * np.linalg.norm(cof)
        assert max_abs(m @ cof.T - np.linalg.det(m) * np.eye(n)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_second_cofactors_symmetric_and_zero_on_a_shared_row(n):
    for m in _real_and_complex(n, 60 + n):
        c2 = second_cofactors(m)
        assert c2.shape == (n,) * 4 and c2.dtype == m.dtype
        assert np.array_equal(c2, c2.transpose(2, 3, 0, 1))
        assert c2[0, 1, n - 1, 0] == _replaced_det(m, (0, 1), (n - 1, 0))
        for i in range(n):
            assert not c2[i, :, i, :].any()


def test_make_rng_is_reproducible():
    a = make_rng(42).normal(size=5)
    b = make_rng(42).normal(size=5)
    assert np.array_equal(a, b)


def test_derived_rng_streams_are_stable_and_distinct():
    a = derived_rng(7, 1, 2, 3).normal(size=4)
    b = derived_rng(7, 1, 2, 3).normal(size=4)
    c = derived_rng(7, 1, 2, 4).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
