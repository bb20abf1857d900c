"""Rank, kernel, block-inverse and cofactor helpers against exact oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ_I
from sympy.polys.matrices import DomainMatrix

from detmin.errors import DegenerateMetric, InvalidChartPoint
from detmin.linalg import (block_inverse, cofactors, column_reflection,
                           declared_rank, derived_rng, fill_blocks, identity,
                           kron, max_abs, numerical_rank,
                           reflection_residuals, relative, require_finite,
                           reversal,
                           second_cofactors, stratum_bases, svd_rank)


def _rational_pivots(m_int):
    """Pivots of row reduction over Q, and the parity of its row swaps."""
    rows = [[Fraction(int(v)) for v in row] for row in m_int]
    pivots, swaps, lead = [], 0, 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(lead, len(rows)) if rows[i][col] != 0),
                     None)
        if pivot is None:
            continue
        if pivot != lead:
            rows[lead], rows[pivot] = rows[pivot], rows[lead]
            swaps ^= 1
        pv = rows[lead][col]
        for i in range(lead + 1, len(rows)):
            f = rows[i][col] / pv
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[lead])]
        pivots.append(pv)
        lead += 1
        if lead == len(rows):
            break
    return pivots, swaps


def rational_rank(m_int):
    """Row reduction over Q; exact for integer matrices."""
    return len(_rational_pivots(m_int)[0])


def rational_det(m_int):
    """Determinant by row reduction over Q; exact for integer matrices."""
    pivots, swaps = _rational_pivots(m_int)
    if len(pivots) < len(m_int):
        return Fraction(0)
    return (-1) ** swaps * math.prod(pivots, start=Fraction(1))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6),
       st.integers(0, 10 ** 6))
def test_svd_rank_matches_rational_elimination(p, q, r, seed):
    r = min(r, p, q)
    rng = derived_rng(seed)
    # integer factors make the product's rank exactly computable over Q
    left = rng.integers(-8, 9, size=(p, r))
    right = rng.integers(-8, 9, size=(r, q))
    m = left @ right
    assert svd_rank(m.astype(float)).rank == rational_rank(m)


def test_negative_seeds_are_refused():
    # no fold to abs(seed): each seed names its own stream
    with pytest.raises(ValueError, match="non-negative"):
        derived_rng(-1)
    with pytest.raises(ValueError, match="non-negative"):
        derived_rng(-1, 1, 2)


def test_kernel_basis_spans_the_cokernel():
    rng = derived_rng(3)
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
    assert svd_rank(np.zeros((4, 0))).row_basis.shape == (0, 0)


@pytest.mark.parametrize("p,q,r", [(3, 2, 1), (4, 4, 2), (5, 3, 3)])
def test_row_basis_spans_the_row_space(p, q, r):
    rng = derived_rng(50 + 10 * p + q + r)
    m = rng.normal(size=(p, r)) @ rng.normal(size=(r, q))
    res = svd_rank(m)
    rows = res.row_basis
    assert rows.shape == (q, r)
    assert max_abs(rows.T @ rows - np.eye(r)) < 1e-12
    assert max_abs(m - (m @ rows) @ rows.T) < 1e-12


def test_declared_rank_refuses_a_mismatch():
    assert declared_rank(np.eye(3), 3).rank == 3
    with pytest.raises(InvalidChartPoint):
        declared_rank(np.eye(3), 1)


# operand shapes of every Kronecker product in detmin, at p, q, r = 5, 3, 2
# and at the r = 0 edge: chart Jacobian, metric blocks, closed-form inverse,
# frame Gram, orbit generators
KRON_SHAPES = [((5, 5), (2, 3)), ((2, 5), (1, 3)), ((5, 5), (2, 2)),
               ((5, 2), (2, 1)), ((2, 2), (1, 1)), ((5, 5), (0, 3)),
               ((0, 5), (3, 3)), ((1, 1), (3, 3)), ((5, 5), (3, 5)),
               ((5, 3), (3, 3)), ((2, 2), (0, 0))]


@pytest.mark.parametrize("sa,sb", KRON_SHAPES)
def test_kron_matches_numpy(sa, sb):
    rng = derived_rng(sum(sa) + 10 * sum(sb))
    a = rng.normal(size=sa)
    b = rng.normal(size=sb)
    a[a < -1.0] = 0.0  # zeros times negatives: signed zeros must agree too
    for x, y in ((a, b), (np.eye(sa[0])[:, :sa[1]], b), (a, -np.abs(b))):
        got, want = kron(x, y), np.kron(x, y)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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
    rng = derived_rng(70 + 10 * p + q + r)
    x = rng.normal(size=(p, r)) @ rng.normal(size=(r, q))
    tangent, normal = stratum_bases(x, r)
    assert tangent.shape == (p * q, r * (p + q - r))
    assert normal.shape == (p * q, (p - r) * (q - r))
    both = np.hstack([tangent, normal])
    assert max_abs(both.T @ both - np.eye(p * q)) < 1e-12
    gens = _orbit_generators(x)
    assert max_abs(gens - tangent @ (tangent.T @ gens)) < 1e-12
    assert max_abs(normal.T @ gens) < 1e-12


def test_stratum_bases_refuse_a_wrong_declared_rank():
    x = np.diag([1.0, 2.0, 0.0])
    assert stratum_bases(x, 2)[1].shape == (9, 1)
    for r in (1, 3):
        with pytest.raises(InvalidChartPoint, match="tangent space"):
            stratum_bases(x, r)


def _indefinite_reflections(seed, count):
    """(B, signs, x) for count random column spaces of an indefinite form."""
    rng = derived_rng(seed)
    while count:
        p = int(rng.integers(2, 7))
        r = int(rng.integers(1, p))
        n_plus = int(rng.integers(1, p))
        signs = np.concatenate([np.ones(n_plus), -np.ones(p - n_plus)])
        x = rng.normal(size=(p, r)) @ rng.normal(size=(r, p))
        try:
            b = column_reflection(svd_rank(x), signs)
        except DegenerateMetric:
            continue
        count -= 1
        yield b, signs, x, rng


def test_reflection_residuals_pass_the_form_reflection():
    for b, signs, x, _ in _indefinite_reflections(31, 40):
        res = reflection_residuals(b, signs, x)
        assert max(res.values()) <= 1e-12, res


def test_reflection_residuals_fail_a_wrong_reflection():
    for b, signs, x, rng in _indefinite_reflections(32, 40):
        # the euclidean reflection through the same column space fixes x
        # but is no isometry of the indefinite form
        euclidean = column_reflection(svd_rank(x), np.ones(len(signs)))
        assert reflection_residuals(euclidean, signs, x)["isometry"] > 1e-12
        # nor is the form reflection moved by 1e-9 relative
        moved = b * (1.0 + 1e-9 * rng.normal(size=b.shape))
        assert max(reflection_residuals(moved, signs, x).values()) > 1e-12


def test_reflection_residuals_are_scaled_by_the_norm_squared():
    # B = [[c, -s], [s, -c]] with c = cosh t, s = sinh t is an involution
    # and a diag(1, -1) isometry with ||B||_2 = e^t; in double precision its
    # raw residuals are about e^(2t) eps, far above 1e-12, while the
    # backward errors stay at a few eps
    t = 10.0
    b = np.array([[np.cosh(t), -np.sinh(t)], [np.sinh(t), -np.cosh(t)]])
    signs = np.array([1.0, -1.0])
    assert max_abs(b @ b - np.eye(2)) > 1e-9
    assert max_abs((b.T * signs) @ b - np.diag(signs)) > 1e-9
    res = reflection_residuals(b, signs, np.zeros((2, 1)))
    assert max(res.values()) < 1e-14, res


def test_fixes_point_is_scaled_by_the_norm():
    # the column (1, 1 + 1e-5) is nearly null for diag(1, -1): its form
    # reflection passes the column_reflection guard with ||B||_2 = 2e5, and
    # rounding in B x alone leaves ||B x - x|| near ||B||_2 ||x|| eps
    signs = np.array([1.0, -1.0])
    x = np.outer([1.0, 1.0 + 1e-5], [3.0, -2.0, 0.5])
    b = column_reflection(svd_rank(x), signs)
    assert np.linalg.svd(b, compute_uv=False)[0] > 1e5
    assert max_abs(b @ x - x) / max(1.0, max_abs(x)) > 1e-12
    res = reflection_residuals(b, signs, x)
    assert max(res.values()) <= 1e-12, res


def test_relative_has_no_floor():
    # a scale below 1 divides too, and an exact 0 reads 0 even over a zero
    # scale, as at the vertex x = 0 of a rank-0 stratum
    assert relative(2.0 ** -60, 2.0 ** -10) == 2.0 ** -50
    assert relative(0.0, 0.0) == 0.0
    assert relative(2.0 ** -1000, 0.0) == math.inf
    # the reflection through the zero column space fixes x = 0 exactly
    b = column_reflection(svd_rank(np.zeros((3, 2))), np.ones(3))
    assert reflection_residuals(b, np.ones(3), np.zeros((3, 2))) == {
        "isometry": 0.0, "involution": 0.0, "fixes_point": 0.0}


@pytest.mark.parametrize("p,q,m", [(3, 2, 4), (4, 3, 1), (2, 2, 0)])
def test_reversal_is_the_worst_column_norm(p, q, m):
    rng = derived_rng(90 + 10 * p + q + m)
    b = rng.normal(size=(p, p))
    normals = rng.normal(size=(p * q, m))
    columns = [w.reshape(p, q) for w in normals.T]
    worst = max((np.linalg.norm(b @ w + w) for w in columns), default=0.0)
    assert np.isclose(reversal(b, normals, (p, q)), worst, rtol=1e-14)


def test_block_inverse_agrees_with_dense_inverse():
    rng = derived_rng(11)
    g = rng.normal(size=(4, 4))
    g = g @ g.T + 4 * np.eye(4)
    b = rng.normal(size=(4, 2))
    d = rng.normal(size=(2, 2))
    d = d @ d.T + 4 * np.eye(2)
    assembled = np.block([[g, b], [b.T, d]])
    want = np.linalg.inv(assembled)
    for pivot in ("leading", "trailing"):
        got = block_inverse(g, b, d, pivot=pivot)
        assert np.allclose(got, want, atol=1e-12)


def test_block_inverse_zero_size_blocks():
    g = np.eye(3) * 2.0
    for pivot in ("leading", "trailing"):
        out = block_inverse(g, np.zeros((3, 0)), np.zeros((0, 0)), pivot)
        assert np.allclose(out, np.eye(3) / 2.0)


@pytest.mark.parametrize("rows,cols", [((2, 3), (4, 1)), ((0, 3), (2, 0)),
                                       ((3, 0), (0, 2)), ((0, 0), (0, 0)),
                                       ((1, 1), (0, 5))])
def test_fill_blocks_equals_np_block(rows, cols):
    rng = derived_rng(sum(rows) * 10 + sum(cols))
    blocks = [[rng.normal(size=(n, m)) for m in cols] for n in rows]
    want = np.block(blocks)
    got = fill_blocks(blocks[0][0], blocks[0][1], blocks[1][0], blocks[1][1])
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    # mixed real and complex blocks promote as np.block does
    blocks[1][1] = blocks[1][1] * 1j
    want = np.block(blocks)
    got = fill_blocks(blocks[0][0], blocks[0][1], blocks[1][0], blocks[1][1])
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_identity_is_a_shared_read_only_operand():
    for n in (0, 1, 4):
        eye = identity(n)
        assert eye is identity(n)
        assert eye.tobytes() == np.eye(n).tobytes()
        assert not eye.flags.writeable


def test_numerical_rank_equals_svd_rank():
    rng = derived_rng(12)
    cases = [np.zeros((4, 3)), np.zeros((0, 3)), np.zeros((3, 0)),
             np.zeros((0, 0)), np.eye(5), rng.normal(size=(6, 4)),
             rng.normal(size=(3, 7))]
    for rank, (n, m) in ((1, (5, 4)), (2, (6, 6)), (3, (4, 8)), (2, (9, 3))):
        cases.append(rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m)))
    # rank-deficient with a tiny but resolvable direction
    cases.append(np.diag([1.0, 1e-9, 0.0]))
    for m in cases:
        assert numerical_rank(m) == svd_rank(m).rank, m.shape
    with pytest.raises(ValueError):
        numerical_rank(np.array([[1.0, np.inf]]))


def test_numerical_rank_of_a_stack_is_svd_rank_per_matrix():
    rng = derived_rng(13)
    # each stack mixes full-rank, rank-deficient and zero members
    for rows, cols in ((4, 3), (3, 5), (6, 6), (2, 1)):
        members = [rng.normal(size=(rows, cols)), np.zeros((rows, cols))]
        for rank in range(1, min(rows, cols)):
            members.append(rng.normal(size=(rows, rank))
                           @ rng.normal(size=(rank, cols)))
        stack = np.array(members)
        got = numerical_rank(stack)
        assert got.shape == (len(members),)
        assert got.tolist() == [svd_rank(m).rank for m in members]
        # any leading axes, one rank per matrix
        assert numerical_rank(stack.reshape(1, -1, rows, cols)).tolist() \
            == [got.tolist()]
    for shape in ((0, 3, 2), (4, 0, 3), (4, 3, 0), (2, 0, 0)):
        got = numerical_rank(np.zeros(shape))
        assert got.shape == shape[:1] and not got.any(), shape
    single = numerical_rank(rng.normal(size=(5, 3)))
    assert type(single) is int and single == 3
    assert type(numerical_rank(np.zeros((0, 2)))) is int


def test_require_finite():
    with pytest.raises(ValueError, match="^m has 1 non-finite entries"):
        require_finite(np.array([1.0, np.nan]), "m")
    require_finite(np.ones(3), "m")
    assert require_finite(np.arange(3), "m").dtype == float
    assert require_finite(np.array([1j, 2.0]), "m").dtype == complex
    with pytest.raises(ValueError):
        require_finite(np.array([1.0, complex(np.inf, 0.0)]), "m")


def test_complex_rank_is_taken_over_the_complex_numbers():
    # the second row is i times the first; the real part alone has rank 2
    z = np.array([[1.0, 1j], [1j, -1.0]])
    assert numerical_rank(z) == svd_rank(z).rank == 1
    assert numerical_rank(z.real) == 2


def test_wide_svd_rank_bases_fill_the_rows():
    rng = derived_rng(14)
    m = rng.normal(size=(3, 2)) @ rng.normal(size=(2, 7))
    res = svd_rank(m)
    assert (res.rank, res.range_basis.shape, res.kernel_basis.shape,
            res.row_basis.shape) == (2, (3, 2), (3, 1), (7, 2))
    both = np.hstack([res.range_basis, res.kernel_basis])
    assert max_abs(both.T @ both - np.eye(3)) < 1e-12
    assert max_abs(m.T @ res.kernel_basis) < 1e-12


def _real_and_complex(n, seed):
    rng = derived_rng(seed)
    real = rng.normal(size=(n, n))
    return real, real + 1j * rng.normal(size=(n, n))


def _integer_matrices(n, seed):
    """Integer and Gaussian-integer n x n matrices of rank n, n - 1, n - 2.

    Each is a product of small integer factors, its rank confirmed over Q
    (a Gaussian-integer matrix through its real 2n x 2n form, of twice the
    rank).
    """
    rng = derived_rng(seed)
    for r in range(max(n - 2, 0), n + 1):
        for gaussian in (False, True):
            while True:
                left, right = (rng.integers(-2, 3, size=(2,) + shape)
                               for shape in ((n, r), (r, n)))
                if gaussian:
                    m = (left[0] + 1j * left[1]) @ (right[0] + 1j * right[1])
                    rank = rational_rank(
                        np.block([[m.real, -m.imag], [m.imag, m.real]])) // 2
                else:
                    m = left[0] @ right[0]
                    rank = rational_rank(m)
                if rank == r:
                    yield m
                    break


def _exact_replaced_det(m, *row_cols):
    """Exact determinant of ``m`` with each listed row replaced by a unit row.

    Integer matrices go through :func:`rational_det`, Gaussian-integer ones
    through sympy's determinant over Z[i]; both return a Python complex of
    the exact integer parts.
    """
    m = m.copy()
    for row, col in row_cols:
        m[row] = 0
        m[row, col] = 1
    if not np.iscomplexobj(m):
        return complex(rational_det(m))
    n = m.shape[0]
    det = DomainMatrix(
        [[ZZ_I(int(v.real), int(v.imag)) for v in row] for row in m],
        (n, n), ZZ_I).det()
    return complex(det.x, det.y)


def _rounds_to(value, exact):
    value = complex(value)
    return (np.rint(value.real), np.rint(value.imag)) == (exact.real,
                                                         exact.imag)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cofactors_invert_up_to_the_determinant(n):
    for m in _real_and_complex(n, 50 + n):
        cof = cofactors(m)
        assert cof.dtype == m.dtype
        scale = np.linalg.norm(m) * np.linalg.norm(cof)
        assert max_abs(m @ cof.T - np.linalg.det(m) * np.eye(n)) <= 1e-14 * scale
    # cof[i, j] is det m with row i replaced by e_j, exactly
    for m in _integer_matrices(n, 70 + n):
        cof = cofactors(m)
        for i, j in np.ndindex(n, n):
            assert _rounds_to(cof[i, j], _exact_replaced_det(m, (i, j))), (
                m, i, j)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_second_cofactors_symmetric_and_zero_on_a_shared_row(n):
    for m in _real_and_complex(n, 60 + n):
        c2 = second_cofactors(m)
        assert c2.shape == (n,) * 4 and c2.dtype == m.dtype
        assert np.array_equal(c2, c2.transpose(2, 3, 0, 1))
        for i in range(n):
            assert not c2[i, :, i, :].any()
    # c2[i, j, k, l] for i != k is det m with rows i and k replaced by e_j
    # and e_l, exactly; a shared row or column is an exact zero
    for m in _integer_matrices(n, 80 + n):
        c2 = second_cofactors(m)
        for i, j, k, l in np.ndindex((n,) * 4):
            if i == k or j == l:
                assert c2[i, j, k, l] == 0, (m, i, j, k, l)
            elif i < k:
                exact = _exact_replaced_det(m, (i, j), (k, l))
                assert _rounds_to(c2[i, j, k, l], exact), (m, i, j, k, l)
                assert _rounds_to(c2[k, l, i, j], exact), (m, i, j, k, l)


def test_derived_rng_of_a_bare_seed_is_reproducible():
    a = derived_rng(42).normal(size=5)
    b = derived_rng(42).normal(size=5)
    assert np.array_equal(a, b)


def test_derived_rng_streams_are_stable_and_distinct():
    a = derived_rng(7, 1, 2, 3).normal(size=4)
    b = derived_rng(7, 1, 2, 3).normal(size=4)
    c = derived_rng(7, 1, 2, 4).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
