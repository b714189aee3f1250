"""Tests for the dense matrix core.

Oracles here are written against index arithmetic only: the Kronecker
product is checked entry by entry from its defining index formula, and the
partial trace against a direct nested-loop summation. Neither oracle calls
back into the package.
"""

import numpy as np
import pytest

from blochbounds.linalg import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    PartitionContext,
    ValidationError,
    hs_norm_sq,
    kron,
    mask_from_parties,
    nonempty_masks,
    partial_trace,
    parties_from_mask,
    purity,
    subset_size,
    validate_density,
)
from blochbounds.tensors import all_tensors

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def kron_oracle(a, b):
    """(A (x) B)[i*p + k, j*q + l] = A[i, j] * B[k, l], looped explicitly."""
    n, m = a.shape
    p, q = b.shape
    out = np.zeros((n * p, m * q), dtype=complex)
    for i in range(n):
        for j in range(m):
            for k in range(p):
                for l in range(q):
                    out[i * p + k, j * q + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(mat, n, d, kept):
    """Direct index summation; ``kept`` is a sorted tuple of 0-based parties."""
    traced = [p for p in range(n) if p not in kept]
    m = len(kept)
    out = np.zeros((d ** m, d ** m), dtype=complex)
    for row in np.ndindex(*(d,) * n):
        for col in np.ndindex(*(d,) * n):
            if any(row[p] != col[p] for p in traced):
                continue
            r = c = 0
            for p in kept:
                r = r * d + row[p]
                c = c * d + col[p]
            i = int(np.ravel_multi_index(row, (d,) * n))
            j = int(np.ravel_multi_index(col, (d,) * n))
            out[r, c] += mat[i, j]
    return out


def random_state(ctx, rng, rank=None):
    dim = ctx.total_dim
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(ctx, m / m.trace())


class TestKron:
    def test_identity_pair(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.array_equal(kron(SZ, SZ), np.diag([1, -1, -1, 1]).astype(complex))

    def test_matches_index_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            b = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
            assert np.allclose(kron(a, b), kron_oracle(a, b), atol=1e-14)

    def test_associative(self):
        rng = np.random.default_rng(8)
        a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                   for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        assert np.allclose(left, right, atol=1e-14)

    def test_dimension_cap(self):
        big = np.eye(128)
        with pytest.raises(ValueError, match="cap"):
            kron(big, big, dim_cap=DEFAULT_DIM_CAP)
        assert kron(big, big, dim_cap=128 * 128).shape == (16384, 16384)


class TestMasks:
    def test_roundtrip(self):
        assert mask_from_parties([1, 3]) == 0b101
        assert parties_from_mask(0b101) == (1, 3)
        assert subset_size(0b1011) == 3

    def test_duplicate_party_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            mask_from_parties([2, 2])

    def test_enumeration(self):
        ctx = PartitionContext(3, 2)
        assert list(nonempty_masks(3)) == list(range(1, 8))
        assert list(range(1, ctx.full_mask)) == list(range(1, 7))


class TestPartitionContext:
    def test_total_dim_and_mask(self):
        ctx = PartitionContext(3, 2)
        assert ctx.total_dim == 8
        assert ctx.full_mask == 0b111
        assert list(ctx.parties()) == [1, 2, 3]

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            PartitionContext(13, 2)
        assert PartitionContext(13, 2, dim_cap=1 << 13).total_dim == 8192

    @pytest.mark.parametrize("n,d", [(10 ** 30, 2), (2, 10 ** 30), (64, 3)],
                             ids=["huge-n", "huge-d", "n-64"])
    def test_huge_sizes_rejected_before_the_power(self, n, d):
        # d^n is never formed: at n = 10^30 it would not finish
        with pytest.raises(ValueError, match="exceeds the configured cap"):
            PartitionContext(n, d)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            PartitionContext(0, 2)
        with pytest.raises(ValueError):
            PartitionContext(2, 1)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        ctx = PartitionContext(2, 2)
        v = np.zeros(4, dtype=complex)
        v[0] = v[3] = 1 / np.sqrt(2)
        rho = DensityMatrix(ctx, np.outer(v, v.conj()))
        red = partial_trace(rho, 0b01)
        assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-14)

    def test_product_state_factors(self):
        ctx = PartitionContext(2, 3)
        rng = np.random.default_rng(11)
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        rho = DensityMatrix(ctx, np.outer(np.kron(a, b), np.kron(a, b).conj()))
        assert np.allclose(partial_trace(rho, 0b01).mat, np.outer(a, a.conj()),
                           atol=1e-14)
        assert np.allclose(partial_trace(rho, 0b10).mat, np.outer(b, b.conj()),
                           atol=1e-14)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_matches_summation_oracle(self, n, d):
        ctx = PartitionContext(n, d)
        rng = np.random.default_rng(100 + 10 * n + d)
        rho = random_state(ctx, rng)
        for mask in range(1, ctx.full_mask):
            kept = tuple(p - 1 for p in parties_from_mask(mask))
            expect = partial_trace_oracle(rho.mat, n, d, kept)
            got = partial_trace(rho, mask)
            assert got.ctx.n_parties == len(kept)
            assert np.allclose(got.mat, expect, atol=1e-12)

    def test_preserves_trace_and_hermiticity(self):
        ctx = PartitionContext(3, 2)
        rng = np.random.default_rng(13)
        rho = random_state(ctx, rng)
        for mask in range(1, ctx.full_mask):
            red = partial_trace(rho, mask)
            assert abs(red.mat.trace() - 1.0) < 1e-12
            assert np.abs(red.mat - red.mat.conj().T).max() < 1e-12

    def test_composes(self):
        ctx = PartitionContext(3, 2)
        rho = random_state(ctx, np.random.default_rng(17))
        two_step = partial_trace(partial_trace(rho, 0b011), 0b01)
        one_step = partial_trace(rho, 0b001)
        assert np.allclose(two_step.mat, one_step.mat, atol=1e-13)

    def test_rejects_empty_and_full_masks(self):
        ctx = PartitionContext(2, 2)
        rho = DensityMatrix(ctx, np.eye(4) / 4)
        with pytest.raises(ValueError):
            partial_trace(rho, 0)
        with pytest.raises(ValueError):
            partial_trace(rho, 0b100)
        # keeping everything is a no-op copy, allowed
        assert np.allclose(partial_trace(rho, 0b11).mat, rho.mat)


class TestPurity:
    def test_known_values(self):
        ctx = PartitionContext(3, 2)
        assert abs(purity(DensityMatrix(ctx, np.eye(8) / 8)) - 1 / 8) < 1e-15
        v = np.zeros(8, dtype=complex)
        v[0] = v[7] = 1 / np.sqrt(2)
        assert abs(purity(DensityMatrix(ctx, np.outer(v, v.conj()))) - 1.0) < 1e-14

    def test_two_point_mixture(self):
        # weights 0.7 / 0.3 on orthogonal projectors give 0.49 + 0.09
        ctx = PartitionContext(2, 2)
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 0.7
        m[3, 3] = 0.3
        assert abs(purity(DensityMatrix(ctx, m)) - 0.58) < 1e-15

    def test_reduced_purities_within_unit_interval(self):
        ctx = PartitionContext(3, 2)
        rho = random_state(ctx, np.random.default_rng(19), rank=3)
        for mask in range(1, ctx.full_mask):
            p = purity(partial_trace(rho, mask))
            assert 0.0 < p <= 1.0 + 1e-10


class TestHsNormSq:
    def test_values(self):
        assert hs_norm_sq(np.zeros((3, 3))) == 0.0
        assert abs(hs_norm_sq(np.eye(5)) - 5.0) < 1e-15
        assert abs(hs_norm_sq(SX) - 2.0) < 1e-15


class TestValidateDensity:
    def test_accepts_maximally_mixed(self):
        ctx = PartitionContext(2, 2)
        dm = validate_density(np.eye(4) / 4, ctx)
        assert isinstance(dm, DensityMatrix)
        assert not dm.mat.flags.writeable

    def test_negative_eigenvalue_diagnostic(self):
        ctx = PartitionContext(1, 2)
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError) as err:
            validate_density(bad, ctx)
        assert err.value.invariant == "positivity"
        assert abs(err.value.magnitude - (-0.5)) < 1e-12

    def test_trace_diagnostic(self):
        ctx = PartitionContext(1, 2)
        with pytest.raises(ValidationError) as err:
            validate_density(np.eye(2) * 0.5 * (1 + 1e-6), ctx)
        assert err.value.invariant == "trace"

    def test_hermiticity_diagnostic(self):
        ctx = PartitionContext(1, 2)
        bad = np.eye(2) / 2 + np.array([[0, 1e-6], [0, 0]])
        with pytest.raises(ValidationError) as err:
            validate_density(bad, ctx)
        assert err.value.invariant == "hermiticity"
        assert err.value.as_dict()["invariant"] == "hermiticity"

    def test_shape_diagnostic(self):
        ctx = PartitionContext(2, 2)
        with pytest.raises(ValidationError) as err:
            validate_density(np.eye(3) / 3, ctx)
        assert err.value.invariant == "shape"

    def test_tolerance_overrides(self):
        ctx = PartitionContext(1, 2)
        near = np.diag([1.0 + 5e-7, -5e-7]).astype(complex)
        near /= near.trace()
        with pytest.raises(ValidationError):
            validate_density(near, ctx)
        dm = validate_density(near, ctx, positivity_tol=1e-4)
        assert isinstance(dm, DensityMatrix)

    @pytest.mark.parametrize("name", ["hermiticity_tol", "trace_tol",
                                      "positivity_tol", "imag_tol"])
    @pytest.mark.parametrize("tol", [np.nan, -1.0, -1e-12, np.inf, "1e-10", None,
                                     True, False])
    def test_bad_tolerance_rejected(self, name, tol):
        # a NaN tolerance used to pass every matrix: no dev > NaN is true;
        # True, a numbers.Real, used to pass this one as 1.0
        ctx = PartitionContext(1, 2)
        if name == "imag_tol":
            # the transform's reality check shares the rule; True used to
            # pass this matrix's imaginary residue of 0.4 (its y coefficient)
            rho = DensityMatrix(ctx, [[0.5, 0.2], [0.6, 0.5]])
            call = lambda: all_tensors(rho, imag_tol=tol)
        else:
            bad = np.diag([1.5, -0.5])
            call = lambda: validate_density(bad, ctx, **{name: tol})
        with pytest.raises(ValueError, match="tolerance must be a finite") as err:
            call()
        assert not isinstance(err.value, ValidationError)

    def test_zero_tolerances_accepted(self):
        dm = validate_density(np.eye(2) / 2, PartitionContext(1, 2),
                              hermiticity_tol=0, trace_tol=0.0,
                              positivity_tol=np.float64(0.0))
        assert isinstance(dm, DensityMatrix)


class TestFiniteInvariant:
    @pytest.mark.parametrize("pos,value", [((0, 0), np.nan), ((0, 1), np.nan),
                                           ((2, 2), np.inf), ((3, 1), -np.inf)])
    def test_non_finite_entry_rejected_first(self, pos, value):
        # NaN compares false, so without this check a diagonal NaN passed
        # every later test and an off-diagonal one crashed eigvalsh
        ctx = PartitionContext(2, 2)
        m = np.eye(4, dtype=complex) / 4
        m[pos] = value
        with pytest.raises(ValidationError) as err:
            validate_density(m, ctx)
        assert err.value.invariant == "finite"
        assert err.value.magnitude == 1.0
        assert err.value.tolerance == 0.0

    def test_nan_imaginary_part_rejected(self):
        ctx = PartitionContext(1, 2)
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = complex(0.0, np.nan)
        with pytest.raises(ValidationError) as err:
            validate_density(m, ctx)
        assert err.value.invariant == "finite"


class TestDensityMatrix:
    def test_copy_is_immutable(self):
        ctx = PartitionContext(1, 2)
        src = np.eye(2, dtype=complex) / 2
        dm = DensityMatrix(ctx, src)
        src[0, 0] = 99.0
        assert dm.mat[0, 0] == 0.5
        with pytest.raises(ValueError):
            dm.mat[0, 0] = 1.0

    def test_shape_checked(self):
        ctx = PartitionContext(2, 2)
        with pytest.raises(ValueError, match="4 x 4"):
            DensityMatrix(ctx, np.eye(3))
