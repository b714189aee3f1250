"""Tests for the single-party generator array and operator strings.

The d = 2 case is pinned to the literal Pauli matrices and orthonormality
is checked through an independently computed Gram matrix.
"""

import numpy as np
import pytest

from blochbounds.generators import (
    apply_local_unitaries,
    operator_string,
    su_generators,
)
from blochbounds.linalg import DensityMatrix, PartitionContext

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


class TestConstruction:
    def test_qubit_basis_is_pauli_xyz(self):
        basis = su_generators(2)
        assert len(basis) == 3
        assert np.array_equal(basis[0], SX)
        assert np.array_equal(basis[1], SY)
        assert np.array_equal(basis[2], SZ)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_count_hermitian_traceless(self, d):
        basis = su_generators(d)
        assert basis.shape == (d * d - 1, d, d)
        assert basis.dtype == np.complex128
        for g in basis:
            assert np.array_equal(g, g.conj().T)
            assert abs(g.trace()) < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gram_matrix(self, d):
        # Tr[g_a g_b] = 2 delta_ab, computed without any package helper
        basis = su_generators(d)
        k = len(basis)
        gram = np.empty((k, k))
        for a in range(k):
            for b in range(k):
                gram[a, b] = np.trace(basis[a] @ basis[b]).real
        assert np.allclose(gram, 2 * np.eye(k), atol=1e-12)

    def test_qutrit_diagonal_generators(self):
        basis = su_generators(3)
        # diagonal block starts after 3 symmetric + 3 antisymmetric entries
        d1 = np.diag([1.0, -1.0, 0.0])
        d2 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(3)
        assert np.allclose(basis[6], d1, atol=1e-15)
        assert np.allclose(basis[7], d2, atol=1e-15)

    def test_rejects_trivial_dimension(self):
        with pytest.raises(ValueError):
            su_generators(1)

    def test_arrays_read_only(self):
        basis = su_generators(2)
        with pytest.raises(ValueError):
            basis[0][0, 0] = 5.0
        with pytest.raises(ValueError):
            basis[1] = SX


class TestEmbed:
    """One generator embedded at one position: a single-entry operator string."""

    def test_single_position(self):
        ctx = PartitionContext(2, 2)
        basis = su_generators(2)
        assert np.array_equal(operator_string(basis, {1: 2}, ctx),
                              np.kron(SZ, np.eye(2)))
        assert np.array_equal(operator_string(basis, {2: 0}, ctx),
                              np.kron(np.eye(2), SX))

    def test_range_checks(self):
        ctx = PartitionContext(2, 2)
        basis = su_generators(2)
        with pytest.raises(ValueError, match="generator index 3"):
            operator_string(basis, {1: 3}, ctx)
        with pytest.raises(ValueError, match="position 0"):
            operator_string(basis, {0: 0}, ctx)
        with pytest.raises(ValueError, match="position 3"):
            operator_string(basis, {3: 0}, ctx)


class TestOperatorString:
    def test_two_site_string(self):
        ctx = PartitionContext(3, 2)
        basis = su_generators(2)
        got = operator_string(basis, {1: 2, 2: 2}, ctx)
        assert np.array_equal(got, np.kron(np.kron(SZ, SZ), np.eye(2)))

    def test_full_string(self):
        ctx = PartitionContext(3, 2)
        basis = su_generators(2)
        got = operator_string(basis, {1: 0, 2: 0, 3: 0}, ctx)
        assert np.array_equal(got, np.kron(np.kron(SX, SX), SX))

    def test_equals_product_of_embeds(self):
        ctx = PartitionContext(3, 3)
        basis = su_generators(3)
        got = operator_string(basis, {1: 4, 3: 7}, ctx)
        expect = (operator_string(basis, {1: 4}, ctx)
                  @ operator_string(basis, {3: 7}, ctx))
        assert np.allclose(got, expect, atol=1e-14)

    def test_outputs_hermitian(self):
        ctx = PartitionContext(2, 3)
        basis = su_generators(3)
        for assignment in ({1: 0}, {2: 5}, {1: 3, 2: 7}):
            s = operator_string(basis, assignment, ctx)
            assert np.abs(s - s.conj().T).max() < 1e-14

    def test_empty_assignment_rejected(self):
        ctx = PartitionContext(2, 2)
        with pytest.raises(ValueError, match="at least one"):
            operator_string(su_generators(2), {}, ctx)

    def test_dimension_mismatch_rejected(self):
        ctx = PartitionContext(2, 3)
        with pytest.raises(ValueError, match="dimension"):
            operator_string(su_generators(2), {1: 0}, ctx)


class TestApplyLocalUnitaries:
    def test_identity_locals_are_noop(self):
        ctx = PartitionContext(2, 2)
        rho = DensityMatrix(ctx, np.eye(4) / 4)
        out = apply_local_unitaries(rho, [np.eye(2), np.eye(2)])
        assert np.allclose(out.mat, rho.mat)

    def test_preserves_spectrum(self):
        ctx = PartitionContext(2, 2)
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(ctx, m / m.trace())
        # phase-fixed QR gives a Haar unitary, good enough for a spectrum check
        q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
        out = apply_local_unitaries(rho, [u, np.eye(2)])
        assert np.allclose(np.linalg.eigvalsh(out.mat), np.linalg.eigvalsh(rho.mat),
                           atol=1e-12)

    def test_wrong_count_rejected(self):
        ctx = PartitionContext(2, 2)
        rho = DensityMatrix(ctx, np.eye(4) / 4)
        with pytest.raises(ValueError):
            apply_local_unitaries(rho, [np.eye(2)])
