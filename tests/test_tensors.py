"""Tests for correlation tensors and the purity identities.

The GHZ sector values are checked against a fully independent oracle that
builds Pauli strings with literal np.kron calls, and the expansion itself is
verified by resumming every sector back into the density matrix.
"""

import itertools

import numpy as np
import pytest

from blochbounds.generators import (
    apply_local_unitaries,
    operator_string,
    su_generators,
)
from blochbounds.linalg import (
    DensityMatrix,
    PartitionContext,
    ValidationError,
    nonempty_masks,
    partial_trace,
    parties_from_mask,
    purity,
    subset_size,
)
from blochbounds.bounds import purity_from_tensors, reduced_purity_from_tensors
from blochbounds.tensors import CorrelationTensorSet, all_tensors, correlation_tensor

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (SX, SY, SZ)


def ghz_state(n=3, d=2):
    dim = d ** n
    v = np.zeros(dim, dtype=complex)
    step = (dim - 1) // (d - 1)  # positions k * (1 + d + ... + d^(n-1))
    for k in range(d):
        v[k * step] = 1.0
    v /= np.sqrt(d)
    return DensityMatrix(PartitionContext(n, d), np.outer(v, v.conj()))


def random_state(ctx, rng, rank=None):
    dim = ctx.total_dim
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return DensityMatrix(ctx, m / m.trace())


def haar_local(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class TestSingleSectors:
    def test_maximally_mixed_all_zero(self):
        ctx = PartitionContext(2, 3)
        rho = DensityMatrix(ctx, np.eye(9) / 9)
        for mask in nonempty_masks(2):
            t = correlation_tensor(rho, mask)
            assert np.abs(t).max() < 1e-14

    def test_single_qubit_ground_state(self):
        ctx = PartitionContext(1, 2)
        rho = DensityMatrix(ctx, np.diag([1.0, 0.0]).astype(complex))
        t = correlation_tensor(rho, 0b1)
        assert np.allclose(t, [0.0, 0.0, 1.0], atol=1e-14)

    def test_tensor_shapes(self):
        rho = ghz_state(3, 2)
        assert correlation_tensor(rho, 0b001).shape == (3,)
        assert correlation_tensor(rho, 0b011).shape == (3, 3)
        assert correlation_tensor(rho, 0b111).shape == (3, 3, 3)

    def test_ghz_against_pauli_oracle(self):
        # every sector entry of the 3-qubit GHZ state, from literal kron
        rho = ghz_state(3, 2)
        mat = rho.mat
        eye = np.eye(2, dtype=complex)
        for mask in nonempty_masks(3):
            parties = parties_from_mask(mask)
            t = correlation_tensor(rho, mask)
            for idx in itertools.product(range(3), repeat=len(parties)):
                assigned = dict(zip(parties, idx))
                factors = [PAULIS[assigned[p]] if p in assigned else eye
                           for p in (1, 2, 3)]
                string = np.kron(np.kron(factors[0], factors[1]), factors[2])
                expect = np.trace(mat @ string).real
                assert abs(t[idx] - expect) < 1e-13

    def test_ghz_sector_values(self):
        rho = ghz_state(3, 2)
        singles = [correlation_tensor(rho, m) for m in (0b001, 0b010, 0b100)]
        for t in singles:
            assert np.abs(t).max() < 1e-14
        for mask in (0b011, 0b101, 0b110):
            t = correlation_tensor(rho, mask)
            expect = np.zeros((3, 3))
            expect[2, 2] = 1.0
            assert np.allclose(t, expect, atol=1e-13)
        t = correlation_tensor(rho, 0b111)
        # party order is (1, 2, 3) on the axes; x = 0, y = 1
        assert abs(t[0, 0, 0] - 1.0) < 1e-13
        for idx in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            assert abs(t[idx] + 1.0) < 1e-13
        assert abs(float((t ** 2).sum()) - 4.0) < 1e-12

    def test_imaginary_residue_rejected(self):
        ctx = PartitionContext(1, 2)
        # deliberately non-Hermitian; bypasses validate_density on purpose
        bad = DensityMatrix(ctx, np.array([[0.5, 0.3], [0.0, 0.5]]))
        with pytest.raises(ValidationError) as err:
            correlation_tensor(bad, 0b1)
        assert err.value.invariant == "tensor-reality"

    def test_mask_bounds(self):
        rho = ghz_state(2, 2)
        with pytest.raises(ValueError):
            correlation_tensor(rho, 0)
        with pytest.raises(ValueError):
            correlation_tensor(rho, 0b100)


class TestAllTensors:
    def test_sector_count_and_norm_cache(self):
        rho = ghz_state(3, 2)
        ts = all_tensors(rho)
        assert set(ts.sectors) == set(range(1, 8))
        for mask, t in ts.sectors.items():
            assert abs(ts.norms_sq[mask] - float((t ** 2).sum())) < 1e-12
        assert abs(ts.norm_sq_by_size(1)) < 1e-13
        assert abs(ts.norm_sq_by_size(2) - 3.0) < 1e-12
        assert abs(ts.norm_sq_by_size(3) - 4.0) < 1e-12
        # |000>: only the all-z entries, one per subset, so n_l = C(3, l)
        product = np.zeros((8, 8), dtype=complex)
        product[0, 0] = 1.0
        ts = all_tensors(DensityMatrix(PartitionContext(3, 2), product))
        for size, count in ((1, 3), (2, 3), (3, 1)):
            assert abs(ts.norm_sq_by_size(size) - count) < 1e-12

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3)])
    def test_reconstruction(self, n, d):
        # resum every sector with literal kron strings and compare to rho
        ctx = PartitionContext(n, d)
        rho = random_state(ctx, np.random.default_rng(40 + 10 * n + d), rank=2)
        ts = all_tensors(rho)
        basis = su_generators(d)
        eye = np.eye(d, dtype=complex)
        acc = np.eye(ctx.total_dim, dtype=complex)
        for mask, t in ts.sectors.items():
            parties = parties_from_mask(mask)
            for idx in itertools.product(range(d * d - 1), repeat=len(parties)):
                assigned = dict(zip(parties, idx))
                string = np.eye(1, dtype=complex)
                for pos in range(1, n + 1):
                    string = np.kron(string,
                                     basis[assigned[pos]] if pos in assigned else eye)
                acc += t[idx] * string
        assert np.allclose(acc / d ** n, rho.mat, atol=1e-10)

    def test_sectors_read_only(self):
        ts = all_tensors(ghz_state(2, 2))
        with pytest.raises(ValueError):
            ts.sectors[1][0] = 7.0
        with pytest.raises(TypeError):
            ts.sectors[9] = None

    def test_payload_schema(self):
        ts = all_tensors(ghz_state(2, 2))
        payload = ts.as_payload()
        assert [p["subset"] for p in payload] == [[1], [2], [1, 2]]
        two_party = payload[2]
        assert two_party["shape"] == [3, 3]
        assert len(two_party["entries"]) == 9
        assert abs(two_party["norm_sq"] - 3.0) < 1e-12
        assert all(isinstance(x, float) for x in two_party["entries"])


class TestPurityIdentities:
    def test_maximally_mixed(self):
        ctx = PartitionContext(3, 2)
        ts = all_tensors(DensityMatrix(ctx, np.eye(8) / 8))
        assert abs(purity_from_tensors(ts) - 1 / 8) < 1e-14

    def test_pure_states(self):
        assert abs(purity_from_tensors(all_tensors(ghz_state(3, 2))) - 1.0) < 1e-12
        ctx = PartitionContext(3, 2)
        v = np.zeros(8, dtype=complex)
        v[0], v[7] = np.sqrt(0.7), np.sqrt(0.3)
        mixed = DensityMatrix(ctx, 0.7 * np.diag([1, 0, 0, 0, 0, 0, 0, 0.0])
                              + 0.3 * np.diag([0, 0, 0, 0, 0, 0, 0, 1.0]))
        assert abs(purity_from_tensors(all_tensors(mixed)) - 0.58) < 1e-12

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
    def test_full_purity_matches_direct(self, n, d):
        ctx = PartitionContext(n, d)
        rng = np.random.default_rng(60 + 10 * n + d)
        for rank in (1, 2, ctx.total_dim):
            rho = random_state(ctx, rng, rank=rank)
            ts = all_tensors(rho)
            assert abs(purity_from_tensors(ts) - purity(rho)) < 1e-10

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
    def test_reduced_purity_matches_partial_trace(self, n, d):
        ctx = PartitionContext(n, d)
        rho = random_state(ctx, np.random.default_rng(80 + 10 * n + d), rank=3)
        ts = all_tensors(rho)
        for mask in range(1, ctx.full_mask):
            direct = purity(partial_trace(rho, mask))
            assert abs(reduced_purity_from_tensors(ts, mask) - direct) < 1e-10

    def test_ghz_reduced_purities(self):
        ts = all_tensors(ghz_state(3, 2))
        for mask in range(1, 7):
            assert abs(reduced_purity_from_tensors(ts, mask) - 0.5) < 1e-12

    def test_full_mask_rejected(self):
        ts = all_tensors(ghz_state(2, 2))
        with pytest.raises(ValueError):
            reduced_purity_from_tensors(ts, 0b11)

    def test_reduction_sectors_match_full_state_sectors(self):
        # tracing out parties must not move the kept parties' tensors
        ctx = PartitionContext(3, 2)
        rho = random_state(ctx, np.random.default_rng(5), rank=4)
        ts = all_tensors(rho)
        red = partial_trace(rho, 0b011)
        red_ts = all_tensors(red)
        assert np.allclose(red_ts.sectors[0b01], ts.sectors[0b001], atol=1e-12)
        assert np.allclose(red_ts.sectors[0b10], ts.sectors[0b010], atol=1e-12)
        assert np.allclose(red_ts.sectors[0b11], ts.sectors[0b011], atol=1e-12)


class TestInvariances:
    @pytest.mark.parametrize("n,d", [(3, 2), (2, 3)])
    def test_local_unitary_invariance_of_norms(self, n, d):
        ctx = PartitionContext(n, d)
        rng = np.random.default_rng(200 + 10 * n + d)
        for _ in range(5):
            rho = random_state(ctx, rng, rank=2)
            rotated = apply_local_unitaries(rho, [haar_local(rng, d) for _ in range(n)])
            ts, ts_rot = all_tensors(rho), all_tensors(rotated)
            for mask in nonempty_masks(n):
                assert abs(ts.norms_sq[mask] - ts_rot.norms_sq[mask]) < 1e-9

    def test_party_permutation_covariance(self):
        # swapping parties permutes sector masks but not the norm multiset
        ctx = PartitionContext(3, 2)
        rho = random_state(ctx, np.random.default_rng(33), rank=3)
        perm = rho.mat.reshape((2,) * 6).transpose(1, 2, 0, 4, 5, 3).reshape(8, 8)
        ts, ts_perm = all_tensors(rho), all_tensors(DensityMatrix(ctx, perm))
        for size in (1, 2, 3):
            mine = sorted(v for m, v in ts.norms_sq.items() if subset_size(m) == size)
            theirs = sorted(v for m, v in ts_perm.norms_sq.items()
                            if subset_size(m) == size)
            assert np.allclose(mine, theirs, atol=1e-12)


def oracle_coefficients(rho):
    """{mask: complex tensor} from one literal operator string per entry."""
    ctx = rho.ctx
    d = ctx.local_dim
    basis = su_generators(d)
    out = {}
    for mask in nonempty_masks(ctx.n_parties):
        parties = parties_from_mask(mask)
        t = np.empty((d * d - 1,) * len(parties), dtype=complex)
        for idx in itertools.product(range(d * d - 1), repeat=len(parties)):
            string = operator_string(basis, dict(zip(parties, idx)), ctx)
            t[idx] = (d / 2.0) ** len(parties) * np.einsum("ij,ji->", rho.mat, string)
        out[mask] = t
    return out


class TestModeWiseTransform:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)])
    def test_matches_operator_string_oracle(self, n, d):
        ctx = PartitionContext(n, d)
        rng = np.random.default_rng(300 + 10 * n + d)
        for rank in (1, 4):
            rho = random_state(ctx, rng, rank=rank)
            ts = all_tensors(rho)
            for mask, expect in oracle_coefficients(rho).items():
                assert ts.sectors[mask].shape == expect.shape
                assert np.abs(ts.sectors[mask] - expect.real).max() <= 1e-14

    @pytest.mark.parametrize("d", [2, 3])
    def test_reality_magnitude_is_worst_residue(self, d):
        ctx = PartitionContext(2, d)
        rng = np.random.default_rng(70 + d)
        rho = random_state(ctx, rng, rank=2)
        g = rng.standard_normal((d * d,) * 2) + 1j * rng.standard_normal((d * d,) * 2)
        bad = DensityMatrix(ctx, rho.mat + 1e-6 * g)
        worst = max(np.abs(t.imag).max() for t in oracle_coefficients(bad).values())
        with pytest.raises(ValidationError) as err:
            all_tensors(bad)
        assert err.value.invariant == "tensor-reality"
        assert err.value.tolerance == 1e-10
        assert abs(err.value.magnitude - worst) <= 1e-9 * worst

    def test_residue_just_below_tolerance_passes(self):
        # i * eps * (Z x Z) leaves one imaginary coefficient, 4 * eps, on (z, z)
        ctx = PartitionContext(2, 2)
        zz = np.kron(SZ, SZ)
        rho = np.eye(4) / 4
        ok = DensityMatrix(ctx, rho + 1j * (0.9e-10 / 4) * zz)
        assert np.abs(all_tensors(ok).sectors[0b11]).max() < 1e-14
        bad = DensityMatrix(ctx, rho + 1j * (1.1e-10 / 4) * zz)
        with pytest.raises(ValidationError) as err:
            all_tensors(bad)
        assert err.value.invariant == "tensor-reality"
        assert abs(err.value.magnitude - 1.1e-10) < 1e-20
        assert "entry (2, 2) of subset [1, 2]" in str(err.value)

    def test_nan_cannot_pass_reality_check(self):
        ctx = PartitionContext(2, 2)
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = np.nan
        with pytest.raises(ValidationError) as err:
            all_tensors(DensityMatrix(ctx, m))
        assert err.value.invariant == "tensor-reality"
        with pytest.raises(ValidationError):
            correlation_tensor(DensityMatrix(ctx, m), 0b01)

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (2, 3), (3, 3)])
    def test_correlation_tensor_equals_sector(self, n, d):
        ctx = PartitionContext(n, d)
        rho = random_state(ctx, np.random.default_rng(400 + 10 * n + d), rank=2)
        ts = all_tensors(rho)
        for mask in nonempty_masks(n):
            t = correlation_tensor(rho, mask)
            assert t.shape == ts.sectors[mask].shape
            assert np.abs(t - ts.sectors[mask]).max() <= 1e-14

    def test_default_mode_built_once_per_dimension(self):
        from blochbounds import tensors

        mode = tensors._default_mode(3)
        assert tensors._default_mode(3) is mode
        assert not mode.flags.writeable
        assert mode.shape == (9, 9)

    def test_large_default_mode_not_kept(self):
        from blochbounds import tensors

        d = tensors._MODE_CACHE_MAX_DIM + 1
        mode = tensors._default_mode(d)
        assert not mode.flags.writeable
        assert tensors._default_mode(d) is not mode
        assert d not in tensors._default_modes
        np.testing.assert_array_equal(tensors._default_mode(d), mode)


def _root(a):
    while a.base is not None:
        a = a.base
    return a


class TestSectorViewsAndNorms:
    SHAPES = [(1, 2), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5)]

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_sectors_are_read_only_views_of_one_array(self, n, d):
        ctx = PartitionContext(n, d)
        ts = all_tensors(random_state(ctx, np.random.default_rng(500 + n), rank=2))
        roots = {id(_root(t)) for t in ts.sectors.values()}
        assert len(roots) == 1
        full = ts.sectors[ctx.full_mask]
        for t in ts.sectors.values():
            assert not t.flags.writeable
            assert t.dtype == np.float64
            assert np.shares_memory(t, _root(full))
            with pytest.raises(ValueError):
                t[(0,) * t.ndim] = 1.0
        # the root is the float copy itself, not a view of the complex product
        root = _root(full)
        assert root.dtype == np.float64 and root.flags.owndata
        assert not root.flags.writeable
        assert root.nbytes == 8 * d ** (2 * n)

    @pytest.mark.parametrize("n,d", SHAPES)
    @pytest.mark.parametrize("rank", [1, 4, None])
    def test_norms_equal_sector_sums_of_squares(self, n, d, rank):
        ctx = PartitionContext(n, d)
        rank = None if rank is None else min(rank, ctx.total_dim)
        ts = all_tensors(random_state(ctx, np.random.default_rng(600 + 10 * n + d),
                                      rank=rank))
        assert list(ts.norms_sq) == list(nonempty_masks(n))
        for mask, t in ts.sectors.items():
            expect = float(np.sum(t * t))
            assert abs(ts.norms_sq[mask] - expect) <= 1e-14 * expect
        for size in range(n + 1):
            expect = sum(v for m, v in ts.norms_sq.items() if subset_size(m) == size)
            assert ts.norm_sq_by_size(size) == expect

    def test_hand_built_set_ignores_later_mutation(self):
        ctx = PartitionContext(2, 2)
        mine = np.zeros((4, 4))
        mine[0, 0] = 1.0
        mine[1:, 0] = 1.0
        mine[0, 1:] = 2.0
        mine[1:, 1:] = np.eye(3)
        ts = CorrelationTensorSet(ctx, mine)
        mine[1:, 0] = 7.0
        mine[1, 1] = -1.0
        assert np.array_equal(ts.sectors[1], np.ones(3))
        assert np.array_equal(ts.sectors[2], np.full(3, 2.0))
        assert np.array_equal(ts.sectors[3], np.eye(3))
        assert dict(ts.norms_sq) == {1: 3.0, 2: 12.0, 3: 3.0}
        assert ts.norm_sq_by_size(1) == 15.0
        for t in ts.sectors.values():
            assert not t.flags.writeable
        # a read-only view of a writable array is still the caller's to change
        behind = np.ones((4, 4))
        view = behind.view()
        view.setflags(write=False)
        ts = CorrelationTensorSet(ctx, view)
        behind[:] = 7.0
        assert not np.shares_memory(ts.coefficients, behind)
        assert np.array_equal(ts.sectors[3], np.ones((3, 3)))
        assert ts.norms_sq[3] == 9.0

    def test_hand_built_set_copies_non_float_input(self):
        ctx = PartitionContext(1, 2)
        ints = np.arange(4)
        ints.setflags(write=False)
        ts = CorrelationTensorSet(ctx, ints)
        assert ts.coefficients.dtype == np.float64
        assert not np.shares_memory(ts.coefficients, ints)
        assert not ts.coefficients.flags.writeable
        assert ts.sectors[1].dtype == np.float64
        assert not ts.sectors[1].flags.writeable
        assert ts.norms_sq[1] == 14.0

    def test_frozen_owning_array_is_kept(self):
        ctx = PartitionContext(2, 3)
        coeffs = np.arange(81.0).reshape(9, 9).copy()
        coeffs.setflags(write=False)
        ts = CorrelationTensorSet(ctx, coeffs)
        assert ts.coefficients is coeffs
        assert np.shares_memory(ts.sectors[3], coeffs)

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (3, 4), (4, 4, 4), (16,)])
    def test_wrong_shape_raises(self, shape):
        with pytest.raises(ValueError, match="shape"):
            CorrelationTensorSet(PartitionContext(2, 2), np.ones(shape))

    def test_sector_dict_with_own_norms_is_rejected(self):
        # this set once gave a concurrence bound of 6.92 from a norm of 99
        # that no sector had
        ctx = PartitionContext(3, 2)
        sectors = {1: np.ones(3), 7: np.ones((2, 2))}
        with pytest.raises(TypeError):
            CorrelationTensorSet(ctx, sectors, {1: 3.0, 7: 99.0})
        with pytest.raises(TypeError):
            CorrelationTensorSet(ctx, sectors)

    @pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (2, 3), (2, 4)])
    def test_hand_built_norms_are_sector_sums_of_squares(self, n, d):
        ctx = PartitionContext(n, d)
        coeffs = np.random.default_rng(70 + n + d).standard_normal((d * d,) * n)
        ts = CorrelationTensorSet(ctx, coeffs)
        assert list(ts.norms_sq) == list(nonempty_masks(n))
        for mask, t in ts.sectors.items():
            expect = float(np.sum(t * t))
            assert abs(ts.norms_sq[mask] - expect) <= 1e-13 * expect

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 2), (3, 1)])
    def test_non_finite_entry_raises_finite(self, bad, entry):
        coeffs = np.zeros((4, 4))
        coeffs[0, 0] = 1.0
        coeffs[entry] = bad
        with pytest.raises(ValidationError) as info:
            CorrelationTensorSet(PartitionContext(2, 2), coeffs)
        assert info.value.invariant == "finite"
        assert info.value.magnitude >= 1

    @pytest.mark.parametrize("n,d,entry,count", [
        (2, 2, (0, 2), 2), (2, 2, (3, 1), 2), (3, 2, (1, 0, 0), 4),
        (3, 2, (0, 0, 3), 4), (2, 3, (4, 0), 2)])
    def test_nan_coefficient_counts_every_folded_norm_it_reaches(
            self, n, d, entry, count):
        # 0 * NaN is NaN, so the fold spreads the NaN to every norm on its
        # path, the trace term included, and the check counts each of them
        coeffs = np.zeros((d * d,) * n)
        coeffs[(0,) * n] = 1.0
        coeffs[entry] = np.nan
        with pytest.raises(ValidationError) as info:
            CorrelationTensorSet(PartitionContext(n, d), coeffs)
        assert info.value.invariant == "finite"
        assert info.value.magnitude == count

    @pytest.mark.parametrize("n,d", [(1, 2), (3, 2), (2, 3)])
    def test_size_outside_zero_to_n_reads_zero(self, n, d):
        coeffs = np.random.default_rng(90 + n + d).standard_normal((d * d,) * n)
        ts = CorrelationTensorSet(PartitionContext(n, d), coeffs)
        assert ts.norm_sq_by_size(0) == 0.0
        assert all(ts.norm_sq_by_size(size) > 0.0 for size in range(1, n + 1))
        # a negative size must not wrap around to the largest sectors
        for size in (-n - 2, -n - 1, -n, -2, -1, n + 1, n + 2, 2 ** n):
            assert ts.norm_sq_by_size(size) == 0.0

    def test_private_norms_are_read_only(self):
        ts = all_tensors(random_state(PartitionContext(3, 2),
                                      np.random.default_rng(91), rank=2))
        assert not ts._norms.flags.writeable
        with pytest.raises(ValueError):
            ts._norms[1] = 0.0
        assert ts._norms.tolist()[1:] == list(ts.norms_sq.values())

    def test_analyze_builds_neither_norms_sq_nor_sectors(self, monkeypatch):
        from blochbounds import bounds

        made = []

        def capture(rho, imag_tol=bounds.IMAG_TOL):
            made.append(all_tensors(rho, imag_tol))
            return made[-1]

        monkeypatch.setattr(bounds, "all_tensors", capture)
        rho = random_state(PartitionContext(3, 2), np.random.default_rng(92),
                           rank=2)
        bounds.analyze(rho)
        (ts,) = made
        assert "norms_sq" not in ts.__dict__
        assert "sectors" not in ts.__dict__
        # both are still there on first access, and cached from then on
        assert ts.norms_sq is ts.norms_sq and ts.sectors is ts.sectors
        assert {"norms_sq", "sectors"} <= set(ts.__dict__)
