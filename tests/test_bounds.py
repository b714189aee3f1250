"""Tests for the bounds engine.

Frozen expected values were computed independently before implementation:
GHZ concurrence sqrt(3/2), W concurrence sqrt(4/3), the noisy-GHZ closed
form (1/2) sqrt(6 - 25 x + 12.5 x^2), detection level sqrt(2 - 2/d) for
three parties and (1/2) sqrt(7.5) for four qubits, and the paper's
coefficient table for (N, d) = (3, 2), which checks the test-side sector-norm
form (the ``paper_coefficients`` fixture).
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from blochbounds import bounds, tensors
from blochbounds.bounds import (
    ENTANGLED,
    GENUINELY_MULTIPARTITE,
    INCONCLUSIVE,
    analyze,
    concurrence_lower_bound,
    convex_roof_upper_estimate,
    detect,
    gme_threshold,
    pure_concurrence_purity,
    random_decomposition,
    reduced_purity_sum,
    tangle_bounds,
    white_noise_crossing,
)
from blochbounds.generators import apply_local_unitaries, su_generators
from blochbounds.linalg import (
    DensityMatrix,
    PartitionContext,
    ValidationError,
    partial_trace,
    purity,
)
from blochbounds.states import (
    StateSpec,
    haar_random_pure,
    haar_unitary,
    make_state,
    random_mixed,
)
from blochbounds.tensors import (
    all_tensors,
    correlation_tensor,
    reduced_purity_sum_from_norms,
)

GHZ_CONCURRENCE = 1.224744871391589  # sqrt(3/2)
W_CONCURRENCE = 1.1547005383792515   # sqrt(4/3)
THR_4_QUBITS = 1.3693063937629153    # (1/2) sqrt(7.5)


def ghz3():
    return make_state(StateSpec("ghz", PartitionContext(3, 2)))


def noisy_ghz(x):
    return make_state(StateSpec("ghz_noise", PartitionContext(3, 2), {"x": x}))


def closed_form(x):
    r = 6.0 - 25.0 * x + 12.5 * x * x
    return math.copysign(0.5 * math.sqrt(abs(r)), r)


def maximally_mixed(n, d):
    ctx = PartitionContext(n, d)
    return DensityMatrix(ctx, np.eye(ctx.total_dim) / ctx.total_dim)


class TestCoefficients:
    """The paper's k_l form, kept in the tests as the reference for the
    package's two-purity gap."""

    def test_three_qubit_values(self, paper_coefficients):
        assert paper_coefficients(3, 2) == (3.25, {2: 0.75, 3: 1.0})

    def test_two_qubit_values(self, paper_coefficients):
        assert paper_coefficients(2, 2) == (0.5, {2: 0.5})

    def test_nonnegative_up_to_six_parties(self, paper_coefficients):
        for n in range(2, 7):
            for d in range(2, 6):
                _, per_level = paper_coefficients(n, d)
                assert all(v >= 0 for v in per_level.values()), (n, d)
                assert set(per_level) == set(range(2, n + 1))

    def test_ghz_consistency(self, paper_gap):
        # -K + sum k_l ||T||^2 must equal 2^(N-2) times the squared concurrence
        rho = ghz3()
        lhs = paper_gap(all_tensors(rho))
        rhs = 2.0 * pure_concurrence_purity(rho) ** 2
        assert abs(lhs - 3.0) < 1e-12
        assert abs(lhs - rhs) < 1e-12
        assert abs(tangle_bounds(all_tensors(rho))[0] - lhs / 2.0) < 1e-12

    def test_single_party_rejected(self):
        # the two-purity gap would silently read 0 for one party
        rho = random_mixed(PartitionContext(1, 2), None, 1)
        ts = all_tensors(rho)
        for call in (lambda: concurrence_lower_bound(ts),
                     lambda: tangle_bounds(ts),
                     lambda: analyze(rho),
                     lambda: white_noise_crossing(rho, "entangled")):
            with pytest.raises(ValueError, match="at least two parties"):
                call()


class TestPureConcurrencePurity:
    def test_product_state_is_zero(self):
        rho = make_state(StateSpec("product", PartitionContext(3, 2)))
        assert pure_concurrence_purity(rho) == 0.0

    def test_bell_state(self):
        rho = make_state(StateSpec("bell", PartitionContext(2, 2)))
        assert abs(pure_concurrence_purity(rho) - 1.0) < 1e-12

    def test_ghz(self):
        assert abs(pure_concurrence_purity(ghz3()) - GHZ_CONCURRENCE) < 1e-12

    def test_w_state_and_marginals(self):
        rho = make_state(StateSpec("w", PartitionContext(3, 2)))
        for mask in range(1, 7):
            assert abs(purity(partial_trace(rho, mask)) - 5 / 9) < 1e-12
        assert abs(pure_concurrence_purity(rho) - W_CONCURRENCE) < 1e-12

    def test_rejects_mixed_input(self):
        with pytest.raises(ValidationError) as err:
            pure_concurrence_purity(maximally_mixed(2, 2))
        assert err.value.invariant == "purity"


class TestPureConcurrenceTensor:
    """On pure states the raw lower bound is the concurrence, unclamped."""

    def test_ghz_arithmetic(self):
        ts = all_tensors(ghz3())
        # radicand is -3.25 + 0.75 * 3 + 1.0 * 4 = 3
        assert abs(concurrence_lower_bound(ts)[1] - GHZ_CONCURRENCE) < 1e-12

    def test_product_state_is_zero(self):
        rho = make_state(StateSpec("product", PartitionContext(3, 2)))
        assert abs(concurrence_lower_bound(all_tensors(rho))[1]) < 1e-7

    @pytest.mark.parametrize("n,d,count", [
        (2, 2, 200), (3, 2, 200), (2, 3, 200),
        # thinner samples at the larger sizes keep the suite quick; the
        # acceptance suite runs the full 200 per its own combination list
        (4, 2, 25), (3, 3, 25), (4, 3, 5),
    ])
    def test_matches_purity_form(self, n, d, count):
        ctx = PartitionContext(n, d)
        rng = np.random.default_rng(1000 + 10 * n + d)
        worst = 0.0
        for _ in range(count):
            psi = haar_random_pure(ctx, rng)
            gap = abs(pure_concurrence_purity(psi)
                      - concurrence_lower_bound(all_tensors(psi))[1])
            worst = max(worst, gap)
        assert worst <= 1e-8


class TestConcurrenceLowerBound:
    def test_tight_on_pure_ghz(self):
        clamped, raw = concurrence_lower_bound(all_tensors(ghz3()))
        assert abs(raw - GHZ_CONCURRENCE) < 1e-12
        assert clamped == raw

    def test_noisy_ghz_closed_form(self):
        for i in range(16):
            x = 0.02 * i
            _, raw = concurrence_lower_bound(all_tensors(noisy_ghz(x)))
            assert abs(raw - closed_form(x)) < 1e-9, x

    def test_maximally_mixed(self):
        clamped, raw = concurrence_lower_bound(all_tensors(maximally_mixed(3, 2)))
        assert clamped == 0.0
        assert abs(raw - (-(2.0 ** -0.5) * math.sqrt(3.25))) < 1e-12

    def test_product_state_snaps_to_zero(self):
        rho = make_state(StateSpec("product", PartitionContext(3, 2)))
        clamped, raw = concurrence_lower_bound(all_tensors(rho))
        assert clamped == 0.0
        assert raw == 0.0

    def test_tight_on_random_pure_states(self):
        ctx = PartitionContext(3, 2)
        rng = np.random.default_rng(21)
        for _ in range(20):
            psi = haar_random_pure(ctx, rng)
            _, raw = concurrence_lower_bound(all_tensors(psi))
            assert abs(raw - pure_concurrence_purity(psi)) < 1e-9

    def test_raw_nonincreasing_in_noise(self):
        raws = []
        for i in range(41):
            x = 0.01 * i
            _, raw = concurrence_lower_bound(all_tensors(noisy_ghz(x)))
            raws.append(raw)
        assert all(b <= a + 1e-12 for a, b in zip(raws, raws[1:]))


class TestGmeThreshold:
    def test_three_party_values(self):
        for d in (2, 3, 4):
            ctx = PartitionContext(3, d, dim_cap=d ** 3)
            assert abs(gme_threshold(ctx) - math.sqrt(2 - 2 / d)) <= 1e-12

    def test_three_qubits_exact_one(self):
        assert gme_threshold(PartitionContext(3, 2)) == 1.0

    def test_four_qubits(self):
        assert abs(gme_threshold(PartitionContext(4, 2)) - THR_4_QUBITS) <= 1e-12

    def test_five_qubits_odd_branch(self):
        # radicand 32 - 4 + 1 - 2*(5/2) - 2*(10/4) = 19, prefactor 2^(2-5)
        assert abs(gme_threshold(PartitionContext(5, 2))
                   - math.sqrt(19 / 8)) <= 1e-12

    def test_bipartite_rejected(self):
        with pytest.raises(ValueError):
            gme_threshold(PartitionContext(2, 2))

    def test_party_guard(self):
        ctx = PartitionContext(21, 2, dim_cap=1 << 21)
        with pytest.raises(ValueError, match="20"):
            gme_threshold(ctx)


class TestTangleBounds:
    def test_pure_ghz_exact(self):
        rho = ghz3()
        raw, low, up = tangle_bounds(all_tensors(rho))
        assert abs(low - 1.5) < 1e-12
        assert abs(up - 1.5) < 1e-12
        assert raw == low

    def test_maximally_mixed(self):
        rho = maximally_mixed(3, 2)
        raw, low, up = tangle_bounds(all_tensors(rho))
        assert raw < 0
        assert low == 0.0
        assert up > 0

    def test_noisy_ghz_value(self):
        x = 0.1
        rho = noisy_ghz(x)
        raw, low, up = tangle_bounds(all_tensors(rho))
        expect = 0.25 * (6 - 25 * x + 12.5 * x * x)  # 2^(2-N) * gap
        assert abs(raw - expect) < 1e-12
        assert low <= up + 1e-9

    def test_squared_relation_to_concurrence(self):
        for x in (0.0, 0.1, 0.2):
            ts = all_tensors(noisy_ghz(x))
            _, c_raw = concurrence_lower_bound(ts)
            t_raw, _, _ = tangle_bounds(ts)
            assert abs(c_raw ** 2 - t_raw) < 1e-12

    def test_pure_equality_random(self):
        ctx = PartitionContext(3, 2)
        rng = np.random.default_rng(31)
        for _ in range(10):
            psi = haar_random_pure(ctx, rng)
            raw, low, up = tangle_bounds(all_tensors(psi))
            c = pure_concurrence_purity(psi)
            assert abs(low - up) < 1e-9
            assert abs(low - c * c) < 1e-9

    def test_sandwich_on_mixed(self):
        ctx = PartitionContext(3, 2)
        rng = np.random.default_rng(32)
        for i in range(10):
            rho = random_mixed(ctx, 1 + i % 8, rng)
            _, low, up = tangle_bounds(all_tensors(rho))
            assert low <= up + 1e-9


class TestDetect:
    def test_verdict_examples(self):
        assert analyze(noisy_ghz(0.05)).verdict == GENUINELY_MULTIPARTITE
        assert analyze(noisy_ghz(0.2)).verdict == ENTANGLED
        assert analyze(noisy_ghz(0.5)).verdict == INCONCLUSIVE

    def test_strict_inequalities(self):
        assert detect(1.0, 1.0) == ENTANGLED
        assert detect(1.0 + 1e-9, 1.0) == GENUINELY_MULTIPARTITE
        assert detect(0.0, 1.0) == INCONCLUSIVE
        assert detect(0.0) == INCONCLUSIVE
        assert detect(0.5) == ENTANGLED

    def test_verdict_monotone_along_noise(self):
        order = {GENUINELY_MULTIPARTITE: 2, ENTANGLED: 1, INCONCLUSIVE: 0}
        grades = [order[analyze(noisy_ghz(0.02 * i)).verdict] for i in range(51)]
        assert all(b <= a for a, b in zip(grades, grades[1:]))


class TestEnsembleDecomposition:
    def test_reconstruction(self):
        ctx = PartitionContext(3, 2)
        rho = random_mixed(ctx, 3, 5)
        for size in (3, 4, 5):
            weights, kets = random_decomposition(rho, size, np.random.default_rng(9))
            assert weights.shape == (size,)
            assert kets.shape == (ctx.total_dim, size)
            assert (weights > 0).all()
            assert abs(weights.sum() - 1.0) < 1e-12
            assert np.abs(np.linalg.norm(kets, axis=0) - 1.0).max() < 1e-12
            mix = (kets * weights) @ kets.conj().T
            assert np.abs(mix - rho.mat).max() < 1e-9

    def test_size_below_rank_rejected(self):
        rho = random_mixed(PartitionContext(2, 2), 3, 11)
        with pytest.raises(ValueError, match="rank"):
            random_decomposition(rho, 2, np.random.default_rng(0))


class TestConvexRoof:
    def test_pure_state_exact(self):
        rho = ghz3()
        est = convex_roof_upper_estimate(rho, 7, 123)
        assert est == pure_concurrence_purity(rho)

    def test_upper_bounds_the_lower_bound(self):
        for x in (0.05, 0.2):
            rho = noisy_ghz(x)
            clamped, _ = concurrence_lower_bound(all_tensors(rho))
            assert convex_roof_upper_estimate(rho, 60, 17) >= clamped - 1e-9

    def test_deterministic(self):
        rho = noisy_ghz(0.3)
        a = convex_roof_upper_estimate(rho, 25, 99)
        b = convex_roof_upper_estimate(rho, 25, 99)
        assert a == b

    def test_monotone_in_sample_count(self):
        rho = noisy_ghz(0.3)
        vals = [convex_roof_upper_estimate(rho, n, 42) for n in (5, 10, 20, 40)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_separable_mixture_nonnegative(self):
        # diagonal product mixture; roof stays >= 0 and improves with samples
        ctx = PartitionContext(3, 2)
        rho = DensityMatrix(ctx, np.diag([0.4, 0, 0, 0.3, 0, 0.2, 0, 0.1]))
        small = convex_roof_upper_estimate(rho, 10, 7)
        large = convex_roof_upper_estimate(rho, 80, 7)
        assert 0.0 <= large <= small

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            convex_roof_upper_estimate(ghz3(), 0, 1)


def projector_reference(rho, n_samples, seed):
    """The roof estimate from projector members and partial-trace purities.

    Each member is built through ``bounds.DensityMatrix``, so a counter
    patched there sees this path.
    """
    rank = int((np.linalg.eigvalsh(rho.mat) > bounds.RANK_TOL).sum())
    best = math.inf
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        weights, kets = random_decomposition(rho, rank + k % 3,
                                             np.random.default_rng(child))
        members = [bounds.DensityMatrix(rho.ctx, np.outer(ket, ket.conj()))
                   for ket in kets.T]
        best = min(best, sum(w * pure_concurrence_purity(member)
                             for w, member in zip(weights, members)))
    return best


class TestKetRoof:
    GRID = [(n, 2) for n in range(2, 8)] + [(2, 3), (3, 3), (2, 4)]

    @pytest.mark.parametrize("n,d", GRID)
    def test_matches_projector_path(self, n, d):
        ctx = PartitionContext(n, d)
        samples = 8 if n < 6 else 4
        for rank in (2, 3, 4):
            rho = random_mixed(ctx, rank, 10 * n + d + rank)
            est = convex_roof_upper_estimate(rho, samples, rank)
            assert abs(est - projector_reference(rho, samples, rank)) <= 1e-12

    @pytest.mark.parametrize("n,d", GRID)
    def test_both_orders_match_projector_path(self, monkeypatch, n, d):
        # the grid and bound of test_matches_projector_path, in each order
        ctx = PartitionContext(n, d)
        samples = 8 if n < 6 else 4
        for rank in (2, 3, 4):
            rho = random_mixed(ctx, rank, 10 * n + d + rank)
            reference = projector_reference(rho, samples, rank)
            for form in (True, False):
                monkeypatch.setattr(bounds, "_purity_form_pays",
                                    lambda ctx, r, form=form: form)
                est = convex_roof_upper_estimate(rho, samples, rank)
                assert abs(est - reference) <= 1e-12

    def test_full_rank_matches_projector_path(self):
        rho = random_mixed(PartitionContext(3, 2), None, 4)
        assert abs(convex_roof_upper_estimate(rho, 10, 8)
                   - projector_reference(rho, 10, 8)) <= 1e-12

    def _count_blocks(self, monkeypatch, block_entries):
        blocks = []
        best_sample = bounds._best_sample

        def spy(stacks, *args):
            blocks.append(sum(len(u) for u in stacks))
            return best_sample(stacks, *args)

        monkeypatch.setattr(bounds, "_ROOF_BLOCK_ENTRIES", block_entries)
        monkeypatch.setattr(bounds, "_best_sample", spy)
        return blocks

    def test_full_rank_split_into_blocks(self, monkeypatch):
        # a full-rank (5,2) sample holds 32..34 kets of 32 entries, so a
        # block of 2500 entries takes two samples and 9 samples need 5 blocks
        rho = random_mixed(PartitionContext(5, 2), None, 6)
        assert not bounds._purity_form_pays(rho.ctx, 32)
        blocks = self._count_blocks(monkeypatch, 2500)
        est = convex_roof_upper_estimate(rho, 9, 3)
        assert blocks == [2, 2, 2, 2, 1]
        assert abs(est - projector_reference(rho, 9, 3)) <= 1e-12

    def test_block_smaller_than_one_sample(self, monkeypatch):
        rho = random_mixed(PartitionContext(3, 2), 6, 12)
        assert not bounds._purity_form_pays(rho.ctx, 6)
        unsplit = convex_roof_upper_estimate(rho, 6, 2)
        blocks = self._count_blocks(monkeypatch, 10)
        est = convex_roof_upper_estimate(rho, 6, 2)
        assert blocks == [1] * 6
        assert abs(est - projector_reference(rho, 6, 2)) <= 1e-12
        assert abs(est - unsplit) <= 1e-12

    @pytest.mark.parametrize("n,d,rank", [(4, 2, 3), (3, 2, 6), (5, 2, 32)])
    def test_order_independent_of_sample_count(self, monkeypatch, n, d, rank):
        rho = random_mixed(PartitionContext(n, d), rank, 30 + n)
        forms = []
        purity_form = bounds._purity_form

        def spy(*args):
            forms.append(True)
            return purity_form(*args)

        monkeypatch.setattr(bounds, "_purity_form", spy)
        orders = set()
        for n_samples in (1, 2, 3, 7, 40):
            for seed in (0, 5):
                forms.clear()
                convex_roof_upper_estimate(rho, n_samples, seed)
                orders.add(len(forms))
        assert orders == {int(bounds._purity_form_pays(rho.ctx, rank))}

    def test_rule_sends_benchmark_shapes_to_the_form(self):
        # rank 4 on every benchmark shape contracts the bipartitions first
        for n, d in [(4, 2), (5, 2), (6, 2), (7, 2), (3, 3), (2, 4)]:
            assert bounds._purity_form_pays(PartitionContext(n, d), 4)
        # the timed edge at 11 samples: the form at (10,2) rank 9 and
        # (12,2) rank 10, the ket order one rank up and at full rank
        for n, last_form in [(10, 9), (12, 10)]:
            ctx = PartitionContext(n, 2)
            assert bounds._purity_form_pays(ctx, last_form)
            assert not bounds._purity_form_pays(ctx, last_form + 1)
        assert not bounds._purity_form_pays(PartitionContext(3, 2), 8)
        assert not bounds._purity_form_pays(PartitionContext(10, 2), 1024)

    def test_rule_bounds_the_form_memory(self):
        # the build bound admits rank <= 16, so the r^2 a^2 Gram products
        # of the widest bipartition hold at most 256 D entries
        for n, d in [(n, 2) for n in range(2, 13)] + [
                (n, 3) for n in range(2, 8)] + [(2, 4), (3, 4), (6, 4),
                                                (4, 8), (3, 16), (2, 64)]:
            ctx = PartitionContext(n, d)
            widest = d ** (n // 2)
            for rank in range(1, min(ctx.total_dim, 40) + 1):
                if bounds._purity_form_pays(ctx, rank):
                    assert rank <= 16
                    assert rank ** 2 * widest ** 2 <= 256 * ctx.total_dim

    def test_eigen_factor_matches_out_of_place_symmetrisation(self):
        for n, d, rank in [(3, 2, 2), (7, 2, 4), (3, 3, None), (2, 4, 5)]:
            rho = random_mixed(PartitionContext(n, d), rank, 40 + n)
            evals, evecs = np.linalg.eigh((rho.mat + rho.mat.conj().T) / 2.0)
            keep = evals > bounds.RANK_TOL
            expect = evecs[:, keep] * np.sqrt(evals[keep])
            assert np.array_equal(bounds._eigen_factor(rho), expect)

    def test_never_builds_projectors(self, monkeypatch):
        rho = random_mixed(PartitionContext(6, 2), 4, 21)
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bounds, "DensityMatrix",
                            counting("DensityMatrix", DensityMatrix))
        # bounds imports no partial_trace; a call would have to add it
        monkeypatch.setattr(bounds, "partial_trace",
                            counting("partial_trace", partial_trace),
                            raising=False)
        convex_roof_upper_estimate(rho, 20, 1)
        random_decomposition(rho, 4, 0)
        assert calls == Counter()
        # the counters do see the projector path: one sample of 4 members
        projector_reference(rho, 1, 0)
        assert calls["DensityMatrix"] == 4


class TestLatticePurities:
    """reduced_purity_sum walks the subset lattice on raw arrays."""

    SHAPES = [(n, 2) for n in range(1, 8)] + [(2, 3), (3, 3), (4, 3),
                                              (2, 4), (3, 4), (2, 5)]

    @pytest.mark.parametrize("n,d", SHAPES)
    @pytest.mark.parametrize("rank", [1, 4, None])
    def test_equals_partial_trace_sum(self, n, d, rank):
        ctx = PartitionContext(n, d)
        rank = None if rank is None else min(rank, ctx.total_dim)
        rho = random_mixed(ctx, rank, 1000 + 10 * n + d)
        expect = sum(purity(partial_trace(rho, mask))
                     for mask in range(1, ctx.full_mask))
        got = reduced_purity_sum(rho)
        if n == 1:
            assert got == expect == 0
        else:
            assert abs(got - expect) <= 1e-13 * expect

    def test_builds_no_density_matrix_and_no_partial_trace(self, monkeypatch):
        from blochbounds import linalg

        rho = random_mixed(PartitionContext(6, 2), 4, 3)
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        post_init = DensityMatrix.__post_init__
        monkeypatch.setattr(DensityMatrix, "__post_init__",
                            counting("DensityMatrix", post_init))
        for module in (linalg, bounds):
            for name in ("partial_trace", "check_mask"):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(linalg, name)),
                                    raising=False)
        reduced_purity_sum(rho)
        assert calls == Counter()
        # the counters do see the partial-trace path
        linalg.partial_trace(rho, 0b11)
        assert calls["DensityMatrix"] == calls["partial_trace"] == 1


class TestClosedFormPuritySum:
    """analyze takes sum_S Tr[rho_S^2] from the per-size sector norms."""

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (6, 2), (12, 2), (2, 3),
                                     (4, 3), (6, 4), (2, 64), (20, 2)])
    def test_weights_are_the_subset_sums_rounded_once(self, n, d):
        # the literal sums over subset sizes m, in exact rationals
        constant = sum(Fraction(math.comb(n, m), d ** m) for m in range(1, n))
        weights = tuple(
            float(Fraction(2, d) ** a
                  * sum(Fraction(math.comb(n - a, m - a), d ** m)
                        for m in range(a, n)))
            for a in range(1, n))
        assert tensors._purity_sum_weights(n, d) == (float(constant), weights)
        # and Tr[rho^2]'s: d^-N and (2/d)^a d^-N
        assert tensors._purity_weights(n, d) == (
            float(Fraction(1, d ** n)),
            tuple(float(Fraction(2, d) ** a / d ** n) for a in range(1, n + 1)))

    @pytest.mark.parametrize("d", [2, 5])
    def test_one_party_has_no_proper_reduction(self, d):
        rho = random_mixed(PartitionContext(1, d), None, 3)
        assert reduced_purity_sum_from_norms(all_tensors(rho)) == 0.0

    @pytest.mark.parametrize("rho", [
        make_state(StateSpec("ghz", PartitionContext(4, 2))),
        random_mixed(PartitionContext(3, 3), 1, 4),
        random_mixed(PartitionContext(5, 2), 4, 5),
        random_mixed(PartitionContext(2, 4), None, 6),
    ], ids=["ghz", "pure", "rank4", "full"])
    def test_analyze_never_walks(self, monkeypatch, rho):
        def walk(rho):
            raise AssertionError("analyze called reduced_purity_sum")

        expect = reduced_purity_sum(rho)
        monkeypatch.setattr(bounds, "reduced_purity_sum", walk)
        rep = analyze(rho)
        assert abs(rep.sum_reduced_purities - expect) <= 1e-14 * expect
        n = rho.ctx.n_parties
        assert rep.tangle_upper == 2.0 ** (2 - n) * (
            2 ** n - 2 - rep.sum_reduced_purities)

    def test_exact_constants_cached_per_shape_not_per_context(self):
        caches = (bounds._gap_constants, bounds._gme_level,
                  tensors._purity_weights, tensors._purity_sum_weights)
        for cache in caches:
            cache.cache_clear()
        mat = random_mixed(PartitionContext(5, 3), 2, 8).mat
        reports = [analyze(DensityMatrix(PartitionContext(5, 3, cap), mat))
                   for cap in (4096, 10 ** 5)]
        assert reports[0].as_dict() == reports[1].as_dict()
        for cache in caches:
            info = cache.cache_info()
            assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


class TestAnalyze:
    def test_report_invariants(self):
        rep = analyze(noisy_ghz(0.4))
        assert rep.concurrence_lower == max(0.0, rep.concurrence_lower_raw)
        assert rep.tangle_lower == max(0.0, rep.tangle_lower_raw)
        assert rep.tangle_lower <= rep.tangle_upper + 1e-9
        assert rep.gme_threshold == 1.0

    def test_bipartite_has_no_gme_level(self):
        rep = analyze(make_state(StateSpec("bell", PartitionContext(2, 2))))
        assert rep.gme_threshold is None
        assert rep.verdict == ENTANGLED

    def test_roof_fields(self):
        rep = analyze(noisy_ghz(0.1), samples_for_roof=12, seed=5)
        assert rep.roof_samples == 12
        assert rep.roof_seed == 5
        assert rep.roof_upper_estimate >= rep.concurrence_lower - 1e-9
        plain = analyze(noisy_ghz(0.1))
        assert plain.roof_upper_estimate is None
        assert plain.roof_samples == 0

    def test_as_dict_schema(self):
        doc = analyze(noisy_ghz(0.1)).as_dict()
        assert doc["schema_version"] == 1
        assert doc["n_parties"] == 3
        assert doc["local_dim"] == 2
        assert doc["rng"] == "pcg64"
        assert doc["concurrence_clamped"] is False
        assert "zero_snap" in doc["tolerances"]

    def test_basis_keyword_removed(self):
        # a Pauli basis scaled by 1.5 used to certify GME at x = 0.5
        scaled = 1.5 * su_generators(2)
        rho = noisy_ghz(0.5)
        for call in (lambda: analyze(rho, basis=scaled),
                     lambda: all_tensors(rho, basis=scaled),
                     lambda: correlation_tensor(rho, 0b011, basis=scaled)):
            with pytest.raises(TypeError):
                call()

    def test_local_unitary_invariance_of_report(self):
        ctx = PartitionContext(3, 2)
        rng = np.random.default_rng(77)
        for _ in range(5):
            rho = random_mixed(ctx, 2, rng)
            rotated = apply_local_unitaries(rho, [haar_unitary(2, rng)
                                                  for _ in range(3)])
            a, b = analyze(rho), analyze(rotated)
            assert abs(a.concurrence_lower_raw - b.concurrence_lower_raw) < 1e-9
            assert abs(a.tangle_lower_raw - b.tangle_lower_raw) < 1e-9
            assert abs(a.tangle_upper - b.tangle_upper) < 1e-9
            assert abs(a.sum_reduced_purities - b.sum_reduced_purities) < 1e-9
            assert a.verdict == b.verdict


class TestWhiteNoiseCrossing:
    @pytest.mark.parametrize("n,d,seed", [(2, 2, 1), (3, 2, 2), (2, 3, 3),
                                          (3, 3, 4), (4, 2, 5)])
    def test_bound_reaches_level_at_crossing(self, n, d, seed):
        # any pure sigma: at x* the raw bound sits on the predicate's level
        sigma = haar_random_pure(PartitionContext(n, d), seed)
        eye = np.eye(sigma.ctx.total_dim) / sigma.ctx.total_dim

        def raw_at(x):
            rho = DensityMatrix(sigma.ctx, x * eye + (1.0 - x) * sigma.mat)
            return analyze(rho).concurrence_lower_raw

        x = white_noise_crossing(sigma, "entangled")
        assert 0.0 < x < 1.0
        assert raw_at(x) == 0.0
        if n >= 3:
            level = gme_threshold(sigma.ctx)
            x = white_noise_crossing(sigma, "gme")
            if x > 0.0:
                assert abs(raw_at(x) - level) <= 1e-12
            else:
                assert raw_at(0.0) < level

    @pytest.mark.parametrize("predicate", ["entangled", "gme"])
    def test_no_correlations_never_pass(self, predicate):
        # W = 0 used to divide by zero; with only single-party sectors the
        # exact W is 0 too, which rounding leaves at about -3e-16 here
        assert white_noise_crossing(maximally_mixed(3, 2), predicate) == -math.inf
        z = np.kron(np.diag([1.0, -1.0]), np.eye(8))
        local = DensityMatrix(PartitionContext(4, 2), (np.eye(16) + 0.1 * z) / 16)
        assert white_noise_crossing(local, predicate) < -1e6

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValueError, match="predicate"):
            white_noise_crossing(ghz3(), "separable")
