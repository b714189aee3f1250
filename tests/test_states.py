"""Tests for the state factory, random ensembles, and the bisection scan."""

import numpy as np
import pytest
from scipy import stats

from blochbounds.bounds import GENUINELY_MULTIPARTITE
from blochbounds.linalg import (
    DensityMatrix,
    PartitionContext,
    ValidationError,
    partial_trace,
    purity,
    validate_density,
)
from blochbounds.states import (
    RNG_NAME,
    ScanResult,
    StateSpec,
    ghz_noise_family,
    ginibre,
    haar_from_ginibre,
    haar_random_pure,
    haar_unitary,
    make_state,
    random_mixed,
    threshold_scan,
)

GME_CROSSING = 0.083484861008832
ENT_CROSSING = 0.2788897449072022


class TestStateSpec:
    def test_kind_defaults(self):
        spec = StateSpec.from_dict({"kind": "ghz"})
        assert (spec.ctx.n_parties, spec.ctx.local_dim) == (3, 2)
        spec = StateSpec.from_dict({"kind": "bell"})
        assert (spec.ctx.n_parties, spec.ctx.local_dim) == (2, 2)

    def test_explicit_dims_override_defaults(self):
        spec = StateSpec.from_dict({"kind": "ghz", "n_parties": 4, "local_dim": 3})
        assert (spec.ctx.n_parties, spec.ctx.local_dim) == (4, 3)

    def test_random_kinds_need_dims(self):
        with pytest.raises(ValueError, match="n_parties"):
            StateSpec.from_dict({"kind": "random_pure"})

    def test_roundtrip(self):
        spec = StateSpec.from_dict({"kind": "ghz_noise", "params": {"x": 0.1},
                                    "seed": 3})
        doc = spec.to_dict()
        assert doc == {"kind": "ghz_noise", "n_parties": 3, "local_dim": 2,
                       "params": {"x": 0.1}, "seed": 3}
        again = StateSpec.from_dict(doc)
        assert again == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown state kind"):
            StateSpec("bogus", PartitionContext(2, 2))

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            StateSpec.from_dict({"n_parties": 2, "local_dim": 2})

    def test_unknown_kind_named_before_sizes(self):
        with pytest.raises(ValueError, match="unknown state kind 'nope'"):
            StateSpec.from_dict({"kind": "nope"})

    @pytest.mark.parametrize("kind,params", [
        ("ghz", {"bogus": 1}), ("product", {"local_kets": [[1, 0], [1, 0]]}),
        ("ghz_noise", {"x": 0.1, "y": 0.2}), ("random_mixed", {"seed": 3})])
    def test_unknown_params_rejected(self, kind, params):
        bad = sorted(set(params) - {"x"})
        with pytest.raises(ValueError, match=f"unknown params .*{bad[0]}"):
            StateSpec(kind, PartitionContext(2, 2), params)
        with pytest.raises(ValueError, match="unknown params"):
            StateSpec.from_dict({"kind": kind, "n_parties": 2, "local_dim": 2,
                                 "params": params})
        with pytest.raises(ValueError, match="unknown params"):
            StateSpec(kind, PartitionContext(3, 2)).with_params(**params)

    @pytest.mark.parametrize("field", ["n_parties", "local_dim", "seed", "rank"])
    @pytest.mark.parametrize("value", [3.7, 3.0, True, False, "3", [3], {"n": 3}])
    def test_integer_fields_take_only_integers(self, field, value):
        payload = {"kind": "random_pure", "n_parties": 3, "local_dim": 2,
                   field: value}
        if field == "rank":
            payload = {"kind": "random_mixed", "n_parties": 3, "local_dim": 2,
                       "params": {"rank": value}}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            StateSpec.from_dict(payload)

    def test_integer_fields_accept_numpy_integers(self):
        spec = StateSpec.from_dict({"kind": "random_pure", "n_parties": np.int64(3),
                                    "local_dim": 2, "seed": np.uint32(7)})
        assert (spec.ctx.n_parties, spec.seed) == (3, 7)
        assert type(spec.seed) is int

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            StateSpec.from_dict({"kind": "ghz", "seed": -2})

    @pytest.mark.parametrize("field", ["parms", "nparties", "options", "Kind"])
    def test_unknown_fields_rejected(self, field):
        with pytest.raises(ValueError, match=f"unknown spec fields: {field}"):
            StateSpec.from_dict({"kind": "ghz", field: 1})

    def test_gen_state_fields_accepted(self):
        spec = StateSpec("random_pure", PartitionContext(2, 2), seed=4)
        payload = {**spec.to_dict(), "schema_version": 1, "source_kind": "ghz"}
        assert StateSpec.from_dict(payload) == spec

    def test_params_must_be_object(self):
        with pytest.raises(ValueError, match="params must be a JSON object"):
            StateSpec.from_dict({"kind": "ghz", "params": [1, 2]})

    def test_params_read_only(self):
        spec = StateSpec("ghz_noise", PartitionContext(3, 2), {"x": 0.5})
        with pytest.raises(TypeError):
            spec.params["x"] = 0.9

    def test_with_params(self):
        spec = StateSpec("ghz_noise", PartitionContext(3, 2), {"x": 0.5})
        assert spec.with_params(x=0.7).params["x"] == 0.7
        assert spec.params["x"] == 0.5


class TestNamedStates:
    def test_ghz_projector(self):
        rho = make_state(StateSpec("ghz", PartitionContext(3, 2)))
        expect = np.zeros((8, 8))
        for i in (0, 7):
            for j in (0, 7):
                expect[i, j] = 0.5
        assert np.allclose(rho.mat, expect, atol=1e-15)

    def test_generalized_ghz(self):
        rho = make_state(StateSpec("ghz", PartitionContext(2, 3)))
        # support on |00>, |11>, |22> = indices 0, 4, 8
        diag = np.real(np.diag(rho.mat))
        assert np.allclose(diag[[0, 4, 8]], 1 / 3, atol=1e-15)
        assert abs(purity(rho) - 1.0) < 1e-14

    def test_bell_is_two_party_only(self):
        make_state(StateSpec("bell", PartitionContext(2, 3)))
        with pytest.raises(ValueError, match="bipartite"):
            make_state(StateSpec("bell", PartitionContext(3, 2)))

    def test_w_state(self):
        rho = make_state(StateSpec("w", PartitionContext(4, 2)))
        diag = np.real(np.diag(rho.mat))
        assert np.allclose(diag[[1, 2, 4, 8]], 0.25, atol=1e-15)
        with pytest.raises(ValueError, match="qubit"):
            make_state(StateSpec("w", PartitionContext(3, 3)))

    def test_product_default_ground(self):
        rho = make_state(StateSpec("product", PartitionContext(3, 2)))
        expect = np.zeros((8, 8))
        expect[0, 0] = 1.0
        assert np.allclose(rho.mat, expect, atol=1e-15)

    def test_product_custom_kets(self):
        spec = StateSpec("product", PartitionContext(2, 2),
                         {"kets": [[3.0, 4.0], [[0.0, 0.0], [1.0, 0.0]]]})
        rho = make_state(spec)
        a = np.array([0.6, 0.8])
        b = np.array([0.0, 1.0])
        v = np.kron(a, b)
        assert np.allclose(rho.mat, np.outer(v, v), atol=1e-15)

    def test_product_validation(self):
        ctx = PartitionContext(2, 2)
        with pytest.raises(ValueError, match="2 local kets"):
            make_state(StateSpec("product", ctx, {"kets": [[1, 0]]}))
        with pytest.raises(ValueError, match="length 2"):
            make_state(StateSpec("product", ctx,
                                 {"kets": [[1, 0, 0], [1, 0]]}))
        with pytest.raises(ValueError, match="zero"):
            make_state(StateSpec("product", ctx,
                                 {"kets": [[0.0, 0.0], [1, 0]]}))


class TestNoiseFamilies:
    def test_pure_noise_limit(self):
        rho = make_state(StateSpec("ghz_noise", PartitionContext(3, 2), {"x": 1.0}))
        assert np.array_equal(rho.mat, np.eye(8) / 8)

    def test_affine_in_x(self):
        ctx = PartitionContext(3, 2)
        ends = [make_state(StateSpec("ghz_noise", ctx, {"x": x})).mat
                for x in (0.0, 1.0)]
        for x in (0.1, 0.25, 0.5, 0.9):
            mixed = make_state(StateSpec("ghz_noise", ctx, {"x": x})).mat
            assert np.array_equal(mixed, (1 - x) * ends[0] + x * ends[1])

    def test_three_qubit_family_is_pinned(self):
        with pytest.raises(ValueError, match="three-qubit"):
            make_state(StateSpec("ghz_noise", PartitionContext(2, 3), {"x": 0.1}))

    def test_general_family(self):
        rho = make_state(StateSpec("ghz_noise_general", PartitionContext(2, 3),
                                   {"x": 0.4}))
        assert abs(rho.mat.trace() - 1.0) < 1e-14
        assert rho.ctx.total_dim == 9

    def test_param_validation(self):
        ctx = PartitionContext(3, 2)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_state(StateSpec("ghz_noise", ctx, {"x": 1.5}))
        with pytest.raises(ValueError, match="x"):
            make_state(StateSpec("ghz_noise", ctx))

    def test_family_helper(self):
        fam = ghz_noise_family()
        assert fam(0.3).kind == "ghz_noise"
        general = ghz_noise_family(PartitionContext(2, 3))
        assert general(0.3).kind == "ghz_noise_general"


class TestDense:
    def test_roundtrip(self):
        mat = [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]
        rho = make_state(StateSpec("dense", PartitionContext(1, 2),
                                   {"matrix": mat}))
        assert rho.mat[0, 1] == -0.5j
        assert rho.mat[1, 0] == 0.5j

    def test_invalid_matrix_rejected(self):
        bad = [[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]
        with pytest.raises(ValidationError) as err:
            make_state(StateSpec("dense", PartitionContext(1, 2), {"matrix": bad}))
        assert err.value.invariant == "positivity"

    def test_matrix_required(self):
        with pytest.raises(ValueError, match="matrix"):
            make_state(StateSpec("dense", PartitionContext(1, 2)))

    def test_tolerance_override(self):
        mat = np.diag([1.0 + 5e-7, -5e-7])
        spec = StateSpec("dense", PartitionContext(1, 2), {"matrix": mat / mat.trace()})
        with pytest.raises(ValidationError):
            make_state(spec)
        assert make_state(spec, tolerances={"positivity": 1e-4}) is not None
        with pytest.raises(ValueError, match="unknown validation tolerance"):
            make_state(spec, tolerances={"purity": 1e-6})


class TestRandomStates:
    def test_pure_deterministic(self):
        ctx = PartitionContext(3, 2)
        a = make_state(StateSpec("random_pure", ctx, seed=7))
        b = make_state(StateSpec("random_pure", ctx, seed=7))
        c = make_state(StateSpec("random_pure", ctx, seed=8))
        assert np.array_equal(a.mat, b.mat)
        assert not np.allclose(a.mat, c.mat)
        assert abs(purity(a) - 1.0) < 1e-12

    def test_mixed_rank_behavior(self):
        ctx = PartitionContext(2, 2)
        pure = random_mixed(ctx, 1, 3)
        assert abs(purity(pure) - 1.0) < 1e-12
        full = random_mixed(ctx, 4, 3)
        assert np.linalg.eigvalsh(full.mat)[0] > 0
        with pytest.raises(ValueError, match="rank"):
            random_mixed(ctx, 5, 3)
        with pytest.raises(ValueError, match="rank"):
            make_state(StateSpec("random_mixed", ctx, {"rank": 0}, seed=1))

    def test_mixed_deterministic(self):
        ctx = PartitionContext(2, 3)
        a = make_state(StateSpec("random_mixed", ctx, {"rank": 4}, seed=11))
        b = make_state(StateSpec("random_mixed", ctx, {"rank": 4}, seed=11))
        assert np.array_equal(a.mat, b.mat)

    def test_every_kind_validates(self):
        specs = [
            StateSpec("ghz", PartitionContext(3, 2)),
            StateSpec("w", PartitionContext(3, 2)),
            StateSpec("bell", PartitionContext(2, 2)),
            StateSpec("product", PartitionContext(2, 3)),
            StateSpec("ghz_noise", PartitionContext(3, 2), {"x": 0.3}),
            StateSpec("ghz_noise_general", PartitionContext(2, 3), {"x": 0.3}),
            StateSpec("random_pure", PartitionContext(3, 2), seed=1),
            StateSpec("random_mixed", PartitionContext(3, 2), {"rank": 5}, seed=1),
        ]
        for spec in specs:
            rho = make_state(spec)
            again = validate_density(rho.mat, rho.ctx)
            assert isinstance(again, DensityMatrix)


class TestHaarStatistics:
    @pytest.mark.parametrize("d,expected", [(2, 0.8), (3, 0.6)])
    def test_mean_marginal_purity(self, d, expected):
        # one-party marginal of a two-party Haar state: mean purity 2d/(d^2+1)
        ctx = PartitionContext(2, d)
        purities = [purity(partial_trace(haar_random_pure(ctx, seed), 0b01))
                    for seed in range(100)]
        assert abs(np.mean(purities) - expected) / expected < 0.05

    def test_unitary_invariance_of_purity_distribution(self):
        # rotating by a fixed unitary must not move the marginal distribution
        ctx = PartitionContext(2, 2)
        u = haar_unitary(4, np.random.default_rng(1234))
        sample_a = [purity(partial_trace(haar_random_pure(ctx, s), 0b01))
                    for s in range(200)]
        sample_b = []
        for s in range(1000, 1200):
            rho = haar_random_pure(ctx, s)
            rotated = DensityMatrix(ctx, u @ rho.mat @ u.conj().T)
            sample_b.append(purity(partial_trace(rotated, 0b01)))
        result = stats.ks_2samp(sample_a, sample_b)
        assert result.pvalue > 1e-3

    def test_haar_unitary_properties(self):
        u = haar_unitary(6, np.random.default_rng(5))
        assert np.allclose(u @ u.conj().T, np.eye(6), atol=1e-12)
        again = haar_unitary(6, np.random.default_rng(5))
        assert np.array_equal(u, again)

    def test_stacked_qr_gives_each_draw_its_own_unitary(self):
        for size in (2, 5, 34):
            seeds = range(7)
            stack = haar_from_ginibre(np.stack(
                [ginibre(size, np.random.default_rng(s)) for s in seeds]))
            for s, u in zip(seeds, stack):
                assert np.array_equal(u, haar_unitary(size, np.random.default_rng(s)))

    def test_rng_name(self):
        assert RNG_NAME == "pcg64"


class TestThresholdScan:
    def test_gme_crossing(self):
        res = threshold_scan(ghz_noise_family(),
                             lambda rep: rep.verdict == GENUINELY_MULTIPARTITE,
                             1e-5)
        assert not res.no_crossing
        assert abs(res.crossing_x - GME_CROSSING) < 1e-4

    def test_entanglement_crossing(self):
        res = threshold_scan(ghz_noise_family(),
                             lambda rep: rep.concurrence_lower > 0, 1e-5)
        assert not res.no_crossing
        assert abs(res.crossing_x - ENT_CROSSING) < 1e-4

    def test_deterministic_and_tol_contract(self):
        fam = ghz_noise_family()
        pred = lambda rep: rep.concurrence_lower > 0
        first = threshold_scan(fam, pred, 1e-3)
        second = threshold_scan(fam, pred, 1e-3)
        assert first == second
        finer = threshold_scan(fam, pred, 5e-4)
        assert abs(finer.crossing_x - first.crossing_x) <= 1e-3

    def test_constant_predicates_flagged(self):
        fam = ghz_noise_family()
        always = threshold_scan(fam, lambda rep: True, 1e-3)
        assert always.no_crossing and always.crossing_x == 1.0
        never = threshold_scan(fam, lambda rep: False, 1e-3)
        assert never.no_crossing and never.crossing_x == 0.0

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            threshold_scan(ghz_noise_family(), lambda rep: True, 0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"),
                                     -1e-3])
    def test_non_finite_tol_rejected(self, tol):
        # nan and inf used to skip the bisection and report crossing_x 0.5
        # for a predicate whose crossing is 0.279
        with pytest.raises(ValueError, match="finite and positive"):
            threshold_scan(ghz_noise_family(),
                           lambda rep: rep.concurrence_lower > 0, tol)

    def test_result_type(self):
        res = threshold_scan(ghz_noise_family(), lambda rep: False, 1e-2)
        assert isinstance(res, ScanResult)
        assert res.iterations == 0
