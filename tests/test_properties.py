"""Property tests: invariances of the reduced purities and sector norms,
the closed-form purity sum against the partial-trace walk, the two-purity
bounds against the paper's sector-norm form, and the bound sandwich under
the sampled convex roof.

Hypothesis draws the shape, rank, state seed, party permutation, local
unitaries and roof seed. Every test is derandomized (a fixed seed per test, no example
database), so a run draws the same examples each time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochbounds import bounds
from blochbounds.bounds import (
    analyze,
    concurrence_lower_bound,
    convex_roof_upper_estimate,
    reduced_purity_sum,
    reduced_purity_sum_from_norms,
    tangle_bounds,
)
from blochbounds.generators import apply_local_unitaries
from blochbounds.linalg import DensityMatrix, PartitionContext
from blochbounds.states import StateSpec, haar_unitary, make_state, random_mixed
from blochbounds.tensors import all_tensors

PROPERTY = settings(max_examples=25, derandomize=True, database=None,
                    deadline=None)

SHAPES = st.sampled_from([(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3),
                          (2, 4)])
SEEDS = st.integers(0, 2 ** 32 - 1)
RANKS = st.sampled_from([1, 2, 4, None])


def _state(shape, rank, seed):
    ctx = PartitionContext(*shape)
    return random_mixed(ctx, None if rank is None else min(rank, ctx.total_dim),
                        seed)


def _permute_parties(rho, perm):
    n, d = rho.ctx.n_parties, rho.ctx.local_dim
    t = rho.mat.reshape((d,) * (2 * n))
    axes = list(perm) + [n + p for p in perm]
    return DensityMatrix(rho.ctx, t.transpose(axes).reshape(rho.mat.shape))


def _assert_same_invariants(rho, other):
    assert reduced_purity_sum(other) == pytest.approx(
        reduced_purity_sum(rho), rel=1e-12)
    ts, ts_other = all_tensors(rho), all_tensors(other)
    for size in range(1, rho.ctx.n_parties + 1):
        assert ts_other.norm_sq_by_size(size) == pytest.approx(
            ts.norm_sq_by_size(size), rel=1e-10, abs=1e-13)


@PROPERTY
@given(shape=SHAPES, rank=RANKS, seed=SEEDS, data=st.data())
def test_party_permutation_invariance(shape, rank, seed, data):
    rho = _state(shape, rank, seed)
    perm = data.draw(st.permutations(range(shape[0])), label="perm")
    _assert_same_invariants(rho, _permute_parties(rho, perm))


@PROPERTY
@given(shape=SHAPES, rank=RANKS, seed=SEEDS, unitary_seed=SEEDS)
def test_local_unitary_invariance(shape, rank, seed, unitary_seed):
    rho = _state(shape, rank, seed)
    rng = np.random.default_rng(unitary_seed)
    n, d = shape
    rotated = apply_local_unitaries(rho, [haar_unitary(d, rng) for _ in range(n)])
    _assert_same_invariants(rho, rotated)


CLOSED_FORM_SHAPES = st.sampled_from(
    [(n, 2) for n in range(2, 7)] + [(2, 3), (3, 3), (4, 3), (2, 4), (3, 4),
                                     (2, 5)])


def _assert_closed_form_matches_walk(rho, paper_gap):
    # the purity sum against the walk; the bounds against the paper's k_l
    # form, sum_l k_l n_l - K, on the same norms
    walk = reduced_purity_sum(rho)
    ts = all_tensors(rho)
    assert abs(reduced_purity_sum_from_norms(ts) - walk) <= 1e-14 * walk
    n, gap = rho.ctx.n_parties, paper_gap(ts)
    exact = {"rel": 1e-13, "abs": 0.0}
    raw = 2.0 ** (1 - n / 2) * np.copysign(np.sqrt(abs(gap)), gap)
    assert concurrence_lower_bound(ts) == pytest.approx((max(0.0, raw), raw),
                                                        **exact)
    raw = 2.0 ** (2 - n) * gap
    assert tangle_bounds(ts) == pytest.approx(
        (raw, max(0.0, raw), 2.0 ** (2 - n) * (2 ** n - 2 - walk)), **exact)


@settings(PROPERTY, max_examples=20)
@given(shape=CLOSED_FORM_SHAPES, seed=SEEDS)
def test_closed_form_purity_sum_matches_walk(shape, seed, paper_gap):
    for rank in (1, 4, None):
        _assert_closed_form_matches_walk(_state(shape, rank, seed), paper_gap)


@pytest.mark.parametrize("kind,shape", [("ghz", (5, 2)), ("w", (6, 2))])
def test_closed_form_purity_sum_matches_walk_named(kind, shape, paper_gap):
    _assert_closed_form_matches_walk(
        make_state(StateSpec(kind, PartitionContext(*shape))), paper_gap)


@PROPERTY
@given(shape=SHAPES, rank=RANKS, seed=SEEDS)
def test_tangle_lower_below_upper(shape, rank, seed):
    rep = analyze(_state(shape, rank, seed))
    assert rep.tangle_lower <= rep.tangle_upper + 1e-12
    assert rep.tangle_lower_raw <= rep.tangle_upper + 1e-12


@PROPERTY
@given(shape=SHAPES, rank=RANKS, seed=SEEDS, roof_seed=SEEDS)
def test_concurrence_lower_below_roof(shape, rank, seed, roof_seed):
    rho = _state(shape, rank, seed)
    rep = analyze(rho)
    assert rep.concurrence_lower <= convex_roof_upper_estimate(
        rho, 5, roof_seed) + 1e-9


@PROPERTY
@given(shape=SHAPES, rank=st.integers(2, 9), seed=SEEDS, roof_seed=SEEDS)
def test_form_and_ket_orders_agree(shape, rank, seed, roof_seed):
    rho = _state(shape, rank, seed)
    estimates = []
    for form in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bounds, "_purity_form_pays", lambda ctx, r: form)
            estimates.append(convex_roof_upper_estimate(rho, 6, roof_seed))
    assert abs(estimates[0] - estimates[1]) <= 1e-12
