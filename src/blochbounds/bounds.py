"""Entanglement bounds built from correlation-tensor sector norms.

For an N-party pure state with common local dimension d the concurrence can
be computed two ways: from the purity deficit of its reductions,

    C = 2^(1 - N/2) sqrt( (2^N - 2) - sum_S Tr[rho_S^2] ),

or from a weighted sum of sector norms,

    2^(N-2) C^2 = -K + sum_{l=2}^{N} k_l * sum_{|S|=l} ||T^S||^2,

with coefficients k_l and constant K depending only on (N, d). The same
weighted sum evaluated on a mixed state lower-bounds the convex-roof
concurrence, which is what makes it a practical detection tool: the bound
needs only expectation values of generator strings, never a decomposition.

The raw lower bound is reported as the signed square root of the weighted
sum minus the constant. On pure states this reproduces the concurrence
exactly; on the noisy-GHZ family it continues the closed-form curve through
its zero, so the sign carries "how far below the detection level" rather
than being truncated. Headline numbers and verdicts always use the clamped
nonnegative value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .linalg import (
    DensityMatrix,
    PartitionContext,
    ValidationError,
    hs_norm_sq,
    parties_from_mask,
    purity,
)
from .states import RNG_NAME, haar_unitary
from .tensors import IMAG_TOL, CorrelationTensorSet, all_tensors

SCHEMA_VERSION = 1

PURITY_TOL = 1e-8
RANK_TOL = 1e-12

# A weighted norm sum within this distance of the separable-level constant
# is treated as exactly separable-level, so product states report clean
# zeros instead of sqrt-amplified rounding noise.
ZERO_SNAP = 1e-10

GENUINELY_MULTIPARTITE = "genuine-multipartite-entangled"
ENTANGLED = "entangled"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BoundCoefficients:
    """Weights of the sector-norm form of the concurrence.

    ``constant`` is subtracted from the weighted sum; it equals the weighted
    sum of any pure product state, so the difference vanishes exactly on the
    fully separable baseline. ``per_level[l]`` weighs the combined norm of
    all size-l sectors, l = 2..N.
    """

    ctx: PartitionContext
    constant: float
    per_level: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "per_level",
                           MappingProxyType(dict(self.per_level)))


def bound_coefficients(ctx: PartitionContext) -> BoundCoefficients:
    """Coefficients for (N, d); numerators stay in exact integers."""
    n, d = ctx.n_parties, ctx.local_dim
    if n < 2:
        raise ValueError("bounds need at least two parties")
    dn = d ** n
    constant = ((d + 1) ** n + (dn - 1) * (d + 1) ** (n - 1) - 2 ** n * dn) / dn
    per_level = {}
    for l in range(2, n + 1):
        per_level[l] = 2 ** l * ((d + 1) ** (n - 1) - (d + 1) ** (n - l)) / d ** (n + l)
    return BoundCoefficients(ctx, constant, per_level)


def weighted_norm_sum(ts: CorrelationTensorSet, coeffs: BoundCoefficients) -> float:
    """sum_l k_l * sum_{|S|=l} ||T^S||^2 over the multi-party sectors."""
    return sum(coeffs.per_level[l] * ts.norm_sq_by_size(l)
               for l in range(2, ts.ctx.n_parties + 1))


def _gap(ts, coeffs):
    gap = weighted_norm_sum(ts, coeffs) - coeffs.constant
    if abs(gap) <= ZERO_SNAP:
        return 0.0
    return gap


def _trace_out(a: np.ndarray, m: int, j: int, d: int) -> np.ndarray:
    """The m-party (d^m x d^m) array ``a`` with its party at 0-based
    position j traced out, as a d^(m-1) x d^(m-1) array."""
    lead, tail = d ** j, d ** (m - 1 - j)
    t = a.reshape(lead, d, tail, lead, d, tail)
    red = t[:, 0, :, :, 0, :] + t[:, 1, :, :, 1, :]
    for i in range(2, d):
        red += t[:, i, :, :, i, :]
    return red.reshape(lead * tail, lead * tail)


def _lattice_purities(a: np.ndarray, m: int, first: int, d: int) -> float:
    """Sum of Tr[red^2] over the reductions of the m-party array ``a`` that
    trace out a nonempty set of the parties at positions >= ``first`` and
    keep at least one party.

    Parties leave in increasing position order, so every such reduction is
    reached exactly once, from the parent that still holds its last traced
    party. Each child is walked before its next sibling is formed, so only
    one chain of ancestors is alive at a time.
    """
    total = 0.0
    for j in range(first, m):
        red = _trace_out(a, m, j, d)
        total += hs_norm_sq(red)
        if m > 2:
            total += _lattice_purities(red, m - 1, j, d)
        del red
    return total


def reduced_purity_sum(rho: DensityMatrix) -> float:
    """Sum of Tr[rho_S^2] over all 2^N - 2 proper nonempty reductions.

    Computed by partial traces, so it stays numerically independent of the
    tensor-based purity identities it gets cross-checked against. The
    reductions form a lattice: each one traces a single party out of its
    parent, walked depth first on raw arrays, which costs
    O(sum_S d^(2|S|+2)) and holds one chain of ancestors (about rho/3 at
    d = 2) beside rho.
    """
    n = rho.ctx.n_parties
    if n < 2:
        return 0.0
    return _lattice_purities(rho.mat, n, 0, rho.ctx.local_dim)


def pure_concurrence_purity(psi: DensityMatrix, *,
                            purity_tol: float = PURITY_TOL) -> float:
    """Pure-state concurrence from the purity deficit of all reductions."""
    p = purity(psi)
    if abs(p - 1.0) > purity_tol:
        raise ValidationError("purity", p - 1.0, purity_tol,
                              "input state is not pure enough for the "
                              "pure-state concurrence")
    n = psi.ctx.n_parties
    radicand = float(2 ** n - 2) - reduced_purity_sum(psi)
    # nonnegative up to eigensolver noise well inside 1e-10
    return 2.0 ** (1 - n / 2) * math.sqrt(max(radicand, 0.0))


def pure_concurrence_tensor(ts: CorrelationTensorSet,
                            coeffs: BoundCoefficients | None = None) -> float:
    """Pure-state concurrence from sector norms alone.

    Agrees with ``pure_concurrence_purity`` on pure states. A radicand
    below -1e-6 means the sector norms cannot have come from a pure state.
    """
    if coeffs is None:
        coeffs = bound_coefficients(ts.ctx)
    n = ts.ctx.n_parties
    radicand = weighted_norm_sum(ts, coeffs) - coeffs.constant
    if radicand < -1e-6:
        raise ValidationError(
            "pure-radicand", radicand, 1e-6,
            "weighted sector norms fall below the pure-state level; the "
            "input does not describe a pure state")
    return 2.0 ** (1 - n / 2) * math.sqrt(max(radicand, 0.0))


def concurrence_lower_bound(ts: CorrelationTensorSet,
                            coeffs: BoundCoefficients | None = None) -> tuple:
    """Lower bound on the mixed-state concurrence, as (clamped, raw).

    raw = 2^(1 - N/2) * sign(g) * sqrt(|g|) with g the weighted norm sum
    minus the constant; clamped = max(0, raw). On pure states raw equals
    the concurrence. A negative raw value carries no entanglement claim but
    tells how far the state sits below the detection level.
    """
    if coeffs is None:
        coeffs = bound_coefficients(ts.ctx)
    n = ts.ctx.n_parties
    gap = _gap(ts, coeffs)
    raw = 2.0 ** (1 - n / 2) * math.copysign(math.sqrt(abs(gap)), gap)
    return max(0.0, raw), raw


def gme_threshold(ctx: PartitionContext) -> float:
    """Detection level for genuine multipartite entanglement.

    A clamped lower bound strictly above this value certifies entanglement
    across every bipartition. The radicand is assembled in exact rational
    arithmetic (binomials included) and rounded once at the final sqrt.
    For N = 3 the value reduces to sqrt(2 - 2/d).
    """
    n, d = ctx.n_parties, ctx.local_dim
    if n < 3:
        raise ValueError("genuine multipartite entanglement needs at least "
                         "three parties")
    if n > 20:
        raise ValueError("threshold evaluation is guarded at 20 parties")
    radicand = Fraction(2 ** n - 4) + Fraction(2, d)
    if n % 2:
        for k in range(1, (n - 1) // 2 + 1):
            radicand -= Fraction(2 * math.comb(n, k), d ** k)
    else:
        for k in range(1, n // 2):
            radicand -= Fraction(2 * math.comb(n, k), d ** k)
        radicand -= Fraction(math.comb(n, n // 2), d ** (n // 2))
    # fold the 2^(1 - N/2) prefactor into the radicand; one rounding total
    return math.sqrt(float(Fraction(4, 2 ** n) * radicand))


def tangle_bounds(ts: CorrelationTensorSet,
                  coeffs: BoundCoefficients | None,
                  reduced_purity_total: float) -> tuple:
    """Bounds on the tangle, as (lower_raw, lower, upper).

    lower_raw = 2^(2-N) * g reuses the concurrence gap g; the upper bound
    2^(2-N) (2^N - 2 - sum_S Tr[rho_S^2]) takes the independently computed
    purity sum so the two sides share no arithmetic. Both are exact on pure
    states, where they collapse onto the squared concurrence.
    """
    if coeffs is None:
        coeffs = bound_coefficients(ts.ctx)
    n = ts.ctx.n_parties
    lower_raw = 2.0 ** (2 - n) * _gap(ts, coeffs)
    upper = 2.0 ** (2 - n) * (2 ** n - 2 - reduced_purity_total)
    return lower_raw, max(0.0, lower_raw), upper


def white_noise_crossing(sigma: DensityMatrix, predicate: str) -> float:
    """Noise weight x* where rho(x) = x 1/D + (1 - x) sigma stops passing.

    The identity part adds nothing to any sector, so T^S(x) = (1 - x)
    T^S(sigma) and the gap is g(x) = (1 - x)^2 W - K, with W the weighted
    norm sum of sigma and K the constant. ``predicate`` "entangled" needs
    g > 0, "gme" needs g > 2^(N-2) level^2; either way
    x* = 1 - sqrt(need / W) from one transform of sigma. The predicate
    holds for x < x*, and x* <= 0 means it fails already at x = 0.
    """
    ctx = sigma.ctx
    coeffs = bound_coefficients(ctx)
    need = coeffs.constant
    if predicate == "gme":
        need += 2 ** (ctx.n_parties - 2) * gme_threshold(ctx) ** 2
    elif predicate != "entangled":
        raise ValueError(f"unknown predicate {predicate!r}; "
                         "expected 'gme' or 'entangled'")
    return 1.0 - math.sqrt(need / weighted_norm_sum(all_tensors(sigma), coeffs))


def detect(concurrence_lower: float, gme_level: float | None = None) -> str:
    """Verdict from the clamped lower bound, strict inequalities both ways."""
    if gme_level is not None and concurrence_lower > gme_level:
        return GENUINELY_MULTIPARTITE
    if concurrence_lower > 0.0:
        return ENTANGLED
    return INCONCLUSIVE


@dataclass(frozen=True, eq=False)
class EnsembleDecomposition:
    """One pure-state ensemble realizing a mixed state."""

    weights: tuple
    members: tuple

    def __post_init__(self):
        if len(self.weights) != len(self.members):
            raise ValueError("weights and members must pair up")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-12 or any(w <= 0 for w in self.weights):
            raise ValueError(f"weights must be positive and sum to 1, got {total}")

    def reconstruct(self) -> np.ndarray:
        acc = np.zeros_like(self.members[0].mat)
        for w, member in zip(self.weights, self.members):
            acc = acc + w * member.mat
        return acc

    def max_reconstruction_error(self, rho: DensityMatrix) -> float:
        return float(np.abs(self.reconstruct() - rho.mat).max())


def _eigen_factor(rho):
    evals, evecs = np.linalg.eigh((rho.mat + rho.mat.conj().T) / 2.0)
    keep = evals > RANK_TOL
    return evecs[:, keep] * np.sqrt(evals[keep])


def _mix_decomposition(factor, size, rng):
    """Weights and normalized member kets (columns) of one random ensemble.

    rho = A A* for A = factor @ (first rank rows of a Haar unitary); the
    column norms of A give the weights, its normalized columns the kets.
    """
    rank = factor.shape[1]
    a = factor @ haar_unitary(size, rng)[:rank, :]
    raw_weights = np.einsum("ij,ij->j", a.conj(), a).real
    keep = raw_weights > 1e-14
    a = a[:, keep]
    raw_weights = raw_weights[keep]
    return raw_weights / raw_weights.sum(), a / np.sqrt(raw_weights)


def random_decomposition(rho: DensityMatrix, size: int,
                         rng=None) -> EnsembleDecomposition:
    """Haar-random pure-state decomposition of ``rho`` with ``size`` members.

    ``size`` must reach the numerical rank; larger sizes explore ensembles
    with more members than eigenvectors.
    """
    factor = _eigen_factor(rho)
    rank = factor.shape[1]
    if size < rank:
        raise ValueError(f"need at least rank {rank} members, got {size}")
    weights, kets = _mix_decomposition(factor, size, np.random.default_rng(rng))
    members = tuple(DensityMatrix(rho.ctx, np.outer(ket, ket.conj()))
                    for ket in kets.T)
    return EnsembleDecomposition(tuple(weights), members)


# Complex entries in one block of stacked member kets of the roof estimate.
# Consecutive samples share a block up to this size; a larger sample forms
# a block of its own. Bounds memory only: no sample's value depends on it.
_ROOF_BLOCK_ENTRIES = 1 << 20


def _ket_concurrences(kets: np.ndarray, ctx: PartitionContext) -> np.ndarray:
    """Pure-state concurrence of every row of a (members, d^N) ket block.

    Tr[rho_S^2] = ||M M*||_F^2 for M the ket reshaped to d^|S| x d^(N-|S|),
    formed on the smaller side with one batched matmul per subset. S and
    its complement share the value, so only the subsets without party N are
    visited and their sum is doubled.
    """
    n, d = ctx.n_parties, ctx.local_dim
    m = kets.shape[0]
    t = kets.reshape((m,) + (d,) * n)  # axis p holds party p
    total = np.zeros(m)
    for mask in range(1, 1 << (n - 1)):
        inside = list(parties_from_mask(mask))
        outside = [p for p in ctx.parties() if p not in inside]
        if len(inside) > len(outside):
            inside, outside = outside, inside
        mat = t.transpose([0] + inside + outside).reshape(
            m, d ** len(inside), d ** len(outside))
        gram = mat @ mat.conj().transpose(0, 2, 1)
        parts = gram.reshape(m, -1).view(np.float64)  # re, im interleaved
        total += np.einsum("ij,ij->i", parts, parts)
    radicand = (2 ** n - 2) - 2.0 * total
    return 2.0 ** (1 - n / 2) * np.sqrt(np.maximum(radicand, 0.0))


def _best_sample(ctx, weights, kets) -> float:
    """Least ensemble-averaged concurrence among the samples of one block.

    ``weights`` and ``kets`` hold one entry per sample: its member weights
    and its (members, d^N) ket rows.
    """
    conc = _ket_concurrences(np.concatenate(kets), ctx)
    sample = np.repeat(np.arange(len(weights)), [len(w) for w in weights])
    return float(np.bincount(sample, np.concatenate(weights) * conc).min())


def convex_roof_upper_estimate(rho: DensityMatrix, n_samples: int = 200,
                               seed: int = 0) -> float:
    """Sampled upper estimate of the convex-roof concurrence.

    Minimizes the ensemble-averaged pure-state concurrence over random
    decompositions of sizes rank..rank+2. Sample k draws from its own
    spawned seed, so enlarging n_samples keeps earlier samples identical
    and the estimate nonincreasing for a fixed seed.

    Members stay kets and never become d^N x d^N projectors: the kets of
    consecutive samples are stacked into blocks of at most 2^20 complex
    entries (a larger sample runs alone), and each block's member
    purities cost O(members * sum_S d^N d^min(|S|, N-|S|)) over the
    2^(N-1) - 1 bipartitions S. The value agrees with the projector
    definition (``pure_concurrence_purity`` of each member of
    ``random_decomposition``) to rounding.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    factor = _eigen_factor(rho)
    rank = factor.shape[1]
    if rank == 1:
        # a pure state admits only itself
        return pure_concurrence_purity(rho)
    best = math.inf
    weights, kets, entries = [], [], 0
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(n_samples)):
        w, columns = _mix_decomposition(factor, rank + k % 3,
                                        np.random.default_rng(child))
        if kets and entries + columns.size > _ROOF_BLOCK_ENTRIES:
            best = min(best, _best_sample(rho.ctx, weights, kets))
            weights, kets, entries = [], [], 0
        weights.append(w)
        kets.append(columns.T)
        entries += columns.size
    return min(best, _best_sample(rho.ctx, weights, kets))


@dataclass(frozen=True, eq=False)
class BoundsReport:
    """Every bound and the verdict for one analyzed state."""

    ctx: PartitionContext
    concurrence_lower: float
    concurrence_lower_raw: float
    gme_threshold: float | None
    tangle_lower: float
    tangle_lower_raw: float
    tangle_upper: float
    verdict: str
    sum_reduced_purities: float
    roof_upper_estimate: float | None = None
    roof_samples: int = 0
    roof_seed: int | None = None
    tolerances: Mapping[str, float] | None = None

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "n_parties": self.ctx.n_parties,
            "local_dim": self.ctx.local_dim,
            "concurrence_lower": self.concurrence_lower,
            "concurrence_lower_raw": self.concurrence_lower_raw,
            "concurrence_clamped": self.concurrence_lower != self.concurrence_lower_raw,
            "gme_threshold": self.gme_threshold,
            "verdict": self.verdict,
            "tangle_lower": self.tangle_lower,
            "tangle_lower_raw": self.tangle_lower_raw,
            "tangle_clamped": self.tangle_lower != self.tangle_lower_raw,
            "tangle_upper": self.tangle_upper,
            "sum_reduced_purities": self.sum_reduced_purities,
            "roof_upper_estimate": self.roof_upper_estimate,
            "roof_samples": self.roof_samples,
            "roof_seed": self.roof_seed,
            "rng": RNG_NAME,
            "tolerances": dict(self.tolerances or {}),
        }


def analyze(rho: DensityMatrix, *, samples_for_roof: int = 0, seed: int = 0,
            imag_tol: float = IMAG_TOL) -> BoundsReport:
    """Run every bound on one state and bundle the verdict."""
    ctx = rho.ctx
    ts = all_tensors(rho, imag_tol=imag_tol)
    coeffs = bound_coefficients(ctx)
    clamped, raw = concurrence_lower_bound(ts, coeffs)
    level = gme_threshold(ctx) if ctx.n_parties >= 3 else None
    red_total = reduced_purity_sum(rho)
    t_raw, t_low, t_up = tangle_bounds(ts, coeffs, red_total)
    roof = None
    if samples_for_roof:
        roof = convex_roof_upper_estimate(rho, samples_for_roof, seed)
    return BoundsReport(
        ctx=ctx,
        concurrence_lower=clamped,
        concurrence_lower_raw=raw,
        gme_threshold=level,
        tangle_lower=t_low,
        tangle_lower_raw=t_raw,
        tangle_upper=t_up,
        verdict=detect(clamped, level),
        sum_reduced_purities=red_total,
        roof_upper_estimate=roof,
        roof_samples=samples_for_roof if roof is not None else 0,
        roof_seed=seed if roof is not None else None,
        tolerances={"tensor_reality": imag_tol, "zero_snap": ZERO_SNAP},
    )
