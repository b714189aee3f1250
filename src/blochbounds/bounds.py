"""Entanglement bounds built from correlation-tensor sector norms.

For an N-party pure state with common local dimension d the concurrence can
be computed two ways: from the purity deficit of its reductions,

    C = 2^(1 - N/2) sqrt( (2^N - 2) - sum_S Tr[rho_S^2] ),

or, as the paper states it, from a weighted sum of sector norms,

    2^(N-2) C^2 = -K + sum_{l=2}^{N} k_l * sum_{|S|=l} ||T^S||^2,

with k_l = 2^l ((d+1)^(N-1) - (d+1)^(N-l)) / d^(N+l) and a constant K, both
depending only on (N, d). The same weighted sum evaluated on a mixed state
lower-bounds the convex-roof concurrence, which is what makes it a
practical detection tool: the bound needs only expectation values of
generator strings, never a decomposition.

What is computed is the same gap from two purities, P = Tr[rho^2] and
R = sum_S Tr[rho_S^2] over the 2^N - 2 proper subsets,

    g = (2^N - 2 - R) - ((d+1)^(N-1) - 1) (1 - P),

the pure-state radicand less a linear-entropy penalty. P and R are O(N)
sums of the per-size sector norms n_a (``purity_from_tensors``,
``reduced_purity_sum_from_norms``), in which n_l weighs 2^l d^-(N+l) and
w_l = 2^l ((d+1)^(N-l) - 1) / d^(N+l). So n_l enters g with weight
((d+1)^(N-1) - 1) 2^l d^-(N+l) - w_l = k_l, and the constants sum to -K.

The raw lower bound is reported as the signed square root of the gap. On
pure states this reproduces the concurrence exactly; on the noisy-GHZ
family it continues the closed-form curve through its zero, so the sign
carries "how far below the detection level" rather than being truncated.
Headline numbers and verdicts always use the clamped nonnegative value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
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
from .states import RNG_NAME, ginibre, haar_from_ginibre
from .tensors import (
    IMAG_TOL,
    CorrelationTensorSet,
    _purity_sum_weights,
    _purity_weights,
    all_tensors,
    purity_from_tensors,
    reduced_purity_sum_from_norms,
)

SCHEMA_VERSION = 1

PURITY_TOL = 1e-8
RANK_TOL = 1e-12

# A gap within this distance of 0 snaps to 0, so product states report
# clean zeros instead of sqrt-amplified rounding noise.
ZERO_SNAP = 1e-10

GENUINELY_MULTIPARTITE = "genuine-multipartite-entangled"
ENTANGLED = "entangled"
INCONCLUSIVE = "inconclusive"


# Exact per-(N, d) constants (here and in _gme_level) are rounded once and
# cached by (N, d), so contexts that differ only in dim_cap share them.
@cache
def _gap_constants(n: int, d: int) -> tuple:
    """(c, K): the integer c = (d+1)^(N-1) - 1 and the separable-level
    constant K, minus the gap of the maximally mixed state."""
    if n < 2:  # the gap would silently read 0
        raise ValueError("bounds need at least two parties")
    dn = d ** n
    constant = ((d + 1) ** n + (dn - 1) * (d + 1) ** (n - 1) - 2 ** n * dn) / dn
    return (d + 1) ** (n - 1) - 1, constant


def _gap(ts: CorrelationTensorSet) -> tuple:
    """(g, R): the gap g = (2^N - 2 - R) - c (1 - P) from P = Tr[rho^2] and
    R = sum_S Tr[rho_S^2], with g within ``ZERO_SNAP`` of 0 snapped to 0."""
    n = ts.ctx.n_parties
    c, _ = _gap_constants(n, ts.ctx.local_dim)
    red_total = reduced_purity_sum_from_norms(ts)
    gap = (2 ** n - 2 - red_total) - c * (1.0 - purity_from_tensors(ts))
    if abs(gap) <= ZERO_SNAP:
        gap = 0.0
    return gap, red_total


def _concurrence(n: int, gap: float) -> tuple:
    raw = 2.0 ** (1 - n / 2) * math.copysign(math.sqrt(abs(gap)), gap)
    return max(0.0, raw), raw


def _tangle(n: int, gap: float, red_total: float) -> tuple:
    lower_raw = 2.0 ** (2 - n) * gap
    # 2^N - 2 - R rounds to about -1e-15 on product states
    upper = 2.0 ** (2 - n) * (2 ** n - 2 - red_total)
    return lower_raw, max(0.0, lower_raw), max(0.0, upper)


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
    d = 2) beside rho. ``analyze`` takes the same sum from the sector norms
    instead (``reduced_purity_sum_from_norms``).
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


def concurrence_lower_bound(ts: CorrelationTensorSet) -> tuple:
    """Lower bound on the mixed-state concurrence, as (clamped, raw).

    raw = 2^(1 - N/2) * sign(g) * sqrt(|g|) with g the gap of the module
    docstring; clamped = max(0, raw). On pure states raw equals the
    concurrence. A negative raw value carries no entanglement claim but
    tells how far the state sits below the detection level.
    """
    return _concurrence(ts.ctx.n_parties, _gap(ts)[0])


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
    return _gme_level(n, d)


@cache
def _gme_level(n: int, d: int) -> float:
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


def tangle_bounds(ts: CorrelationTensorSet) -> tuple:
    """Bounds on the tangle, as (lower_raw, lower, upper).

    lower_raw = 2^(2-N) * g reuses the concurrence gap g; the upper bound
    is max(0, 2^(2-N) (2^N - 2 - R)), as the tangle is nonnegative. Both
    read the same sector norms, so the checks independent of the tensors
    are perfbench's partial-trace oracle, the cap tool's check against the
    walk ``reduced_purity_sum``, and the property test of the closed form
    against the walk. Both are exact on pure states, where they collapse
    onto the squared concurrence.
    """
    return _tangle(ts.ctx.n_parties, *_gap(ts))


def white_noise_crossing(sigma: DensityMatrix, predicate: str) -> float:
    """Noise weight x* where rho(x) = x 1/D + (1 - x) sigma stops passing.

    The identity part adds nothing to any sector, so every n_a(x) =
    (1 - x)^2 n_a(sigma) and the gap is g(x) = (1 - x)^2 W - K, with
    W = c (P - P_0) - (R - R_0) from sigma's purities less those of the
    maximally mixed state. "entangled" needs g > 0, "gme" needs
    g > 2^(N-2) level^2; either way x* = 1 - sqrt(need / W) from one
    transform of sigma. The predicate holds for x < x*, and x* <= 0 means
    it fails already at x = 0. Without correlations (W <= 0; rounding can
    leave an exact 0 at +-1e-17) it never holds: x* is -inf, the limit as
    W -> 0+.
    """
    n, d = sigma.ctx.n_parties, sigma.ctx.local_dim
    c, need = _gap_constants(n, d)
    if predicate == "gme":
        need += 2 ** (n - 2) * gme_threshold(sigma.ctx) ** 2
    elif predicate != "entangled":
        raise ValueError(f"unknown predicate {predicate!r}; "
                         "expected 'gme' or 'entangled'")
    ts = all_tensors(sigma)
    weight = (c * (purity_from_tensors(ts) - _purity_weights(n, d)[0])
              - (reduced_purity_sum_from_norms(ts) - _purity_sum_weights(n, d)[0]))
    if weight <= 0.0:
        return -math.inf
    return 1.0 - math.sqrt(need / weight)


def detect(concurrence_lower: float, gme_level: float | None = None) -> str:
    """Verdict from the clamped lower bound, strict inequalities both ways."""
    if gme_level is not None and concurrence_lower > gme_level:
        return GENUINELY_MULTIPARTITE
    if concurrence_lower > 0.0:
        return ENTANGLED
    return INCONCLUSIVE


def _eigen_factor(rho):
    # (rho + rho*) / 2 formed in one d^N x d^N array
    herm = rho.mat.conj().T
    herm += rho.mat
    herm *= 0.5
    evals, evecs = np.linalg.eigh(herm)
    del herm
    keep = evals > RANK_TOL
    return evecs[:, keep] * np.sqrt(evals[keep])


# Complex entries in one block of stacked samples of the roof estimate.
# Consecutive samples share a block up to this size; a larger sample forms
# a block of its own. Bounds memory only: no sample's value depends on it.
_ROOF_BLOCK_ENTRIES = 1 << 20

# The quartic form is built when that costs at most as much as this many
# members of the ket order (see _purity_form_pays).
_FORM_BUILD_MEMBERS = 256

# Members whose squared norm falls below this carry no weight.
_WEIGHT_FLOOR = 1e-14


def _haar_coefficients(rank, draws) -> list:
    """Coefficients of one random ensemble per (size, rng) draw, as one
    (draws, rank, size) stack per size.

    rho = A A* for A = factor @ U, with U the first rank rows of a Haar
    unitary of the given size; member j is column j of A. Each draw takes
    its Ginibre matrix from its own generator, and the draws of one size
    share one stacked QR, so every U equals ``haar_unitary(size, rng)``'s.
    """
    stacks = []
    for size in sorted({size for size, _ in draws}):
        g = np.stack([ginibre(size, rng) for s, rng in draws if s == size])
        stacks.append(haar_from_ginibre(g)[:, :rank])
    return stacks


def _member_weights(gram, u) -> np.ndarray:
    """||factor @ u_j||^2 = Re(u_j* (F*F) u_j) for every column j of ``u``
    (the last two axes), from the rank x rank Gram F*F of the factor."""
    return np.einsum("...ij,...ij->...j", u.conj(), gram @ u).real


def random_decomposition(rho: DensityMatrix, size: int, rng=None) -> tuple:
    """Haar-random pure-state decomposition of ``rho`` with ``size`` members.

    Returns (weights, kets): m positive weights summing to 1 and a
    d^N x m array whose columns are unit kets, with
    rho = sum_i weights[i] |k_i><k_i| to rounding. Members whose weight
    falls below ``_WEIGHT_FLOOR`` are dropped, so m <= ``size``. ``size``
    must reach the numerical rank; larger sizes explore ensembles with
    more members than eigenvectors.
    """
    factor = _eigen_factor(rho)
    rank = factor.shape[1]
    if size < rank:
        raise ValueError(f"need at least rank {rank} members, got {size}")
    ((u,),) = _haar_coefficients(rank, [(size, np.random.default_rng(rng))])
    weights = _member_weights(factor.conj().T @ factor, u)
    keep = weights > _WEIGHT_FLOOR
    weights = weights[keep]
    kets = (factor @ u[:, keep]) / np.sqrt(weights)
    return weights / weights.sum(), kets


def _bipartitions(ctx: PartitionContext):
    """(inside, outside) party lists of the 2^(N-1) - 1 bipartitions S | S^c,
    S running over the nonempty subsets without party N; ``inside`` is the
    smaller side, so it spans a = d^min(|S|, N-|S|) dimensions."""
    for mask in range(1, 1 << (ctx.n_parties - 1)):
        inside = list(parties_from_mask(mask))
        outside = [p for p in ctx.parties() if p not in inside]
        if len(inside) > len(outside):
            inside, outside = outside, inside
        yield inside, outside


def _split(rows: np.ndarray, ctx: PartitionContext, inside, outside):
    """The (m, d^N) rows reshaped to (m, a, b) along one bipartition."""
    d = ctx.local_dim
    t = rows.reshape((rows.shape[0],) + (d,) * ctx.n_parties)
    return t.transpose([0] + inside + outside).reshape(
        rows.shape[0], d ** len(inside), d ** len(outside))


def _ket_purity_sums(kets: np.ndarray, ctx: PartitionContext) -> np.ndarray:
    """sum_S Tr[rho_S^2] over the bipartitions, for every row of a
    (members, d^N) block of kets (unnormalized: the sum scales as |ket|^4).

    Tr[rho_S^2] = ||M M*||_F^2 for M the ket reshaped to a x b, formed on
    the smaller side with one batched matmul per bipartition.
    """
    total = np.zeros(kets.shape[0])
    for inside, outside in _bipartitions(ctx):
        mat = _split(kets, ctx, inside, outside)
        gram = mat @ mat.conj().transpose(0, 2, 1)
        parts = gram.reshape(len(gram), -1).view(np.float64)  # re, im
        total += np.einsum("ij,ij->i", parts, parts)
    return total


def _purity_form(factor: np.ndarray, ctx: PartitionContext) -> np.ndarray:
    """The r^2 x r^2 matrix Q with sum_S Tr[rho_S^2] = x* Q x over the
    bipartitions, for the ket factor @ c and x = c (x) conj(c).

    With F_i column i of the factor reshaped on S, the reduced matrix of
    the ket is sum_ij c_i conj(c_j) G_ij for G_ij = F_i F_j*, so Q is the
    Gram matrix of the G_ij: one (r a x b)(b x r a) product gives them
    all, and one (r^2 x a^2)(a^2 x r^2) product their inner products.
    """
    r = factor.shape[1]
    form = np.zeros((r * r, r * r), dtype=complex)
    for inside, outside in _bipartitions(ctx):
        mat = _split(factor.T, ctx, inside, outside)
        a = mat.shape[1]
        flat = mat.reshape(r * a, -1)
        blocks = (flat @ flat.conj().T).reshape(r, a, r, a)
        g = blocks.transpose(0, 2, 1, 3).reshape(r * r, a * a)
        form += g.conj() @ g.T
    return form


def _purity_form_pays(ctx: PartitionContext, rank: int) -> bool:
    """Whether the roof estimate contracts the bipartitions first.

    With a_S = d^min(|S|, N-|S|), building Q costs
    sum_S (r^2 D a_S + r^4 a_S^2) complex multiply-adds, once per call; a
    member then costs r^4, against D sum_S a_S in the ket order. The form
    is used when its build costs at most ``_FORM_BUILD_MEMBERS`` ket-order
    members: up to there an 11-sample estimate in the form is at most a
    few percent slower than per ket (timed up to (12,2), BLAS 1 thread);
    at 40 samples and more the form wins well beyond it. Since
    r^2 D sum_S a_S is part of the build, the rule admits r <= 16 only,
    so the form's largest array, r^2 a_S^2 <= 256 D entries, stays below
    the state's D^2 from D = 256.
    The choice depends on (N, d, rank) alone, never on the samples, so
    every sample's value is the same whatever their number.
    """
    n, d, dim = ctx.n_parties, ctx.local_dim, ctx.total_dim
    sides = [(math.comb(n - 1, k), d ** min(k, n - k)) for k in range(1, n)]
    ket_member = dim * sum(count * a for count, a in sides)
    build = sum(count * (rank ** 2 * dim * a + rank ** 4 * a * a)
                for count, a in sides)
    return build <= _FORM_BUILD_MEMBERS * ket_member


def _sample_averages(u, gram, purity_sums, n) -> np.ndarray:
    """Ensemble-averaged concurrence of every sample in a (samples, rank,
    size) coefficient stack; ``purity_sums`` maps the stack to the
    unnormalized sum_S Tr[rho_S^2] of each member, shape (samples, size)."""
    w = _member_weights(gram, u)
    keep = w > _WEIGHT_FLOOR
    scale = np.where(keep, w, 1.0)
    # the 2^N - 2 proper reductions pair up as S and S^c
    radicand = (2 ** n - 2) - 2.0 * purity_sums(u) / (scale * scale)
    conc = 2.0 ** (1 - n / 2) * np.sqrt(np.maximum(radicand, 0.0))
    p = np.where(keep, w, 0.0)
    return (p * conc).sum(axis=-1) / p.sum(axis=-1)


def _roof_blocks(rank, n_samples, seed, member_entries):
    """Coefficient stacks (one per size) of consecutive samples, per block.

    Sample k has rank + k % 3 members and draws from its own spawned seed.
    A block holds at most ``_ROOF_BLOCK_ENTRIES`` member entries
    (``member_entries`` per member); a larger sample forms its own block.
    """
    children = np.random.SeedSequence(seed).spawn(n_samples)
    draws, entries = [], 0
    for k, child in enumerate(children):
        size = rank + k % 3
        if draws and entries + size * member_entries > _ROOF_BLOCK_ENTRIES:
            yield _haar_coefficients(rank, draws)
            draws, entries = [], 0
        draws.append((size, np.random.default_rng(child)))
        entries += size * member_entries
    yield _haar_coefficients(rank, draws)


def _best_sample(stacks, gram, purity_sums, n) -> float:
    """Least ensemble-averaged concurrence among one block's samples."""
    return min(float(_sample_averages(u, gram, purity_sums, n).min())
               for u in stacks)


def convex_roof_upper_estimate(rho: DensityMatrix, n_samples: int = 200,
                               seed: int = 0) -> float:
    """Sampled upper estimate of the convex-roof concurrence.

    Minimizes the ensemble-averaged pure-state concurrence over random
    decompositions of sizes rank..rank+2. Sample k draws from its own
    spawned seed, so enlarging n_samples keeps earlier samples identical
    and the estimate nonincreasing for a fixed seed.

    Every member is the ket factor @ c for rank-r coefficients c, and the
    member's purity sum over the 2^(N-1) - 1 bipartitions S is computed in
    one of two contraction orders, chosen from (N, d, r) alone
    (``_purity_form_pays``):

    - the quartic form: one r^2 x r^2 matrix Q per call, built from the
      factor for O(sum_S (r^2 D a_S + r^4 a_S^2)), after which a member
      costs O(r^4), independent of D = d^N (a_S = d^min(|S|, N-|S|));
    - the ket order: the member ket factor @ c reshaped on each S, at
      O(D sum_S a_S) per member, where building Q would cost more than
      256 such members (on the shapes up to d^N = 4096, every rank above
      a limit of 5 to 12).

    Weights come from the r x r Gram of the factor. Consecutive samples
    are drawn in blocks of at most 2^20 complex member entries, each size's
    Haar unitaries from one stacked QR. No member becomes a d^N x d^N
    projector; the value agrees with the projector definition
    (``pure_concurrence_purity`` of each ket of ``random_decomposition``
    made a projector) to rounding.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    factor = _eigen_factor(rho)
    rank = factor.shape[1]
    if rank == 1:
        # a pure state admits only itself
        return pure_concurrence_purity(rho)
    ctx = rho.ctx
    if _purity_form_pays(ctx, rank):
        form = _purity_form(factor, ctx)

        def purity_sums(u):
            x = np.einsum("kis,kjs->ksij", u, u.conj()).reshape(
                u.shape[0], u.shape[2], rank * rank)
            return np.einsum("ksi,ksi->ks", x, x.conj() @ form).real
        member_entries = rank * rank
    else:
        def purity_sums(u):
            kets = (factor @ u).transpose(0, 2, 1)
            return _ket_purity_sums(
                kets.reshape(-1, ctx.total_dim), ctx).reshape(kets.shape[:2])
        member_entries = ctx.total_dim
    gram = factor.conj().T @ factor
    return min(_best_sample(stacks, gram, purity_sums, ctx.n_parties)
               for stacks in _roof_blocks(rank, n_samples, seed,
                                          member_entries))


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
    gap, red_total = _gap(ts)
    clamped, raw = _concurrence(ctx.n_parties, gap)
    level = gme_threshold(ctx) if ctx.n_parties >= 3 else None
    t_raw, t_low, t_up = _tangle(ctx.n_parties, gap, red_total)
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
