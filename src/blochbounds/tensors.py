"""Correlation tensors of the generalized Bloch expansion.

Any N-party density matrix with common local dimension d expands as

    rho = (1/d^N) [ Id + sum_S sum_idx T^S[idx] * string(S, idx) ]

where S runs over nonempty party subsets, idx over generator index tuples
for the parties in S, and string(S, idx) places those generators at the
parties of S with identities elsewhere. The tensor entries are recovered by

    T^S[idx] = (d/2)^|S| * Tr[ rho * string(S, idx) ]

and are real for any Hermitian rho. Squared sector norms ||T^S||^2 feed the
purity identities and the entanglement bounds downstream.

The generators are the fixed generalized Gell-Mann basis of
``su_generators``. No squared sector norm depends on that choice: another
orthonormal basis would rotate each sector by one orthogonal matrix per
party, so the purities and bounds read off the norms stay the same.

Every entry of every sector comes out of one mode-wise transform, the
tensorized Pauli decomposition of Hantzko, Binkowski and Gupta (2023)
applied to that basis. rho is reshaped so each party owns one axis of
length d^2 (its row and column index), and that axis is contracted with
the stacked operators {Id, (d/2) g_1, ..., (d/2) g_(d^2-1)}, one matrix
product per party. The result holds Tr[rho * (A_1 x ... x A_N)] for every
choice of A_k, scale included; T^S is the slice with index 0 (the identity)
on the parties outside S. Time is O(N d^(2N+2)); each product holds its
input and output, two arrays of d^(2N) complex entries (268 MB each at the
4096 x 4096 cap) beside rho itself. The real part is then copied into one
float array, frozen once, and a tensor set is that one d^(2N) float array
(134 MB at the cap); its sectors are read-only views of it, built on first
access, so nothing is copied per sector. Every squared sector norm comes
from one more mode-wise pass over the squared coefficients, which folds
each party axis to (identity, sum over generators).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .generators import su_generators
from .linalg import (
    DensityMatrix,
    PartitionContext,
    ValidationError,
    check_mask,
    check_tolerance,
    nonempty_masks,
    partial_trace,
    parties_from_mask,
    subset_size,
)

IMAG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CorrelationTensorSet:
    """Every sector tensor of one state, as one coefficient array.

    ``coefficients`` has one axis of length d^2 per party; index 0 on an
    axis is the identity, a >= 1 the generator a - 1. A read-only float64
    array that owns its memory is kept as passed; anything else is copied
    once and frozen. ``norms_sq[mask]``, the squared norm of a sector, is
    derived from it, and ``sectors[mask]``, built on first access, is a
    read-only view of it with one axis of length d^2 - 1 per party in the
    mask, in ascending party order.
    """

    ctx: PartitionContext
    coefficients: np.ndarray
    norms_sq: Mapping[int, float] = field(init=False)
    _size_sums: dict = field(init=False, repr=False)

    def __post_init__(self):
        c = self.coefficients
        if not (isinstance(c, np.ndarray) and c.dtype == np.float64
                and c.flags.owndata and not c.flags.writeable):
            c = np.array(c, dtype=float)
            c.setflags(write=False)
        n, q = self.ctx.n_parties, self.ctx.local_dim ** 2
        if c.shape != (q,) * n:
            raise ValueError(f"coefficients of shape {c.shape}, not {(q,) * n}")
        norms = _sector_norms(c)
        bad = sum(not math.isfinite(v) for v in norms)
        if bad:
            raise ValidationError("finite", bad, 0.0,
                                  f"{bad} squared sector norms are not finite")
        sums = dict.fromkeys(range(n + 1), 0.0)
        for mask in nonempty_masks(n):
            sums[subset_size(mask)] += norms[mask]
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "norms_sq", MappingProxyType(
            {mask: norms[mask] for mask in nonempty_masks(n)}))
        object.__setattr__(self, "_size_sums", sums)

    @cached_property
    def sectors(self) -> Mapping[int, np.ndarray]:
        """Read-only views of the coefficient array, keyed by subset mask."""
        return MappingProxyType({mask: _sector(self.coefficients, mask)
                                 for mask in nonempty_masks(self.ctx.n_parties)})

    def norm_sq_by_size(self, size: int) -> float:
        """Sum of ||T^S||^2 over all subsets with |S| = size."""
        return self._size_sums.get(size, 0.0)

    def as_payload(self) -> list:
        """JSON-ready sector list with flattened entries."""
        out = []
        for mask in sorted(self.sectors):
            t = self.sectors[mask]
            out.append({
                "subset": list(parties_from_mask(mask)),
                "shape": list(t.shape),
                "entries": t.ravel().tolist(),
                "norm_sq": float(self.norms_sq[mask]),
            })
        return out


# Default mode matrices are cached up to this local dimension, where one
# takes 1 MB; larger ones (268 MB at d = 64) are rebuilt on each call, which
# costs far less than the transform they feed.
_MODE_CACHE_MAX_DIM = 16
_default_modes: dict = {}


def _default_mode(d: int) -> np.ndarray:
    """Mode matrix of the Gell-Mann basis, read-only.

    mode[a, (i, j)] = A_a[j, i] for A_0 = Id and A_a = (d/2) g_(a-1):
    contracting it with one party's (row, col) pair takes that party's
    share of the trace against A_a.
    """
    mode = _default_modes.get(d)
    if mode is None:
        mode = np.empty((d * d, d * d), dtype=np.complex128)
        mode[0] = np.eye(d).ravel()
        mode[1:] = (d / 2.0) * su_generators(d).transpose(0, 2, 1).reshape(
            d * d - 1, d * d)
        mode.setflags(write=False)
        if d <= _MODE_CACHE_MAX_DIM:
            _default_modes[d] = mode
    return mode


def _coefficients(rho: DensityMatrix, imag_tol: float, parties) -> np.ndarray:
    """Every (d/2)^|S| Tr[rho * (A_1 x ... x A_N)] in one mode-wise pass.

    Returns the real parts as an array with one axis of length d^2 per
    party; index 0 on an axis is the identity, index a >= 1 the generator
    a - 1. ``parties`` labels the axes in diagnostics. Any imaginary residue
    above ``imag_tol`` (a ``check_tolerance``), or a NaN, outside the trace
    raises ``tensor-reality``. The array is a read-only float copy that
    owns its memory; the complex product is freed on return.
    """
    check_tolerance("tensor_reality", imag_tol)
    n, d = rho.ctx.n_parties, rho.ctx.local_dim
    mode = _default_mode(d)
    pairs = [ax for k in range(n) for ax in (k, n + k)]
    c = rho.mat.reshape((d,) * (2 * n)).transpose(pairs).reshape(d * d, -1)
    for _ in range(n):
        # contract the leading party axis and append its basis index last,
        # so after n rounds the axes are back in ascending party order
        c = (c.T @ mode.T).reshape(d * d, -1)
    c = c.reshape((d * d,) * n)

    residue = np.abs(c.imag).ravel()
    residue[0] = 0.0
    flat = int(np.argmax(residue))
    worst = float(residue[flat])
    del residue  # so the float copy below peaks at rho, c and one copy
    if not worst <= imag_tol:
        entry = np.unravel_index(flat, c.shape)
        inside = [k for k in range(n) if entry[k]]
        idx = tuple(int(entry[k]) - 1 for k in inside)
        raise ValidationError(
            "tensor-reality", worst, imag_tol,
            f"entry {idx} of subset {[parties[k] for k in inside]} has "
            f"imaginary residue {worst:.3g}; the state is not Hermitian")
    real = np.ascontiguousarray(c.real)
    real.setflags(write=False)
    return real


def _sector(coefficients: np.ndarray, mask: int) -> np.ndarray:
    # identity on the parties outside the mask, generators on those inside
    return coefficients[tuple(slice(1, None) if mask >> k & 1 else 0
                              for k in range(coefficients.ndim))]


def correlation_tensor(rho: DensityMatrix, subset: int,
                       imag_tol: float = IMAG_TOL) -> np.ndarray:
    """Tensor for one party subset, entries in generator-index order.

    Each entry is (d/2)^|S| Tr[rho * string]. The transform runs on the
    reduced state of the subset, whose expansion holds the same tensor; an
    imaginary residue above ``imag_tol`` anywhere in it means the input was
    not Hermitian enough to have a real Bloch expansion, reported as a
    validation failure.
    """
    ctx = rho.ctx
    check_mask(subset, ctx)
    red = rho if subset == ctx.full_mask else partial_trace(rho, subset)
    coefficients = _coefficients(red, imag_tol, parties_from_mask(subset))
    return _sector(coefficients, red.ctx.full_mask).copy()


def _sector_norms(coefficients: np.ndarray) -> list:
    """||T^S||^2 for every mask S (index 0 is the squared trace term).

    One mode-wise fold: each party axis of length d^2 becomes (identity,
    sum over generators). The first axis squares as it contracts, so no
    second d^(2N) array is made; the others are plain sums, one ``einsum``
    each. einsum runs numpy's own loops: a real matrix product is a few
    microseconds faster but pages in BLAS's real kernels, ~0.3 MB of RSS
    that nothing else here needs.
    """
    n, q = coefficients.ndim, coefficients.shape[0]
    c = coefficients.reshape(q, -1)
    fold = np.empty((2, c.shape[1]))
    np.multiply(c[0], c[0], out=fold[0])
    np.einsum("ar,ar->r", c[1:], c[1:], out=fold[1])
    pick = np.zeros((2, q))
    pick[0, 0] = pick[1, 1:] = 1.0
    for k in range(1, n):
        fold = np.einsum("pq,kqr->kpr", pick, fold.reshape(1 << k, q, -1))
    # axis k of the folded (2,)*n array is party k's bit of the mask
    return fold.reshape((2,) * n).transpose(range(n)[::-1]).ravel().tolist()


def all_tensors(rho: DensityMatrix,
                imag_tol: float = IMAG_TOL) -> CorrelationTensorSet:
    """Every sector tensor of ``rho`` from one transform, smallest masks first.

    Sectors are read-only views of one array, built on first access.
    """
    return CorrelationTensorSet(
        rho.ctx, _coefficients(rho, imag_tol, rho.ctx.parties()))


# Every weight of a sector norm: (constant, (w_1, w_2, ...)) for
# constant + sum_a w_a norm_sq_by_size(a), exact, rounded once and cached by
# (N, d), so contexts that differ only in dim_cap share them.
@cache
def _purity_weights(n: int, d: int) -> tuple:
    return 1 / d ** n, tuple(2 ** a / d ** (n + a) for a in range(1, n + 1))


@cache
def _purity_sum_weights(n: int, d: int) -> tuple:
    dn = d ** n
    constant = ((d + 1) ** n - dn - 1) / dn
    return constant, tuple(2 ** a * ((d + 1) ** (n - a) - 1) / d ** (n + a)
                           for a in range(1, n))


def _size_weighted(ts: CorrelationTensorSet, weights) -> float:
    constant, per_size = weights(ts.ctx.n_parties, ts.ctx.local_dim)
    return constant + sum(w * ts.norm_sq_by_size(a)
                          for a, w in enumerate(per_size, start=1))


def purity_from_tensors(ts: CorrelationTensorSet) -> float:
    """Tr[rho^2] from the per-size sector norms n_a = ``norm_sq_by_size(a)``.

    d^(2N) Tr[rho^2] = d^N + sum_S 2^|S| d^(N - |S|) ||T^S||^2, so
    Tr[rho^2] = d^-N + sum_{a=1}^{N} 2^a d^-(N+a) n_a: O(N) work.
    """
    return _size_weighted(ts, _purity_weights)


def reduced_purity_sum_from_norms(ts: CorrelationTensorSet) -> float:
    """Sum of Tr[rho_S^2] over all 2^N - 2 proper nonempty reductions, from
    the per-size sector norms n_a = ``ts.norm_sq_by_size(a)``.

    Each reduced purity is Tr[rho_S^2] = d^-m sum_{A in S} (2/d)^|A| ||T^A||^2
    with m = |S| and ||T^{}||^2 = 1. A set A of size a lies in C(N-a, m-a)
    proper subsets of size m, so over every proper S

        sum_S Tr[rho_S^2] = sum_{m=1}^{N-1} C(N, m) d^-m + sum_{a=1}^{N-1} w_a n_a,
        w_a = (2/d)^a sum_{m=a}^{N-1} C(N-a, m-a) d^-m,

    and the binomial theorem closes both sums: the constant is
    ((d+1)^N - d^N - 1) / d^N and w_a = 2^a ((d+1)^(N-a) - 1) / d^(N+a).
    Numerators and denominators are exact integers, so each weight is
    rounded once. O(N) on numbers the tensor set already holds; agrees
    with the partial-trace walk ``bounds.reduced_purity_sum`` to rounding.
    """
    return _size_weighted(ts, _purity_sum_weights)


def reduced_purity_from_tensors(ts: CorrelationTensorSet, subset: int) -> float:
    """Tr[rho_S^2] for a proper subset, from the sectors inside it.

    Works because tracing out parties leaves every tensor over a subset of
    the kept parties unchanged, so the full-state sectors already contain
    the reduction's expansion.
    """
    ctx = ts.ctx
    check_mask(subset, ctx, proper=True)
    d = ctx.local_dim
    m = subset_size(subset)
    acc = float(d ** m)
    sub = subset
    while sub:
        r = subset_size(sub)
        acc += (2 ** r) * (d ** (m - r)) * ts.norms_sq[sub]
        sub = (sub - 1) & subset
    return acc / d ** (2 * m)
