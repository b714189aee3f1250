"""Correlation tensors of the generalized Bloch expansion.

Any N-party density matrix with common local dimension d expands as

    rho = (1/d^N) [ Id + sum_S sum_idx T^S[idx] * string(S, idx) ]

where S runs over nonempty party subsets, idx over generator index tuples
for the parties in S, and string(S, idx) places those generators at the
parties of S with identities elsewhere. The tensor entries are recovered by

    T^S[idx] = (d/2)^|S| * Tr[ rho * string(S, idx) ]

and are real for any Hermitian rho. Squared sector norms ||T^S||^2 feed the
purity identities and the entanglement bounds downstream.

Every entry of every sector comes out of one mode-wise transform, the
tensorized Pauli decomposition of Hantzko, Binkowski and Gupta (2023)
generalised to any generator basis. rho is reshaped so each party owns one
axis of length d^2 (its row and column index), and that axis is contracted
with the stacked operators {Id, (d/2) g_1, ..., (d/2) g_(d^2-1)}, one matrix
product per party. The result holds Tr[rho * (A_1 x ... x A_N)] for every
choice of A_k, scale included; T^S is the slice with index 0 (the identity)
on the parties outside S. Time is O(N d^(2N+2)); each product holds its
input and output, two arrays of d^(2N) complex entries (268 MB each at the
4096 x 4096 cap) beside rho itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .generators import GeneratorBasis, su_generators
from .linalg import (
    DensityMatrix,
    PartitionContext,
    ValidationError,
    check_mask,
    nonempty_masks,
    partial_trace,
    parties_from_mask,
    subset_size,
)

IMAG_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CorrelationTensorSet:
    """Every sector tensor of one state, keyed by subset mask.

    ``sectors[mask]`` has one axis of length d^2 - 1 per party in the mask,
    ordered by ascending party label. ``norms_sq[mask]`` caches the squared
    Frobenius norm of that sector.
    """

    ctx: PartitionContext
    sectors: Mapping[int, np.ndarray]
    norms_sq: Mapping[int, float]

    def __post_init__(self):
        frozen = {}
        for mask, t in self.sectors.items():
            a = np.array(t, dtype=float)
            a.setflags(write=False)
            frozen[mask] = a
        object.__setattr__(self, "sectors", MappingProxyType(frozen))
        object.__setattr__(self, "norms_sq",
                           MappingProxyType(dict(self.norms_sq)))

    def norm_sq_by_size(self, size: int) -> float:
        """Sum of ||T^S||^2 over all subsets with |S| = size."""
        return sum(v for m, v in self.norms_sq.items() if subset_size(m) == size)

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


def _coefficients(rho: DensityMatrix, basis: GeneratorBasis | None,
                  imag_tol: float, parties) -> np.ndarray:
    """Every (d/2)^|S| Tr[rho * (A_1 x ... x A_N)] in one mode-wise pass.

    Returns the real parts as an array with one axis of length d^2 per
    party; index 0 on an axis is the identity, index a >= 1 the generator
    a - 1. ``parties`` labels the axes in diagnostics. Any imaginary residue
    above ``imag_tol``, or a NaN, outside the all-identity entry (the trace)
    raises ``tensor-reality``.
    """
    n, d = rho.ctx.n_parties, rho.ctx.local_dim
    if basis is None:
        basis = su_generators(d)
    ops = np.concatenate([np.eye(d)[None], (d / 2.0) * np.array(basis.generators)])
    # mode[a, (i, j)] = A_a[j, i]: contracting it with one party's (row, col)
    # pair takes that party's share of the trace against A_a
    mode = ops.transpose(0, 2, 1).reshape(d * d, d * d)
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
    if not worst <= imag_tol:
        entry = np.unravel_index(flat, c.shape)
        inside = [k for k in range(n) if entry[k]]
        idx = tuple(int(entry[k]) - 1 for k in inside)
        raise ValidationError(
            "tensor-reality", worst, imag_tol,
            f"entry {idx} of subset {[parties[k] for k in inside]} has "
            f"imaginary residue {worst:.3g}; the state is not Hermitian")
    return c.real


def _sector(coeffs: np.ndarray, mask: int) -> np.ndarray:
    # identity on the parties outside the mask, generators on those inside
    return coeffs[tuple(slice(1, None) if mask >> k & 1 else 0
                        for k in range(coeffs.ndim))]


def correlation_tensor(rho: DensityMatrix, subset: int,
                       basis: GeneratorBasis | None = None,
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
    coeffs = _coefficients(red, basis, imag_tol, parties_from_mask(subset))
    return _sector(coeffs, red.ctx.full_mask).copy()


def all_tensors(rho: DensityMatrix,
                basis: GeneratorBasis | None = None,
                imag_tol: float = IMAG_TOL) -> CorrelationTensorSet:
    """Every sector tensor of ``rho`` from one transform, smallest masks first."""
    ctx = rho.ctx
    coeffs = _coefficients(rho, basis, imag_tol, ctx.parties())
    sectors = {}
    norms = {}
    for mask in nonempty_masks(ctx.n_parties):
        t = _sector(coeffs, mask)
        sectors[mask] = t
        flat = t.ravel()
        norms[mask] = float(np.dot(flat, flat))
    return CorrelationTensorSet(ctx, sectors, norms)


def purity_from_tensors(ts: CorrelationTensorSet) -> float:
    """Tr[rho^2] recovered from sector norms alone.

    d^(2N) Tr[rho^2] = d^N + sum_S 2^|S| d^(N - |S|) ||T^S||^2.
    """
    n, d = ts.ctx.n_parties, ts.ctx.local_dim
    acc = float(d ** n)
    for mask, norm_sq in ts.norms_sq.items():
        m = subset_size(mask)
        acc += (2 ** m) * (d ** (n - m)) * norm_sq
    return acc / d ** (2 * n)


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


def single_site_norm_identity(ts: CorrelationTensorSet) -> tuple:
    """Both sides of the pure-state constraint on single-party norms.

    For a pure state the single-party sector norms are fixed by the higher
    sectors:

        sum_{|S|=1} ||T^S||^2
            = (d^(2N) - d^N) / (2 d^(N-1))
              - sum_{l>=2} 2^l d^(N-l) / (2 d^(N-1)) * sum_{|S|=l} ||T^S||^2.

    Returns (lhs, rhs). The identity encodes Tr[rho^2] = 1 and generally
    fails on mixed states, which makes the gap a purity witness.
    """
    n, d = ts.ctx.n_parties, ts.ctx.local_dim
    lhs = ts.norm_sq_by_size(1)
    denom = 2.0 * d ** (n - 1)
    rhs = (d ** (2 * n) - d ** n) / denom
    for l in range(2, n + 1):
        rhs -= (2 ** l) * (d ** (n - l)) / denom * ts.norm_sq_by_size(l)
    return lhs, rhs
