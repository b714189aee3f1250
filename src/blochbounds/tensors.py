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
4096 x 4096 cap) beside rho itself. The real part is then copied into one
float array, frozen once, and every sector is a read-only view of it, so a
tensor set keeps one d^(2N) float array (134 MB at the cap) and copies
nothing per sector. Every squared sector norm comes from one more mode-wise
pass over the squared coefficients, which folds each party axis to
(identity, sum over generators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

# a custom basis must be Hermitian, traceless and orthonormal to this
BASIS_TOL = 1e-12


def _frozen_chain(a: np.ndarray) -> bool:
    """True when ``a`` and every array it views are read-only, down to an
    array that owns its memory."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        if a.base is None:
            return True
        a = a.base
    return False  # memory held by a non-array buffer, which may be writable


@dataclass(frozen=True, eq=False)
class CorrelationTensorSet:
    """Every sector tensor of one state, keyed by subset mask.

    ``sectors[mask]`` has one axis of length d^2 - 1 per party in the mask,
    ordered by ascending party label. ``norms_sq[mask]`` caches the squared
    Frobenius norm of that sector.

    Sectors are read-only: a float array is kept as passed in (a view, as
    ``all_tensors`` passes them) only when it and every array it views are
    read-only; anything else is copied once and frozen, so no caller can
    change a set after building it.
    """

    ctx: PartitionContext
    sectors: Mapping[int, np.ndarray]
    norms_sq: Mapping[int, float]
    _size_sums: dict = field(init=False, repr=False)

    def __post_init__(self):
        frozen = {}
        for mask, t in self.sectors.items():
            if not (isinstance(t, np.ndarray) and t.dtype == np.float64
                    and _frozen_chain(t)):
                t = np.array(t, dtype=float)
                t.setflags(write=False)
            frozen[mask] = t
        norms = dict(self.norms_sq)
        sums = {}
        for mask, v in norms.items():
            size = subset_size(mask)
            sums[size] = sums.get(size, 0.0) + v
        object.__setattr__(self, "sectors", MappingProxyType(frozen))
        object.__setattr__(self, "norms_sq", MappingProxyType(norms))
        object.__setattr__(self, "_size_sums", sums)

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


def _stacked_mode(generators, d: int) -> np.ndarray:
    # mode[a, (i, j)] = A_a[j, i] for A_0 = Id and A_a = (d/2) g_(a-1):
    # contracting it with one party's (row, col) pair takes that party's
    # share of the trace against A_a
    mode = np.empty((d * d, d * d), dtype=np.complex128)
    mode[0] = np.eye(d).ravel()
    for a, g in enumerate(generators, start=1):
        mode[a] = (d / 2.0) * g.T.ravel()
    return mode


# Default mode matrices are cached up to this local dimension, where one
# takes 1 MB; larger ones (268 MB at d = 64) are rebuilt on each call, which
# costs far less than the transform they feed.
_MODE_CACHE_MAX_DIM = 16
_default_modes: dict = {}


def _default_mode(d: int) -> np.ndarray:
    """Mode matrix of the Gell-Mann basis, read-only."""
    mode = _default_modes.get(d)
    if mode is None:
        mode = _stacked_mode(su_generators(d), d)
        mode.setflags(write=False)
        if d <= _MODE_CACHE_MAX_DIM:
            _default_modes[d] = mode
    return mode


def _basis_mode(basis: GeneratorBasis, d: int) -> np.ndarray:
    """Mode matrix of a caller's basis, after checking it is one.

    The basis needs d^2 - 1 generators of shape d x d, each Hermitian and
    traceless, with Tr[g_a g_b] = 2 delta_ab; any violation above
    ``BASIS_TOL`` raises the invariant ``basis``.
    """
    k = d * d - 1
    shapes = {np.shape(g) for g in basis.generators}
    if len(basis.generators) != k or shapes != {(d, d)}:
        raise ValidationError(
            "basis", len(basis.generators), k,
            f"expected {k} generators of shape {(d, d)}, got "
            f"{len(basis.generators)} of shapes {sorted(shapes)}")
    g = np.array(basis.generators)
    flat = g.reshape(k, d * d)
    checks = (
        ("not Hermitian", np.abs(g - g.conj().transpose(0, 2, 1)).max()),
        ("not traceless", np.abs(np.trace(g, axis1=1, axis2=2)).max()),
        # for Hermitian generators Tr[g_a g_b] = <g_a, g_b>, one Gram product
        ("not orthonormal (Tr[g_a g_b] != 2 delta_ab)",
         np.abs(flat @ flat.conj().T - 2.0 * np.eye(k)).max()),
    )
    for what, worst in checks:
        if not worst <= BASIS_TOL:
            raise ValidationError(
                "basis", worst, BASIS_TOL,
                f"basis is {what}: deviation {worst:.3g}")
    return _stacked_mode(basis.generators, d)


def _coefficients(rho: DensityMatrix, basis: GeneratorBasis | None,
                  imag_tol: float, parties) -> np.ndarray:
    """Every (d/2)^|S| Tr[rho * (A_1 x ... x A_N)] in one mode-wise pass.

    Returns the real parts as an array with one axis of length d^2 per
    party; index 0 on an axis is the identity, index a >= 1 the generator
    a - 1. ``parties`` labels the axes in diagnostics. Any imaginary residue
    above ``imag_tol``, or a NaN, outside the all-identity entry (the trace)
    raises ``tensor-reality``. The array is a read-only float copy that
    owns its memory; the complex product is freed on return.
    """
    n, d = rho.ctx.n_parties, rho.ctx.local_dim
    mode = _default_mode(d) if basis is None else _basis_mode(basis, d)
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


def _sector_norms(coeffs: np.ndarray) -> list:
    """||T^S||^2 for every mask S (index 0 is the squared trace term).

    One mode-wise fold: each party axis of length d^2 becomes (identity,
    sum over generators). The first axis squares as it contracts, so no
    second d^(2N) array is made; the others are plain sums, one ``einsum``
    each. einsum runs numpy's own loops: a real matrix product is a few
    microseconds faster but pages in BLAS's real kernels, ~0.3 MB of RSS
    that nothing else here needs.
    """
    n, q = coeffs.ndim, coeffs.shape[0]
    c = coeffs.reshape(q, -1)
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
                basis: GeneratorBasis | None = None,
                imag_tol: float = IMAG_TOL) -> CorrelationTensorSet:
    """Every sector tensor of ``rho`` from one transform, smallest masks first.

    Sectors are read-only views of one coefficient array.
    """
    ctx = rho.ctx
    coeffs = _coefficients(rho, basis, imag_tol, ctx.parties())
    masks = nonempty_masks(ctx.n_parties)
    norms = _sector_norms(coeffs)
    return CorrelationTensorSet(
        ctx, {mask: _sector(coeffs, mask) for mask in masks},
        {mask: norms[mask] for mask in masks})


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
