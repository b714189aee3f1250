"""Correlation tensors of the generalized Bloch expansion.

Any N-party density matrix with common local dimension d expands as

    rho = (1/d^N) [ Id + sum_S sum_idx T^S[idx] * string(S, idx) ]

where S runs over nonempty party subsets, idx over generator index tuples
for the parties in S, and string(S, idx) places those generators at the
parties of S with identities elsewhere. The tensor entries are recovered by

    T^S[idx] = (d/2)^|S| * Tr[ rho * string(S, idx) ]

and are real for any Hermitian rho. The bounds read only the sector
lengths n_a = sum_{|S|=a} ||T^S||^2 (``norm_sq_by_size``); the purity
identities and their weights live in ``bounds.py``.

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
each party axis to (identity, sum over generators), and one ``bincount``
by subset size sums them to every n_a.
"""

from __future__ import annotations

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
    once and frozen. Construction keeps its squared sector norms and
    their sums per subset size. ``norms_sq[mask]``, a sector's squared
    norm, and ``sectors[mask]``, a read-only view of the array with one
    axis of length d^2 - 1 per party in the mask, in ascending party
    order, are built on first access.
    """

    ctx: PartitionContext
    coefficients: np.ndarray
    _norms: np.ndarray = field(init=False, repr=False)
    _size_sums: tuple = field(init=False, repr=False)

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
        bad = int(np.count_nonzero(~np.isfinite(norms)))
        if bad:
            raise ValidationError("finite", bad, 0.0,
                                  f"{bad} squared sector norms are not finite")
        norms.setflags(write=False)
        # bincount adds in ascending mask order, like a running sum would
        sums = np.bincount(_mask_sizes(n), weights=norms[1:], minlength=n + 1)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "_norms", norms)
        object.__setattr__(self, "_size_sums", tuple(sums.tolist()))

    @cached_property
    def norms_sq(self) -> Mapping[int, float]:
        """Squared sector norms, keyed by subset mask."""
        return MappingProxyType(dict(enumerate(self._norms.tolist()[1:], 1)))

    @cached_property
    def sectors(self) -> Mapping[int, np.ndarray]:
        """Read-only views of the coefficient array, keyed by subset mask."""
        return MappingProxyType({mask: _sector(self.coefficients, mask)
                                 for mask in nonempty_masks(self.ctx.n_parties)})

    def norm_sq_by_size(self, size: int) -> float:
        """Sum of ||T^S||^2 over |S| = size; 0.0 for a size outside 0..N."""
        return self._size_sums[size] if 0 <= size < len(self._size_sums) else 0.0

    def as_payload(self) -> list:
        """JSON-ready sector list with flattened entries."""
        out = []
        for mask in sorted(self.sectors):
            t = self.sectors[mask]
            out.append({
                "subset": list(parties_from_mask(mask)),
                "shape": list(t.shape),
                "entries": t.ravel().tolist(),
                "norm_sq": float(self._norms[mask]),
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


@cache
def _mask_sizes(n: int) -> np.ndarray:
    """|S| for every nonempty mask S of n parties, ascending, read-only."""
    sizes = np.array([subset_size(mask) for mask in nonempty_masks(n)])
    sizes.setflags(write=False)
    return sizes


def _sector_norms(coefficients: np.ndarray) -> np.ndarray:
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
    return fold.reshape((2,) * n).transpose(range(n)[::-1]).ravel()


def all_tensors(rho: DensityMatrix,
                imag_tol: float = IMAG_TOL) -> CorrelationTensorSet:
    """Every sector tensor of ``rho`` from one transform, smallest masks first.

    Sectors are read-only views of one array, built on first access.
    """
    return CorrelationTensorSet(
        rho.ctx, _coefficients(rho, imag_tol, rho.ctx.parties()))
