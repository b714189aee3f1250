"""The traceless Hermitian generator basis of a single d-level system.

The basis follows the standard generalized Gell-Mann construction with the
normalization Tr[g_a g_b] = 2 delta_ab, listed in a fixed order:

1. symmetric off-diagonal pairs E_jk + E_kj for j < k, lexicographic (j, k);
2. antisymmetric pairs -i E_jk + i E_kj in the same (j, k) order;
3. diagonal generators of rank l = 1..d-1, each sqrt(2 / (l (l + 1))) times
   (sum_{m<l} E_mm - l E_ll).

For d = 2 this reproduces the Pauli matrices in the order x, y, z.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from .linalg import DensityMatrix, PartitionContext, kron


def su_generators(d: int) -> np.ndarray:
    """The d^2 - 1 generators for local dimension ``d``, in the order above,
    as one read-only complex128 array of shape (d^2 - 1, d, d)."""
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    gens = np.zeros((d * d - 1, d, d), dtype=np.complex128)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    m = len(pairs)
    sym, anti, diag = gens[:m], gens[m:2 * m], gens[2 * m:]
    for a, (j, k) in enumerate(pairs):
        sym[a, j, k] = sym[a, k, j] = 1.0
        anti[a, j, k], anti[a, k, j] = -1j, 1j
    for l in range(1, d):
        scale = np.sqrt(2.0 / (l * (l + 1)))
        diag[l - 1, range(l), range(l)] = scale
        diag[l - 1, l, l] = -l * scale
    gens.setflags(write=False)
    return gens


def operator_string(generators: np.ndarray, assignments: Mapping[int, int],
                    ctx: PartitionContext) -> np.ndarray:
    """Tensor product with generators at the assigned positions.

    ``generators`` is the array ``su_generators`` returns; ``assignments``
    maps 1-based party positions to generator indices, and every
    unassigned position contributes an identity factor.
    """
    if generators.shape[1:] != (ctx.local_dim, ctx.local_dim):
        raise ValueError(
            f"generator dimension {generators.shape[1]} does not match "
            f"context local dimension {ctx.local_dim}")
    if not assignments:
        raise ValueError("at least one position must carry a generator")
    n_gen = len(generators)
    for pos, idx in assignments.items():
        if not 1 <= pos <= ctx.n_parties:
            raise ValueError(f"position {pos} outside 1..{ctx.n_parties}")
        if not 0 <= idx < n_gen:
            raise ValueError(f"generator index {idx} outside 0..{n_gen - 1}")
    eye = np.eye(ctx.local_dim, dtype=complex)
    out = np.eye(1, dtype=complex)
    for pos in ctx.parties():
        factor = generators[assignments[pos]] if pos in assignments else eye
        out = kron(out, factor, dim_cap=ctx.dim_cap)
    return out


def apply_local_unitaries(rho: DensityMatrix, locals_: list) -> DensityMatrix:
    """Conjugate by a product of one-party unitaries, one per position."""
    ctx = rho.ctx
    if len(locals_) != ctx.n_parties:
        raise ValueError(f"need {ctx.n_parties} local unitaries, got {len(locals_)}")
    u = np.eye(1, dtype=complex)
    for loc in locals_:
        loc = np.asarray(loc, dtype=complex)
        if loc.shape != (ctx.local_dim, ctx.local_dim):
            raise ValueError("local unitary has the wrong shape")
        u = kron(u, loc, dim_cap=ctx.dim_cap)
    return DensityMatrix(ctx, u @ rho.mat @ u.conj().T)
