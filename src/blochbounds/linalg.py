"""Dense linear algebra for multipartite density matrices.

Conventions used throughout the package:

* All operators are dense row-major ``numpy.complex128`` arrays.
* Party 1 is the leftmost (most significant) tensor factor, so a row index
  of an N-party operator decomposes as ``i = i_1 d^(N-1) + ... + i_N``.
* A subset of parties is a plain integer bit mask with bit ``k - 1`` set
  when party ``k`` (1-based) belongs to the subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

DEFAULT_DIM_CAP = 4096

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10


class ValidationError(ValueError):
    """A matrix violated one of the density-matrix invariants.

    Carries the name of the violated invariant together with the measured
    violation and the tolerance it was checked against, so callers can emit
    structured diagnostics instead of parsing message strings.
    """

    def __init__(self, invariant: str, magnitude: float, tolerance: float,
                 message: str | None = None):
        self.invariant = invariant
        self.magnitude = float(magnitude)
        self.tolerance = float(tolerance)
        if message is None:
            message = (f"{invariant} violated: magnitude {self.magnitude:.6g} "
                       f"exceeds tolerance {self.tolerance:.1g}")
        super().__init__(message)

    def as_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "magnitude": self.magnitude,
            "tolerance": self.tolerance,
            "message": str(self),
        }


@dataclass(frozen=True)
class PartitionContext:
    """Fixed number of parties with a common local dimension.

    ``dim_cap`` bounds the size of any matrix the context will produce; the
    default keeps full-space operators at or below 4096 x 4096.
    """

    n_parties: int
    local_dim: int
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.n_parties < 1:
            raise ValueError(f"need at least one party, got {self.n_parties}")
        if self.local_dim < 2:
            raise ValueError(f"local dimension must be >= 2, got {self.local_dim}")
        if self.total_dim > self.dim_cap:
            raise ValueError(
                f"total dimension {self.local_dim}^{self.n_parties} = "
                f"{self.total_dim} exceeds the configured cap {self.dim_cap}")

    @property
    def total_dim(self) -> int:
        return self.local_dim ** self.n_parties

    @property
    def full_mask(self) -> int:
        return (1 << self.n_parties) - 1

    def parties(self) -> range:
        """1-based party labels."""
        return range(1, self.n_parties + 1)


def mask_from_parties(parties: Iterable[int]) -> int:
    """Bit mask for a collection of 1-based party labels."""
    mask = 0
    for p in parties:
        if p < 1:
            raise ValueError(f"party labels are 1-based, got {p}")
        bit = 1 << (p - 1)
        if mask & bit:
            raise ValueError(f"duplicate party {p}")
        mask |= bit
    return mask


def parties_from_mask(mask: int) -> tuple[int, ...]:
    """Ascending 1-based party labels encoded in ``mask``."""
    if mask < 0:
        raise ValueError("subset masks are nonnegative")
    out = []
    p = 1
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return tuple(out)


def subset_size(mask: int) -> int:
    return int(mask).bit_count()


def nonempty_masks(n_parties: int) -> range:
    """Every nonempty subset of 1..n_parties, in increasing mask order.

    Includes the full set; ``range(1, ctx.full_mask)`` gives the proper
    subsets only.
    """
    return range(1, 1 << n_parties)


def check_mask(mask: int, ctx: PartitionContext, *, proper: bool = False) -> int:
    """Validate a subset mask against a context and return it unchanged."""
    if mask <= 0:
        raise ValueError("subset must be nonempty")
    if mask > ctx.full_mask:
        raise ValueError(
            f"subset mask {mask} addresses parties beyond {ctx.n_parties}")
    if proper and mask == ctx.full_mask:
        raise ValueError("subset must be a proper subset of all parties")
    return mask


def kron(a: np.ndarray, b: np.ndarray, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Kronecker product with a guard on the output size."""
    a = np.asarray(a)
    b = np.asarray(b)
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if rows > dim_cap or cols > dim_cap:
        raise ValueError(
            f"kron output {rows} x {cols} exceeds the dimension cap {dim_cap}")
    return np.kron(a, b)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix bound to its partition context.

    The stored array is an immutable complex128 copy of whatever was passed
    in; the constructor checks the shape but nothing else. Use
    ``validate_density`` to turn untrusted input into a DensityMatrix.
    """

    ctx: PartitionContext
    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128, order="C")
        dim = self.ctx.total_dim
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim} x {dim} matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Trace out every party not in the ``keep`` mask.

    The kept parties retain their relative order, so the result lives on a
    context with ``popcount(keep)`` parties of the same local dimension.
    """
    ctx = rho.ctx
    check_mask(keep, ctx)
    n, d = ctx.n_parties, ctx.local_dim
    kept = [p - 1 for p in parties_from_mask(keep)]
    t = rho.mat.reshape((d,) * (2 * n))
    # Row axis of party p (0-based) carries label p, its column axis label
    # n + p when kept; traced parties reuse the row label so einsum sums them.
    kept_set = set(kept)
    col = [n + p if p in kept_set else p for p in range(n)]
    out = kept + [n + p for p in kept]
    red = np.einsum(t, list(range(n)) + col, out)
    m = len(kept)
    sub_ctx = PartitionContext(m, d, ctx.dim_cap)
    return DensityMatrix(sub_ctx, red.reshape(d ** m, d ** m))


def hs_norm_sq(m: np.ndarray) -> float:
    """Squared Hilbert-Schmidt (Frobenius) norm, sum of |entries|^2."""
    m = np.asarray(m)
    return float(np.vdot(m, m).real)


def purity(rho: DensityMatrix) -> float:
    """Tr[rho^2], computed as the squared Frobenius norm.

    The two agree because density matrices are Hermitian; this form never
    produces a spurious imaginary part.
    """
    return hs_norm_sq(rho.mat)


def validate_density(mat, ctx: PartitionContext, *,
                     hermiticity_tol: float = HERMITICITY_TOL,
                     trace_tol: float = TRACE_TOL,
                     positivity_tol: float = POSITIVITY_TOL) -> DensityMatrix:
    """Check density-matrix invariants and wrap the result.

    Checks run in a fixed order (finite entries, shape, hermiticity, unit
    trace, positive semidefiniteness) and the first failure raises a
    ValidationError naming the invariant and the measured violation; a
    ``finite`` failure reports the count of NaN or infinite entries, since
    every later comparison would be false on them. Eigenvalues are taken
    from the Hermitian part so a matrix that passes the hermiticity check
    gets a well-conditioned spectrum.
    """
    m = np.asarray(mat, dtype=np.complex128)
    bad = int(np.count_nonzero(~np.isfinite(m)))
    if bad:
        raise ValidationError(
            "finite", bad, 0.0,
            f"{bad} entries are NaN or infinite; a density matrix is finite")
    dim = ctx.total_dim
    if m.ndim != 2 or m.shape != (dim, dim):
        raise ValidationError(
            "shape", float(m.shape[0] if m.ndim >= 1 and m.shape else 0), float(dim),
            f"expected a {dim} x {dim} matrix, got shape {m.shape}")
    herm_dev = float(np.abs(m - m.conj().T).max())
    if herm_dev > hermiticity_tol:
        raise ValidationError("hermiticity", herm_dev, hermiticity_tol)
    trace_dev = abs(complex(m.trace()) - 1.0)
    if trace_dev > trace_tol:
        raise ValidationError("trace", trace_dev, trace_tol)
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    min_eval = float(evals[0])
    if min_eval < -positivity_tol:
        raise ValidationError(
            "positivity", min_eval, positivity_tol,
            f"smallest eigenvalue {min_eval:.6g} is below -{positivity_tol:.1g}")
    return DensityMatrix(ctx, m)
