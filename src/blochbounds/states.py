"""Named states, noise families, seeded random ensembles, and scans."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .linalg import (VALIDATION_TOLS, DensityMatrix, PartitionContext,
                     validate_density)

# numpy's default_rng bit generator; recorded in reports for reproducibility
RNG_NAME = "pcg64"

# every state kind and the params it accepts; any other param is rejected
KIND_PARAMS = MappingProxyType({
    "ghz": (), "w": (), "bell": (), "product": ("kets",),
    "ghz_noise": ("x",), "ghz_noise_general": ("x",), "dense": ("matrix",),
    "random_pure": (), "random_mixed": ("rank",),
})

# kinds with a conventional size when the request does not spell one out
_DEFAULT_CTX = {"ghz": (3, 2), "w": (3, 2), "bell": (2, 2), "ghz_noise": (3, 2)}

# top-level fields of a spec; gen-state output adds the last two, which
# carry no construction input
_SPEC_FIELDS = ("kind", "n_parties", "local_dim", "params", "seed",
               "schema_version", "source_kind")


@dataclass(frozen=True)
class StateSpec:
    """A constructible state: a kind, its partition, and parameters."""

    kind: str
    ctx: PartitionContext
    params: Mapping = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        _check_kind(self.kind, self.params)
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))

    @classmethod
    def from_dict(cls, payload: Mapping) -> "StateSpec":
        if not isinstance(payload, Mapping):
            raise ValueError("state spec must be a JSON object")
        if "kind" not in payload:
            raise ValueError("state spec needs a 'kind' field")
        unknown = sorted(str(key) for key in payload if key not in _SPEC_FIELDS)
        if unknown:
            raise ValueError(f"unknown spec fields: {', '.join(unknown)}; "
                             f"accepted: {', '.join(_SPEC_FIELDS)}")
        kind = payload["kind"]
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError("state params must be a JSON object")
        _check_kind(kind, params)  # before sizes: an unknown kind has no default
        default_n, default_d = _DEFAULT_CTX.get(kind, (None, None))
        n = payload.get("n_parties", default_n)
        d = payload.get("local_dim", default_d)
        if n is None or d is None:
            raise ValueError(f"kind {kind!r} needs explicit n_parties and local_dim")
        seed = payload.get("seed")
        for name, value in (("n_parties", n), ("local_dim", d), ("seed", seed)):
            if value is not None and not is_json_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if seed is not None and seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        return cls(kind, PartitionContext(int(n), int(d)), params,
                   None if seed is None else int(seed))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n_parties": self.ctx.n_parties,
            "local_dim": self.ctx.local_dim,
            "params": dict(self.params),
            "seed": self.seed,
        }

    def with_params(self, **updates) -> "StateSpec":
        return replace(self, params={**self.params, **updates})


def is_json_int(value) -> bool:
    """True for an integer that JSON would write as one: no bool, no float."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_kind(kind, params):
    if not isinstance(kind, str) or kind not in KIND_PARAMS:
        raise ValueError(f"unknown state kind {kind!r}; "
                         f"expected one of {', '.join(KIND_PARAMS)}")
    unknown = sorted(str(name) for name in params if name not in KIND_PARAMS[kind])
    if unknown:
        accepted = ", ".join(KIND_PARAMS[kind]) or "none"
        raise ValueError(f"unknown params for kind {kind!r}: {', '.join(unknown)}; "
                         f"accepted: {accepted}")
    if "kets" in params and not isinstance(params["kets"], (list, tuple)):
        raise ValueError(f"param kets must be a list, got {params['kets']!r}")
    if "rank" in params and not is_json_int(params["rank"]):
        raise ValueError(f"param rank must be an integer, got {params['rank']!r}")
    x = params.get("x", 0.0)
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError(f"param x must be a real number, got {x!r}")


def _ghz_vector(ctx):
    n, d = ctx.n_parties, ctx.local_dim
    v = np.zeros(ctx.total_dim, dtype=complex)
    stride = (ctx.total_dim - 1) // (d - 1)  # index of |k k ... k> is k * stride
    for k in range(d):
        v[k * stride] = 1.0
    return v / np.sqrt(d)


def _w_vector(ctx):
    n = ctx.n_parties
    v = np.zeros(ctx.total_dim, dtype=complex)
    for j in range(n):
        v[1 << j] = 1.0
    return v / np.sqrt(n)


def _complex_array(payload, shape, what):
    # entries as they are, or [re, im] pairs on a last axis of length 2
    try:
        a = np.asarray(payload)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError(f"{what} is ragged: its rows are not all of one "
                         "length and depth") from None
    if a.dtype.kind not in "iufc":  # no null, string, bool or object entry
        raise ValueError(f"{what} entries must be numbers")
    if a.shape == (*shape, 2) and not np.iscomplexobj(a):
        a = a[..., 0] + 1j * a[..., 1]
    return a.astype(complex)


def _product_vector(ctx, params):
    d = ctx.local_dim
    kets = params.get("kets")
    if kets is None:
        ground = np.zeros(d, dtype=complex)
        ground[0] = 1.0
        kets = [ground] * ctx.n_parties
    if len(kets) != ctx.n_parties:
        raise ValueError(f"need {ctx.n_parties} local kets, got {len(kets)}")
    v = np.ones(1, dtype=complex)
    for ket in kets:
        a = _complex_array(ket, (d,), "param kets")
        if a.shape != (d,):
            raise ValueError(f"each local ket must have length {d}")
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            raise ValueError("local ket is numerically zero")
        v = np.kron(v, a / norm)
    return v


def _noise_mix(ctx, params):
    x = params.get("x")
    if x is None:
        raise ValueError("noise families need params['x']")
    if not 0.0 <= x <= 1.0:  # before float(): a huge int would overflow it
        raise ValueError(f"noise weight x must lie in [0, 1], got {x}")
    x = float(x)
    v = _ghz_vector(ctx)
    dim = ctx.total_dim
    return (x / dim) * np.eye(dim) + (1.0 - x) * np.outer(v, v.conj())


def ginibre(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A dim x dim matrix of independent standard complex Gaussian entries."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Phase-fixed QR unitary of a Ginibre matrix, or of each in a stack.

    LAPACK factors a stack one matrix at a time, so a stacked call gives
    every matrix exactly the unitary its own call would.
    """
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(dim: int, rng=None) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    return haar_from_ginibre(ginibre(dim, np.random.default_rng(rng)))


def haar_random_pure(ctx: PartitionContext, seed=0) -> DensityMatrix:
    """Projector onto a normalized complex Gaussian vector."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(ctx.total_dim) + 1j * rng.standard_normal(ctx.total_dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(ctx, np.outer(v, v.conj()))


def random_mixed(ctx: PartitionContext, rank: int | None = None,
                 seed=0) -> DensityMatrix:
    """Normalized G G* for a complex Gaussian d^N x rank matrix G."""
    dim = ctx.total_dim
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    m /= m.trace().real  # in place: no second d^N x d^N array
    return DensityMatrix(ctx, m)


def make_state(spec: StateSpec, tolerances: Mapping | None = None) -> DensityMatrix:
    """Build the state a spec describes and validate it.

    ``tolerances`` may override the validation tolerances by name (the keys
    of ``linalg.VALIDATION_TOLS``); unknown names are rejected.
    """
    ctx = spec.ctx
    kwargs = {}
    for name, value in (tolerances or {}).items():
        if name not in VALIDATION_TOLS:
            raise ValueError(f"unknown validation tolerance {name!r}")
        kwargs[f"{name}_tol"] = value

    kind = spec.kind
    if kind in ("ghz", "bell", "w", "product", "ghz_noise", "ghz_noise_general"):
        if ctx.n_parties < 2 and kind != "product":
            raise ValueError(f"kind {kind!r} needs at least two parties")
        if kind == "bell" and ctx.n_parties != 2:
            raise ValueError("bell states are bipartite; use kind 'ghz' for more parties")
        if kind == "w" and ctx.local_dim != 2:
            raise ValueError("w states are defined for qubits (local_dim 2)")
        if kind == "ghz_noise" and (ctx.n_parties, ctx.local_dim) != (3, 2):
            raise ValueError("ghz_noise is the three-qubit family; "
                             "use ghz_noise_general for other sizes")
        if kind in ("ghz", "bell"):
            v = _ghz_vector(ctx)
            mat = np.outer(v, v.conj())
        elif kind == "w":
            v = _w_vector(ctx)
            mat = np.outer(v, v.conj())
        elif kind == "product":
            v = _product_vector(ctx, spec.params)
            mat = np.outer(v, v.conj())
        else:
            mat = _noise_mix(ctx, spec.params)
    elif kind == "dense":
        if "matrix" not in spec.params:
            raise ValueError("dense kind needs params['matrix']")
        mat = _complex_array(spec.params["matrix"], (ctx.total_dim,) * 2,
                             "param matrix")
    elif kind == "random_pure":
        mat = haar_random_pure(ctx, spec.seed or 0).mat
    elif kind == "random_mixed":
        mat = random_mixed(ctx, spec.params.get("rank"), spec.seed or 0).mat
    else:  # unreachable; StateSpec already screens kinds
        raise ValueError(f"unhandled kind {kind!r}")
    return validate_density(mat, ctx, **kwargs)


def ghz_noise_family(ctx: PartitionContext | None = None) -> Callable[[float], StateSpec]:
    """The GHZ-plus-white-noise segment as a function of the noise weight."""
    if ctx is None:
        ctx = PartitionContext(3, 2)
    kind = "ghz_noise" if (ctx.n_parties, ctx.local_dim) == (3, 2) else "ghz_noise_general"
    return lambda x: StateSpec(kind, ctx, {"x": float(x)})


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a bisection over a one-parameter family."""

    crossing_x: float
    tol: float
    no_crossing: bool = False
    reason: str | None = None
    iterations: int = 0


def threshold_scan(family: Callable[[float], StateSpec],
                   predicate: Callable, tol: float = 1e-5,
                   max_iter: int = 60) -> ScanResult:
    """Bisect for the x where a report predicate flips from true to false.

    The predicate receives the full analysis report of family(x). Endpoints
    are checked first: a predicate that is false at x = 0 or still true at
    x = 1 has no crossing inside the segment and is flagged instead of
    bisected. Assumes a single monotone crossing in between.
    """
    from .bounds import analyze  # deferred; bounds builds on this module

    if not 0.0 < tol < math.inf:  # also rejects NaN
        raise ValueError(f"tol must be finite and positive, got {tol!r}")

    def holds(x):
        return bool(predicate(analyze(make_state(family(x)))))

    if not holds(0.0):
        return ScanResult(0.0, tol, no_crossing=True,
                          reason="predicate already false at x = 0")
    if holds(1.0):
        return ScanResult(1.0, tol, no_crossing=True,
                          reason="predicate still true at x = 1")
    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > tol and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
        iterations += 1
    return ScanResult(0.5 * (lo + hi), tol, iterations=iterations)
