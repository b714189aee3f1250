"""End-to-end verification suites over seeded random ensembles.

Each suite exercises one cross-check that ties independent code paths
together: the two pure-state concurrence formulas, the tensor-based purity
identities against direct traces, local-unitary invariance of every
reported number, and the lower-bound/upper-estimate sandwich. The summary
carries the worst residual per suite so a regression shows up as a number,
not just a flag.
"""

from __future__ import annotations

import numpy as np

from .bounds import (
    SCHEMA_VERSION,
    analyze,
    bound_coefficients,
    convex_roof_upper_estimate,
    pure_concurrence_purity,
    pure_concurrence_tensor,
)
from .generators import apply_local_unitaries
from .linalg import PartitionContext, partial_trace, purity
from .states import RNG_NAME, haar_random_pure, haar_unitary, random_mixed
from .tensors import all_tensors, purity_from_tensors, reduced_purity_from_tensors

TOLERANCES = {
    "pure_equivalence": 1e-8,
    "purity_identity": 1e-10,
    "reduced_purity_identity": 1e-10,
    "local_unitary_invariance": 1e-9,
    "bound_sandwich": 1e-9,
    "tangle_sandwich": 1e-9,
}

MAX_PARTIES = 4
MAX_LOCAL_DIM = 3


def _report_numbers(rep):
    return np.array([
        rep.concurrence_lower, rep.concurrence_lower_raw,
        rep.tangle_lower, rep.tangle_lower_raw, rep.tangle_upper,
        rep.sum_reduced_purities,
    ])


def run_verification(ns=(2, 3), ds=(2,), n_states: int = 50, seed: int = 0,
                     roof_samples: int = 40) -> dict:
    """Run every suite and return a JSON-ready summary.

    ``ns`` and ``ds`` pick the party counts and local dimensions; both are
    capped (N <= 4, d <= 3) to keep the densest sector sizes at desk scale.
    The whole run is a deterministic function of the arguments.
    """
    ns = tuple(int(n) for n in ns)
    ds = tuple(int(d) for d in ds)
    if not ns or not ds:
        raise ValueError("need at least one party count and one local dimension")
    for n in ns:
        if not 2 <= n <= MAX_PARTIES:
            raise ValueError(f"party counts must lie in 2..{MAX_PARTIES}, got {n}")
    for d in ds:
        if not 2 <= d <= MAX_LOCAL_DIM:
            raise ValueError(f"local dimensions must lie in 2..{MAX_LOCAL_DIM}, got {d}")
    if n_states < 1:
        raise ValueError("n_states must be positive")
    if roof_samples < 1:
        raise ValueError("roof_samples must be positive")

    rng = np.random.default_rng(seed)
    combos = [(n, d) for n in ns for d in ds]
    residuals = {name: 0.0 for name in TOLERANCES}

    for n, d in combos:
        ctx = PartitionContext(n, d)
        coeffs = bound_coefficients(ctx)
        dim = ctx.total_dim

        for _ in range(n_states):
            psi = haar_random_pure(ctx, rng)
            gap = abs(pure_concurrence_purity(psi)
                      - pure_concurrence_tensor(all_tensors(psi), coeffs))
            residuals["pure_equivalence"] = max(residuals["pure_equivalence"], gap)

        for i in range(n_states):
            rank = (1, 2, dim)[i % 3]
            rho = random_mixed(ctx, rank, rng)
            ts = all_tensors(rho)
            residuals["purity_identity"] = max(
                residuals["purity_identity"],
                abs(purity_from_tensors(ts) - purity(rho)))
            for mask in range(1, ctx.full_mask):
                gap = abs(reduced_purity_from_tensors(ts, mask)
                          - purity(partial_trace(rho, mask)))
                residuals["reduced_purity_identity"] = max(
                    residuals["reduced_purity_identity"], gap)

        for _ in range(max(1, n_states // 10)):
            rho = random_mixed(ctx, 2, rng)
            rotated = apply_local_unitaries(
                rho, [haar_unitary(d, rng) for _ in range(n)])
            gap = float(np.abs(_report_numbers(analyze(rho))
                               - _report_numbers(analyze(rotated))).max())
            residuals["local_unitary_invariance"] = max(
                residuals["local_unitary_invariance"], gap)

        for _ in range(max(1, n_states // 5)):
            rho = random_mixed(ctx, min(4, dim), rng)
            rep = analyze(rho)
            roof = convex_roof_upper_estimate(
                rho, roof_samples, int(rng.integers(1 << 31)))
            residuals["bound_sandwich"] = max(
                residuals["bound_sandwich"], rep.concurrence_lower - roof)
            residuals["tangle_sandwich"] = max(
                residuals["tangle_sandwich"], rep.tangle_lower - rep.tangle_upper)

    suites = {}
    for name, tol in TOLERANCES.items():
        suites[name] = {
            "max_residual": float(residuals[name]),
            "tolerance": tol,
            "passed": residuals[name] <= tol,
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "rng": RNG_NAME,
        "ns": list(ns),
        "ds": list(ds),
        "n_states": n_states,
        "roof_samples": roof_samples,
        "suites": suites,
        "failures": [name for name, s in suites.items() if not s["passed"]],
        "all_passed": all(s["passed"] for s in suites.values()),
    }
