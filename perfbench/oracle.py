"""Tensor-free reference values for the analyze bounds.

Every sector norm ||T^S||^2 is recovered from reduced purities taken by
direct partial traces, never from the correlation tensors. The expansion
of a reduction rho_S over the sectors inside S gives

    d^|S| Tr[rho_S^2] = sum_{R subset of S} (2/d)^|R| ||T^R||^2,

with the empty set contributing 1. Inclusion-exclusion inverts this sum,
so the norms and every bound built on them follow from 2^N - 1 purities.
The bound formulas are written out here from the paper rather than taken
from the library, so a wrong coefficient shows up as a mismatch.
"""

from __future__ import annotations

import math

# gaps within this distance of zero are reported as exactly zero by the
# library (README, "Numerical conventions")
ZERO_SNAP = 1e-10


def reduced_purities(linalg, rho) -> dict:
    """Tr[rho_S^2] for every nonempty mask S, the full set included."""
    n = rho.ctx.n_parties
    return {mask: linalg.purity(linalg.partial_trace(rho, mask))
            for mask in range(1, 1 << n)}


def sector_norms(purities: dict, n: int, d: int) -> dict:
    """||T^S||^2 for every nonempty mask, by inclusion-exclusion."""
    def g(mask):
        return 1.0 if mask == 0 else d ** mask.bit_count() * purities[mask]

    norms = {}
    for mask in range(1, 1 << n):
        f = 0.0
        sub = mask
        while True:
            sign = -1.0 if (mask.bit_count() - sub.bit_count()) % 2 else 1.0
            f += sign * g(sub)
            if sub == 0:
                break
            sub = (sub - 1) & mask
        norms[mask] = f * (d / 2.0) ** mask.bit_count()
    return norms


def expected_bounds(purities: dict, n: int, d: int) -> dict:
    """Concurrence and tangle bounds of one state from its purities."""
    norms = sector_norms(purities, n, d)
    dn = d ** n
    constant = ((d + 1) ** n + (dn - 1) * (d + 1) ** (n - 1) - 2 ** n * dn) / dn
    weighted = 0.0
    for mask, norm_sq in norms.items():
        size = mask.bit_count()
        if size >= 2:
            weighted += (2 ** size * ((d + 1) ** (n - 1) - (d + 1) ** (n - size))
                         / d ** (n + size)) * norm_sq
    gap = weighted - constant
    if abs(gap) <= ZERO_SNAP:
        gap = 0.0
    raw = 2.0 ** (1 - n / 2) * math.copysign(math.sqrt(abs(gap)), gap)
    proper = sum(p for mask, p in purities.items() if mask != (1 << n) - 1)
    return {
        "concurrence_lower_raw": raw,
        "concurrence_lower": max(0.0, raw),
        "tangle_lower_raw": 2.0 ** (2 - n) * gap,
        "tangle_upper": 2.0 ** (2 - n) * (2 ** n - 2 - proper),
    }


def close(value: float, reference: float, rel: float = 1e-9) -> bool:
    """Relative agreement, absolute near zero."""
    return abs(value - reference) <= rel * max(1.0, abs(reference))
