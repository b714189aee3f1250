"""Shared fixtures."""

import pytest


def _paper_coefficients(n, d):
    """The paper's sector-norm form of the gap, (K, {l: k_l}) for l = 2..N:
    g = sum_l k_l sum_{|S|=l} ||T^S||^2 - K. Written out from the paper, not
    from the package, which computes g from two purities instead."""
    dn = d ** n
    constant = ((d + 1) ** n + (dn - 1) * (d + 1) ** (n - 1) - 2 ** n * dn) / dn
    per_level = {l: 2 ** l * ((d + 1) ** (n - 1) - (d + 1) ** (n - l)) / d ** (n + l)
                 for l in range(2, n + 1)}
    return constant, per_level


def _paper_gap(ts):
    constant, per_level = _paper_coefficients(ts.ctx.n_parties, ts.ctx.local_dim)
    return sum(k * ts.norm_sq_by_size(l) for l, k in per_level.items()) - constant


@pytest.fixture(scope="session")
def paper_coefficients():
    return _paper_coefficients


@pytest.fixture(scope="session")
def paper_gap():
    return _paper_gap
