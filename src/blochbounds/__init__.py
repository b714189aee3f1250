"""Correlation-tensor bounds on multipartite entanglement measures.

The package decomposes N-party density matrices over tensor products of
traceless Hermitian generators, turns the sector norms of that expansion
into computable lower bounds on the concurrence and two-sided bounds on
the tangle, and flags genuine multipartite entanglement against a
dimension-dependent threshold. A state factory, a convex-roof sampling
estimator, the closed-form white-noise threshold, a generic bisection
scanner for one-parameter families, and a JSON command line front end
round out the toolbox.
"""

from .bounds import (
    ENTANGLED,
    GENUINELY_MULTIPARTITE,
    INCONCLUSIVE,
    BoundsReport,
    analyze,
    concurrence_lower_bound,
    convex_roof_upper_estimate,
    detect,
    gme_threshold,
    pure_concurrence_purity,
    random_decomposition,
    reduced_purity_sum,
    tangle_bounds,
    white_noise_crossing,
)
from .generators import (
    apply_local_unitaries,
    operator_string,
    su_generators,
)
from .linalg import (
    DEFAULT_DIM_CAP,
    DensityMatrix,
    PartitionContext,
    ValidationError,
    hs_norm_sq,
    kron,
    mask_from_parties,
    nonempty_masks,
    partial_trace,
    parties_from_mask,
    purity,
    subset_size,
    validate_density,
)
from .selfcheck import run_verification
from .states import (
    RNG_NAME,
    ScanResult,
    StateSpec,
    ghz_noise_family,
    haar_random_pure,
    haar_unitary,
    make_state,
    random_mixed,
    threshold_scan,
)
from .tensors import (
    CorrelationTensorSet,
    all_tensors,
    correlation_tensor,
    purity_from_tensors,
    reduced_purity_from_tensors,
    reduced_purity_sum_from_norms,
)

__version__ = "0.1.0"
