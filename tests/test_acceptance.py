"""Acceptance gate: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
print; under plain `pytest -v` the per-test verdicts carry the same signal.
Seeds are fixed so every run checks the identical ensemble.
"""

import math
import time

import numpy as np

from blochbounds import (
    DensityMatrix,
    PartitionContext,
    StateSpec,
    all_tensors,
    analyze,
    apply_local_unitaries,
    concurrence_lower_bound,
    convex_roof_upper_estimate,
    ghz_noise_family,
    gme_threshold,
    haar_random_pure,
    haar_unitary,
    make_state,
    partial_trace,
    pure_concurrence_purity,
    purity,
    purity_from_tensors,
    random_mixed,
    reduced_purity_from_tensors,
    tangle_bounds,
    threshold_scan,
)


def report(label, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_pure_state_formula_equivalence():
    combos = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
    start = time.perf_counter()
    worst = 0.0
    for n, d in combos:
        ctx = PartitionContext(n, d)
        for i in range(200):
            rho = haar_random_pure(ctx, seed=1000 * n + 100 * d + i)
            via_purity = pure_concurrence_purity(rho)
            via_tensor = concurrence_lower_bound(all_tensors(rho))[1]
            worst = max(worst, abs(via_purity - via_tensor))
    elapsed = time.perf_counter() - start
    report("pure-state concurrence: purity form == tensor form",
           worst <= 1e-8 and elapsed < 30.0,
           f"max |diff| {worst:.3e} over 1000 states, {elapsed:.1f}s")


def test_noisy_ghz_closed_form():
    family = ghz_noise_family()
    worst = 0.0
    for k in range(16):
        x = 0.02 * k
        rho = make_state(family(x))
        _, raw = concurrence_lower_bound(all_tensors(rho))
        r = 6.0 - 25.0 * x + 12.5 * x * x
        closed = 0.5 * math.copysign(math.sqrt(abs(r)), r)
        worst = max(worst, abs(raw - closed))
    report("noisy-GHZ raw bound matches the closed-form curve",
           worst <= 1e-9, f"max |diff| {worst:.3e} on x=0..0.30")


def test_detection_windows():
    family = ghz_noise_family()
    level = gme_threshold(PartitionContext(3, 2))
    gme = threshold_scan(family, lambda rep: rep.concurrence_lower > level)
    ent = threshold_scan(family, lambda rep: rep.concurrence_lower > 0.0)
    verdicts = tuple(analyze(make_state(family(x))).verdict
                     for x in (0.05, 0.2, 0.5))
    ok = (not gme.no_crossing and abs(gme.crossing_x - 0.08349) <= 1e-4
          and not ent.no_crossing and abs(ent.crossing_x - 0.27889) <= 1e-4
          and verdicts == ("genuine-multipartite-entangled", "entangled",
                           "inconclusive"))
    report("noisy-GHZ detection windows and verdicts", ok,
           f"gme x*={gme.crossing_x:.6f}, ent x*={ent.crossing_x:.6f}")


def test_gme_threshold_values():
    worst = 0.0
    for d in (2, 3, 4):
        got = gme_threshold(PartitionContext(3, d, dim_cap=d ** 3))
        worst = max(worst, abs(got - math.sqrt(2.0 - 2.0 / d)))
    four = gme_threshold(PartitionContext(4, 2))
    worst = max(worst, abs(four - 0.5 * math.sqrt(7.5)))
    report("GME certification levels (three parties d=2,3,4; four qubits)",
           worst <= 1e-12, f"max |diff| {worst:.3e}")


def test_purity_identities():
    # allocation keeps the big-dimension combos from dominating the runtime
    plan = (((2, 2), 25), ((3, 2), 25), ((4, 2), 15),
            ((2, 3), 15), ((3, 3), 15), ((4, 3), 5))
    worst_full = 0.0
    worst_reduced = 0.0
    count = 0
    for (n, d), repeats in plan:
        ctx = PartitionContext(n, d, dim_cap=d ** n)
        ranks = (1, 2, ctx.total_dim)
        for i in range(repeats):
            rho = random_mixed(ctx, rank=ranks[i % 3],
                               seed=7000 + 100 * n + 10 * d + i)
            ts = all_tensors(rho)
            worst_full = max(worst_full,
                             abs(purity_from_tensors(ts) - purity(rho)))
            for mask in range(1, ctx.full_mask):
                direct = purity(partial_trace(rho, mask))
                via = reduced_purity_from_tensors(ts, mask)
                worst_reduced = max(worst_reduced, abs(via - direct))
            count += 1
    report("Bloch-norm purity identities (full and every proper subset)",
           count == 100 and worst_full <= 1e-10 and worst_reduced <= 1e-10,
           f"full {worst_full:.3e}, reduced {worst_reduced:.3e}")


def test_tangle_tightness():
    combos = ((2, 2), (3, 2), (4, 2), (2, 3))
    worst_gap = 0.0
    worst_sq = 0.0
    for i in range(100):
        n, d = combos[i % 4]
        ctx = PartitionContext(n, d)
        rho = haar_random_pure(ctx, seed=3000 + i)
        _, lower, upper = tangle_bounds(all_tensors(rho))
        c_sq = pure_concurrence_purity(rho) ** 2
        worst_gap = max(worst_gap, abs(lower - upper))
        worst_sq = max(worst_sq, abs(lower - c_sq), abs(upper - c_sq))
    violations = 0
    for i in range(100):
        n, d = combos[i % 4]
        ctx = PartitionContext(n, d)
        rho = random_mixed(ctx, rank=2 + i % 3, seed=4000 + i)
        _, lower, upper = tangle_bounds(all_tensors(rho))
        if lower > upper + 1e-9:
            violations += 1
    report("tangle bounds: tight on pure states, ordered on mixed states",
           worst_gap <= 1e-9 and worst_sq <= 1e-9 and violations == 0,
           f"pure gap {worst_gap:.3e}, |bound - c^2| {worst_sq:.3e}, "
           f"mixed violations {violations}")


def test_roof_sandwich():
    ctx = PartitionContext(3, 2)
    violations = 0
    worst = -np.inf
    for i in range(100):
        rho = random_mixed(ctx, rank=1 + i % 4, seed=5000 + i)
        clamped, _ = concurrence_lower_bound(all_tensors(rho))
        roof = convex_roof_upper_estimate(rho, n_samples=200, seed=i)
        worst = max(worst, clamped - roof)
        if clamped > roof + 1e-9:
            violations += 1
    report("clamped lower bound never exceeds the sampled roof estimate",
           violations == 0, f"max(lower - roof) {worst:.3e} over 100 states")


def _report_numbers(rep):
    d = rep.as_dict()
    return np.array([v for v in d.values() if isinstance(v, float)])


def test_local_unitary_invariance():
    worst = 0.0
    for i in range(50):
        n, d = ((3, 2), (2, 3))[i % 2]
        ctx = PartitionContext(n, d)
        if i % 2:
            rho = random_mixed(ctx, rank=2, seed=6000 + i)
        else:
            rho = haar_random_pure(ctx, seed=6000 + i)
        rng = np.random.default_rng(6500 + i)
        rotated = apply_local_unitaries(
            rho, [haar_unitary(d, rng) for _ in range(n)])
        ts, ts_rot = all_tensors(rho), all_tensors(rotated)
        for mask, norm_sq in ts.norms_sq.items():
            worst = max(worst, abs(math.sqrt(norm_sq)
                                   - math.sqrt(ts_rot.norms_sq[mask])))
        delta = np.abs(_report_numbers(analyze(rho))
                       - _report_numbers(analyze(rotated)))
        worst = max(worst, float(delta.max()))
    report("sector norms and reported bounds are local-unitary invariant",
           worst <= 1e-9, f"max shift {worst:.3e} over 50 states")


def test_separable_baseline():
    cases = [StateSpec.from_dict({"kind": "product", "n_parties": n,
                                  "local_dim": d})
             for n, d in ((2, 2), (3, 2), (4, 2), (2, 3))]
    cases.append(StateSpec.from_dict(
        {"kind": "product", "n_parties": 3, "local_dim": 2,
         "params": {"kets": [[0.6, 0.8], [1, 0], [0.5, 0.5]]}}))
    # Gaussian local kets: 2^N - 2 - R rounds to about -1e-15 on many
    rng = np.random.default_rng(0)
    for n, d in ((2, 2), (3, 2), (5, 2), (8, 2), (3, 3), (2, 4), (2, 8)):
        for _ in range(5):
            cases.append(StateSpec.from_dict(
                {"kind": "product", "n_parties": n, "local_dim": d,
                 "params": {"kets": rng.standard_normal((n, d)).tolist()}}))
    cases.append(StateSpec.from_dict({"kind": "ghz_noise",
                                      "params": {"x": 1.0}}))
    reports = [analyze(make_state(spec)) for spec in cases]
    for n, d in ((3, 2), (2, 3), (4, 2)):
        ctx = PartitionContext(n, d)
        eye = np.eye(ctx.total_dim, dtype=complex) / ctx.total_dim
        reports.append(analyze(DensityMatrix(ctx, eye)))
    ok = all(rep.concurrence_lower == 0.0 and rep.tangle_lower == 0.0
             and rep.tangle_upper >= rep.tangle_lower
             and rep.verdict == "inconclusive" for rep in reports)
    report("product and maximally mixed states: exact zeros, inconclusive",
           ok, f"{len(reports)} separable states checked")