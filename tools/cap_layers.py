"""Time the cap-sized layers of blochbounds and record them in BENCH_cap.json.

    python3 tools/cap_layers.py            # every shape, ~15 minutes
    python3 tools/cap_layers.py --quick    # (10, 2) and (6, 4), under a minute

Each (N, d) shape runs in its own subprocess, with BLAS pinned to one
thread, against the sources in ``src/`` beside this script. The subprocess
builds a seeded rank-4 ``random_mixed`` state, then runs
``reduced_purity_sum``, ``all_tensors`` and
``convex_roof_upper_estimate(rho, 11, seed)`` each in a forked copy of
itself (``--quick`` runs the roof on (10, 2) only). A forked copy starts
its ``ru_maxrss`` at the current RSS, not at the high-water mark the
state's construction left, so the peak it reports is the state plus that
one layer; the RSS at the start is recorded beside it.

Every run checks its answers and fails (exit 1, nothing written) when a
layer is wrong: ``purity_from_tensors`` against ``purity`` to 1e-10, the
walk's sum against the sum of ``reduced_purity_from_tensors`` over all
proper subsets to a relative 1e-10, and the roof against the clamped
concurrence lower bound less 1e-9, which it must not fall below. On
(10, 2) the forked copy then reruns the roof in the contraction order the
rule did not pick, after the clock stops, and the two estimates must agree
to 1e-12 (the lower bound of the seeded state is 0, so the sandwich alone
cannot fail there; the larger shapes skip this second run, whose eigh
would take minutes).

The record carries the commit, whether tracked sources differ from it, and
the package version. ``BENCH_cap.json`` at the repository root keeps one run
per (commit, dirty, quick); a new run replaces its match, so runs of other
commits (a parent's, say, made by running this script in a checkout of the
parent that holds a copy of this file) stay beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_cap.json"
SHAPES = ((10, 2), (12, 2), (6, 4), (4, 8), (3, 16), (2, 64))
QUICK_SHAPES = ((10, 2), (6, 4))
QUICK_ROOF_SHAPES = ((10, 2),)
ORDER_CHECK_SHAPES = ((10, 2),)
RANK = 4
SEED = 7
ROOF_SAMPLES = 11
PURITY_TOL = 1e-10
PURITY_SUM_REL_TOL = 1e-10
ROOF_SANDWICH_TOL = 1e-9
ROOF_ORDER_TOL = 1e-12
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _forked(run, summarize) -> dict:
    """Time run() in a forked copy of this process and report its peak RSS.

    summarize(result) runs after the clock and the RSS reading stop and
    returns more JSON fields.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            at_start = _rss_mb()
            start = time.perf_counter()
            result = run()
            seconds = time.perf_counter() - start
            peak = _rss_mb()
            with os.fdopen(write, "w") as out:
                json.dump({"seconds": seconds, "rss_mb": peak,
                           "rss_at_start_mb": at_start,
                           **summarize(result)}, out)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as src:
        data = src.read()
    _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"forked layer exited with status {status}")
    return json.loads(data)


def measure(n: int, d: int, roof: bool) -> dict:
    """Time the layers on one shape and check them; runs in the child."""
    from blochbounds import bounds
    from blochbounds.bounds import (concurrence_lower_bound,
                                    convex_roof_upper_estimate,
                                    reduced_purity_sum)
    from blochbounds.linalg import PartitionContext, purity
    from blochbounds.states import random_mixed
    from blochbounds.tensors import (all_tensors, purity_from_tensors,
                                     reduced_purity_from_tensors)

    ctx = PartitionContext(n, d)
    start = time.perf_counter()
    rho = random_mixed(ctx, RANK, SEED)
    state_s = time.perf_counter() - start

    walk = _forked(lambda: reduced_purity_sum(rho),
                   lambda total: {"sum_reduced_purities": total})
    lattice = walk["sum_reduced_purities"]

    def tensor_checks(ts):
        from_tensors = sum(reduced_purity_from_tensors(ts, mask)
                           for mask in range(1, ctx.full_mask))
        return {"purity_gap": abs(purity_from_tensors(ts) - purity(rho)),
                "purity_sum_rel_gap": abs(lattice - from_tensors) / from_tensors,
                "concurrence_lower": concurrence_lower_bound(ts)[0]}

    tensors = _forked(lambda: all_tensors(rho), tensor_checks)
    passed = (tensors["purity_gap"] <= PURITY_TOL
              and tensors["purity_sum_rel_gap"] <= PURITY_SUM_REL_TOL)
    estimate = None
    if roof:
        form = bounds._purity_form_pays(ctx, RANK)

        def roof_checks(value):
            fields = {"estimate": value, "samples": ROOF_SAMPLES,
                      "order": "form" if form else "ket"}
            if (n, d) in ORDER_CHECK_SHAPES:
                # the forked copy ends after this, so the patch dies with it
                bounds._purity_form_pays = lambda ctx, rank: not form
                other = convex_roof_upper_estimate(rho, ROOF_SAMPLES, SEED)
                fields["other_order_gap"] = abs(value - other)
            return fields

        estimate = _forked(
            lambda: convex_roof_upper_estimate(rho, ROOF_SAMPLES, SEED),
            roof_checks)
        passed = (passed
                  and estimate["estimate"] >= (tensors["concurrence_lower"]
                                               - ROOF_SANDWICH_TOL)
                  and estimate.get("other_order_gap", 0.0) <= ROOF_ORDER_TOL)
    return {
        "n_parties": n,
        "local_dim": d,
        "state_s": state_s,
        "reduced_purity_sum": walk,
        "all_tensors": tensors,
        "roof": estimate,
        "passed": passed,
    }


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _run_shape(n: int, d: int, roof: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    out = subprocess.run(
        [sys.executable, __file__, "--shape", f"{n},{d}"]
        + (["--roof"] if roof else []),
        env=env, capture_output=True, text=True, check=False)
    if out.returncode:
        raise SystemExit(f"shape ({n}, {d}) failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run only (10, 2) and (6, 4), the roof on "
                             "(10, 2) only")
    parser.add_argument("--shape", help=argparse.SUPPRESS)
    parser.add_argument("--roof", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.shape:  # child: one shape, one JSON line on stdout
        n, d = (int(v) for v in args.shape.split(","))
        print(json.dumps(measure(n, d, args.roof)))
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    import blochbounds
    import numpy

    shapes = []
    for n, d in QUICK_SHAPES if args.quick else SHAPES:
        shape = _run_shape(n, d, not args.quick or (n, d) in QUICK_ROOF_SHAPES)
        print(f"({n}, {d}): " + ", ".join(
            f"{layer} {shape[layer]['seconds']:.3f} s "
            f"{shape[layer]['rss_mb']:.0f} MB"
            for layer in ("reduced_purity_sum", "all_tensors", "roof")
            if shape[layer]), file=sys.stderr)
        shapes.append(shape)
    failed = [(s["n_parties"], s["local_dim"]) for s in shapes
              if not s["passed"]]
    if failed:
        print(f"checks failed on {failed}; nothing written", file=sys.stderr)
        return 1

    run = {
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no",
                           "--", "src")),
        "version": blochbounds.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_threads": 1,
        "purity_tol": PURITY_TOL,
        "purity_sum_rel_tol": PURITY_SUM_REL_TOL,
        "roof_sandwich_tol": ROOF_SANDWICH_TOL,
        "roof_order_tol": ROOF_ORDER_TOL,
        "state": f"random_mixed rank {RANK} seed {SEED}",
        "quick": args.quick,
        "shapes": shapes,
    }
    key = ("commit", "dirty", "quick")
    runs = json.loads(OUT.read_text())["runs"] if OUT.exists() else []
    runs = [r for r in runs if any(r[k] != run[k] for k in key)] + [run]
    OUT.write_text(json.dumps({"runs": runs}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
