"""Run one benchmark workload against the blochbounds sources in ./src.

    python3 perfbench/run.py --workload analyze-grid --seed 1 --seconds 21 --trace 0

One process, one closed-loop client: each op starts when the previous one
has returned and been checked. The loop runs whole passes over the
workload's op list until ``--seconds`` of op time, scaled to a reference
host speed (see calibrate.py), have been measured. Set-up (import, input
construction, one warm-up op per input shape) is repeated and its median
reported; oracle and reference work is excluded from it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` passes alternate between traced and untraced, the last
line carries the per-layer metrics, and the spans are written to
``.perfbench_out/``. The line before the last is a full record with
provenance, sample counts, the error rate and the roof gap.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads; one thread keeps the timing
# of every workload independent of the cores other processes are using
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from calibrate import Calibration  # noqa: E402
from tracing import LAYERS, PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, CliOp  # noqa: E402

SETUP_REPEATS = 3
MAX_WALL_FACTOR = 4
# each op's median counts this many times in the tail's order statistic
TAIL_WEIGHT = 11
PACKAGE = "blochbounds"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class MissingSource(RuntimeError):
    """The checkout has no library sources to benchmark."""


def load_modules(src: Path) -> dict:
    """Import the package and its seven modules fresh from ``src``."""
    for name in [m for m in sys.modules
                 if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise MissingSource(f"{PACKAGE} resolved to {package.__file__}, "
                            f"not to the sources under {src}")
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
            for layer in LAYERS}
    mods["package"] = package
    return mods


def git_commit(root: Path):
    """HEAD of the checkout read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(root: Path, src: Path, mods: dict, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((src / PACKAGE).glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_commit": git_commit(root),
        "source_sha256": digest.hexdigest(),
        "package_version": mods["package"].__version__,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


def measure(workload, seconds: float, tracer: Tracer | None = None,
            calibration: Calibration | None = None) -> dict:
    """Closed loop over whole passes until ``seconds`` of scaled op time.

    The deadline counts scaled time, so the number of passes does not
    follow the host's speed; ``MAX_WALL_FACTOR`` times ``seconds`` of wall
    time caps a run on a very slow host.

    Latency covers ``op.call`` only; checks and calibration units run
    outside the timed region. Each latency is also given scaled by the
    speed factor of the calibration units run just before and just after
    the op, which tracks the host's speed at the op's own time.
    Traced runs alternate traced and untraced passes and need one of each.
    """
    calibration = calibration or Calibration()
    raw = [[] for _ in workload.ops]
    scaled = [[] for _ in workload.ops]
    factors = []
    walls = {True: [], False: []}
    counters = {"cli.bytes_in": 0, "cli.bytes_out": 0, "cli.exit_nonzero": 0}
    attempted = failed = 0
    reported = 0
    measured = 0.0
    wall_cap = time.perf_counter() + MAX_WALL_FACTOR * seconds
    while True:
        traced = tracer is not None and len(walls[True]) <= len(walls[False])
        if traced:
            tracer.install()
        pass_scaled = []
        before = calibration.samples()
        try:
            for i, op in enumerate(workload.ops):
                attempted += 1
                if tracer is not None:
                    tracer.op_id = attempted
                result = None
                start = time.perf_counter()
                try:
                    result = op.call()
                    elapsed = time.perf_counter() - start
                    ok = bool(op.check(result))
                except Exception:  # a failing op is counted, not fatal
                    elapsed = time.perf_counter() - start
                    ok = False
                    if reported < 3:
                        traceback.print_exc(file=sys.stderr)
                if not ok:
                    failed += 1
                    if reported < 3:
                        print(f"check failed: {op.label}", file=sys.stderr)
                    reported += 1
                after = calibration.samples()
                factor = calibration.factor(before + after)
                before = after
                factors.append(factor)
                raw[i].append(elapsed)
                scaled[i].append(elapsed * factor)
                pass_scaled.append(elapsed * factor)
                if traced and isinstance(op, CliOp) and result is not None:
                    code, out, err = result
                    counters["cli.bytes_in"] += len(op.stdin.encode())
                    counters["cli.bytes_out"] += len(out.encode()) + len(err.encode())
                    counters["cli.exit_nonzero"] += code != 0
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(pass_scaled))
        measured += sum(pass_scaled)
        done = measured >= seconds or time.perf_counter() >= wall_cap
        if done and (tracer is None or (walls[True] and walls[False])):
            break
    return {"latencies": {"raw": raw, "scaled": scaled}, "factors": factors,
            "passes": len(walls[True]) + len(walls[False]), "walls": walls,
            "counters": counters, "attempted": attempted, "failed": failed}


class SetupClock:
    """Times set-up in steps with calibration units between the steps.

    ``mark()`` ends a step; each step is scaled by the units run just
    before and just after it, as ops are in ``measure``. The units run
    outside the timed steps.
    """

    def __init__(self, calibration: Calibration):
        self.calibration = calibration
        self.raw = self.scaled = 0.0
        self.before = calibration.samples()
        self.start = time.perf_counter()

    def mark(self):
        elapsed = time.perf_counter() - self.start
        after = self.calibration.samples()
        self.raw += elapsed
        self.scaled += elapsed * self.calibration.factor(self.before + after)
        self.before = after
        self.start = time.perf_counter()


def timed_setup(name: str, src: Path, seed: int, calibration: Calibration):
    """Repeat set-up; return the last workload with raw and scaled times.

    One set-up is import and input construction, then one step per warm-up
    op (the workload calls ``mark`` before each).
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        clock = SetupClock(calibration)
        mods = load_modules(src)
        workload = WORKLOADS[name](mods, seed, clock.mark)
        clock.mark()
        raw.append(clock.raw)
        scaled.append(clock.scaled)
    return mods, workload, {"raw": raw, "scaled": scaled}


def tail(medians: list) -> tuple:
    """Highest percentile with at least ten samples above it, and its value.

    The samples are the per-op medians, each counted ``TAIL_WEIGHT`` times
    whatever the number of passes, so the rank is fixed by the op count:
    the eleventh-largest sample is the slowest op's median. A change that
    fits more or fewer passes into a run cannot move the tail onto another
    op. The percentile is the share of samples at or below it.
    """
    ordered = sorted(m for m in medians for _ in range(TAIL_WEIGHT))
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(setup_times: list, stats: dict, kind: str) -> dict:
    """The end-to-end metrics from the ``kind`` ("scaled" or "raw") times.

    Every op runs once per pass, so the op mix is fixed; each op's samples
    are replaced by their median over the run before rates and percentiles
    are taken. They then describe a typical pass, and one slow sample of a
    jittery host cannot move an order statistic across a gap between the
    clustered op costs.
    """
    per_op = stats["latencies"][kind]
    medians = [statistics.median(samples) for samples in per_op]
    percentile, tail_value = tail(medians)
    n = sum(len(samples) for samples in per_op)
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "ops_per_s": (len(medians) / sum(medians), n),
        "latency_p50_ms": (statistics.median(medians) * 1e3, n),
        "latency_tail_ms": (tail_value * 1e3, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        1),
    }
    return {name: {"value": values[name][0], "unit": unit, "n": values[name][1],
                   **({"percentile": percentile} if name == "latency_tail_ms" else {})}
            for name, unit in END_TO_END}


def per_layer(tracer, stats, roof_gap) -> dict:
    walls = stats["walls"]
    passes = len(walls[True])
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    values = tracer.metrics(passes, roof_gap, stats["factors"])
    values["trace.overhead"] = overhead
    values.update({k: v / passes for k, v in stats["counters"].items()})
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _better in PER_LAYER}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {src}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    calibration = Calibration()
    mods, workload, setup_times = timed_setup(args.workload, src, args.seed,
                                              calibration)
    workload.attach_checks()

    tracer = Tracer(mods) if args.trace else None
    stats = measure(workload, args.seconds, tracer, calibration)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(root, src, mods, args.seed),
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "error_rate": stats["failed"] / stats["attempted"],
        "roof_gap": workload.roof_gap,
        "passes": stats["passes"],
        "op_median_ms": [[op.label, statistics.median(samples) * 1e3]
                         for op, samples in zip(workload.ops,
                                                stats["latencies"]["scaled"])],
        "speed_factor": {"median": statistics.median(stats["factors"]),
                         "min": min(stats["factors"]),
                         "max": max(stats["factors"])},
        "setup_runs_s": setup_times,
    }
    if tracer is None:
        metrics = end_to_end(setup_times["scaled"], stats, "scaled")
        record["end_to_end"] = metrics
        record["end_to_end_unscaled"] = end_to_end(setup_times["raw"], stats, "raw")
    else:
        metrics = per_layer(tracer, stats, workload.roof_gap)
        out = root / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(out)
        record["spans"] = str(out.relative_to(root))
    for name, metric in metrics.items():
        print(f"{args.workload:14s} {name:44s} {metric['value']:14.6g} "
              f"{metric['unit']}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
