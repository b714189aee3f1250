"""Run every workload over a range of seeds and print the metrics table.

    python3 perfbench/report.py --seeds 1-10 --seconds 21 [--trace 1] [--out FILE]

Each (seed, workload) pair is one ``run.py`` process, run one after the
other with seeds outermost, so slow drift of the machine is shared out
across workloads. For every metric the table gives the median over seeds
and the spread (Q3 - Q1) / median that BENCHMARK.json bounds; untraced
runs also give the spread of the same metric from unscaled wall times,
and the range of the calibration's speed factor. With ``--out`` the raw
values (scaled and unscaled), the summary and the runs' provenance are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
# the first run in a checkout may be slow; no run should take longer
RUN_TIMEOUT_S = 900


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def _rows(items, key):
    """Summary over seeds of every metric the runs report under ``key``."""
    return {name: summarize([i["record"][key][name]["value"] for i in items])
            for name in items[0]["record"][key]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1"))
    parser.add_argument("--seconds", type=float, default=21)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = {w: [] for w in WORKLOADS}
    for seed in args.seeds:
        for workload in WORKLOADS:
            record, result = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append({"record": record, "result": result})
            print(f"seed {seed:3d} {workload:14s} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr)

    summary = {}
    print(f"{'workload':14s} {'metric':44s} {'median':>12s} {'spread':>8s} "
          f"{'unscaled':>8s} unit")
    for workload, items in runs.items():
        metrics = items[0]["result"]["metrics"]
        rows = {name: summarize([i["result"]["metrics"][name]["value"]
                                 for i in items])
                for name in metrics}
        rows["error_rate"] = summarize([i["record"]["error_rate"] for i in items])
        rows["roof_gap"] = summarize([i["record"]["roof_gap"] for i in items])
        units = {name: m["unit"] for name, m in metrics.items()}
        units.update(error_rate="ratio", roof_gap="1")
        unscaled = _rows(items, "end_to_end_unscaled") if not args.trace else {}
        for name, row in rows.items():
            row["unit"] = units[name]
            raw = f"{unscaled[name]['spread']:8.4f}" if name in unscaled else " " * 8
            print(f"{workload:14s} {name:44s} {row['median']:12.6g} "
                  f"{row['spread']:8.4f} {raw} {row['unit']}")
        factors = [i["record"]["speed_factor"] for i in items]
        summary[workload] = {
            "metrics": rows,
            "unscaled": unscaled,
            "speed_factor": {"median": summarize([f["median"] for f in factors]),
                             "min": min(f["min"] for f in factors),
                             "max": max(f["max"] for f in factors)},
        }
        print(f"{workload:14s} speed factor: median of run medians "
              f"{summary[workload]['speed_factor']['median']['median']:.4g}, "
              f"range {summary[workload]['speed_factor']['min']:.4g} - "
              f"{summary[workload]['speed_factor']['max']:.4g}")

    if args.out:
        args.out.write_text(json.dumps({
            "seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
            "provenance": next(iter(runs.values()))[0]["record"]["provenance"],
            "summary": summary,
            "runs": {w: [{"seed": i["record"]["provenance"]["seed"],
                          "passes": i["record"]["passes"],
                          "speed_factor": i["record"]["speed_factor"],
                          "metrics": {k: m["value"] for k, m in
                                      i["result"]["metrics"].items()},
                          **({"unscaled": {k: m["value"] for k, m in
                                           i["record"]["end_to_end_unscaled"].items()}}
                             if not args.trace else {})}
                         for i in items] for w, items in runs.items()},
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
