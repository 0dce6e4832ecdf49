"""Steadiness check: repeat workloads and print each metric's spread.

    python3 perfbench/steady.py --repeats 10 [--workloads maze_bound ...]

Runs ``run.py`` once per repeat and workload, each in a fresh process
with its own ``--seed`` (seeds ``first-seed``, ``first-seed + 1``, ...),
and prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the relative
spread ``(q3 - q1) / median`` next to the metric's bound in
``BENCHMARK.json``, plus the share of failed operations. This is the
evidence the bounds are set from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, input_seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--input-seed", str(input_seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--input-seed", type=int, default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads:
        results = []
        for i in range(args.repeats):
            result = run_once(workload, args.first_seed + i, args.seconds,
                              args.input_seed)
            results.append(result)
            print(f"{workload} seed {args.first_seed + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.repeats} runs, failed share "
              f"{' / '.join(f'{s:.4f}' for s in shares)}, "
              f"{'all correct' if all(r['correct'] for r in results) else 'NOT CORRECT'}")
        print(f"  {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = "" if spread <= bound / 3 else "  > bound/3"
            print(f"  {name:12s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.2%} {bound:6.2f}{flag}")
        print(flush=True)


if __name__ == "__main__":
    main()
