"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads sweep chains blocks --seeds 1 10 \\
        [--seconds 30] [--trace 0]

For every workload it runs bench/run.py once per seed, one run at a time,
and prints per metric the median, the quartiles (statistics.quantiles with
n=4) and the interquartile range as a share of the median, plus the failed
share and the run times.  The raw results go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs=2, type=int, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workloads:
        runs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900, cwd=BENCH.parent,
            )
            elapsed = time.monotonic() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            result.update(seed=seed, elapsed_s=elapsed)
            runs.append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        name = f"{workload}-trace{args.trace}-seeds{args.seeds[0]}-{args.seeds[1]}.json"
        (out_dir / name).write_text(json.dumps(runs, indent=1))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"== {workload}: failed shares {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in runs)}, "
              f"max run {max(r['elapsed_s'] for r in runs):.1f} s")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {metric:26s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  iqr/median {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
