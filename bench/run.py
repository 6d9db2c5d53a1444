"""Benchmark of graphkms: one workload, one seed, one measured run.

    python3 bench/run.py --workload {sweep,chains,blocks} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; graphkms is imported from its ``src``.
The last line printed is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the run installs no wrappers.  It measures set-up in
fresh interpreters, then runs rounds, each on a fresh corpus, for
``--seconds``, and reports end-to-end metrics.  Their times are in seconds
at a fixed reference speed (see ``speed.py``): the machine's own speed
drifts too much for raw times to compare between runs.  With
``--trace 1`` it repeats round 0, alternating an untraced and a traced pass
over the same corpus, and reports per-layer self times and counts for one
round plus the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import os

# One thread: the machine has two cores and runs one workload at a time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 9

# Times set-up in a fresh interpreter: importing graphkms, generating round
# 0's corpus and parsing it (sweep) or writing it to files (chains, blocks).
# The reference is timed right after, in the same interpreter, and scales
# the set-up time to reference speed.
_SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
w = workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5]))
w.setup(w.generate(0)[0])
setup = time.perf_counter() - t0
import speed
refs = sorted(speed.reference_s() for _ in range(3))
print(setup * speed.NOMINAL_S / refs[1])
"""


def _setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    samples = []
    for k in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(BENCH), workload,
             str(seed), str(workdir / f"setup{k}")],
            check=True, capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout.split()[0]))
    return statistics.median(samples)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _warm_up(w) -> None:
    """Run round 0's smallest graph once, untimed, so first-call costs
    (lazy imports inside graphkms and numpy) stay out of the rounds."""
    import speed

    speed.reference_s()
    texts, hints = w.generate(0)
    i = min(range(len(texts)), key=lambda k: len(texts[k]))
    w.run(w.setup(texts[i:i + 1]), w.plan(texts[i:i + 1], hints[i:i + 1]))


def _untraced(w, seconds: float):
    """Fresh-corpus rounds, generated, run and checked, for ``seconds``.

    A workload whose rounds cycle through a fixed pool (``w.cycle`` rounds
    per pass) runs at least one whole pass and reports on whole passes only,
    so every run measures the same job set whatever the seed; extra rounds
    are run and checked all the same.
    """
    from speed import Clock

    walls, jobs, problems = [], [], []
    attempted = failed = 0
    round_no = 0
    start = perf_counter()
    while perf_counter() - start < seconds or round_no < w.cycle:
        texts, hints = w.generate(round_no)
        plans = w.plan(texts, hints)
        inputs = w.setup(texts)
        res = w.run(inputs, plans, clock=Clock())
        walls.append(res.wall_s)
        jobs.append(res.job_s)
        attempted += len(res.job_s)
        failed += res.failed
        problems += [f"round {round_no}: {p}" for p in w.check(inputs, plans, res)]
        round_no += 1
    whole = len(walls) - len(walls) % w.cycle
    metrics = {
        "wall_s": _metric(statistics.median(walls[:whole]), "s"),
        "job_ms_geomean": _metric(
            statistics.geometric_mean(t for r in jobs[:whole] for t in r) * 1e3, "ms"),
    }
    print(f"{round_no} rounds ({whole} reported) of "
          f"{', '.join(f'{x:.3f}' for x in walls)} s; {attempted} jobs, {failed} failed",
          file=sys.stderr)
    return metrics, attempted, failed, problems


def _traced(w, seconds: float):
    """Passes over round 0 until ``seconds`` are spent, each graph run twice.

    Within a pass every graph is run once untraced and once traced, back to
    back and in alternating order, so the two totals differ by the tracing
    overhead and little else.  Per-layer figures are per pass: self times
    are medians over passes, counts come from the first pass and must repeat.
    """
    from spans import COMPONENTS, LAYERS, Tracer
    from workloads import RoundResult

    texts, hints = w.generate(0)
    plans = w.plan(texts, hints)
    tracer = Tracer()
    passes, problems = [], []
    attempted = failed = 0
    spent = 0.0
    while spent < seconds:
        tracer.reset()
        bare, traced, bare_inputs = RoundResult(), RoundResult(), []
        setup_s = 0.0
        for i in range(len(texts)):
            unit = slice(i, i + 1)
            for with_trace in (False, True) if i % 2 == 0 else (True, False):
                if not with_trace:
                    inputs = w.setup(texts[unit])
                    bare.extend(w.run(inputs, plans[unit]))
                    bare_inputs += inputs
                    continue
                with tracer.installed():
                    t0 = perf_counter()
                    with tracer.root():
                        inputs = w.setup(texts[unit])
                    setup_s += perf_counter() - t0
                    traced.extend(w.run(inputs, plans[unit], tracer.root))
        if not passes:
            problems += w.check(bare_inputs, plans, bare)
        if w.fingerprint(traced.outputs) != w.fingerprint(bare.outputs):
            problems.append("a traced pass gave other outputs than the untraced one")
        passes.append({
            "bare_s": bare.wall_s,
            "wall_s": traced.wall_s,
            "setup_s": setup_s,
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "extremes": tracer.extremes,
            "unattributed_s": tracer.unattributed_s,
        })
        spent += bare.wall_s + traced.wall_s
        attempted += len(bare.job_s) + len(traced.job_s)
        failed += bare.failed + traced.failed
    counts = [(p["calls"], p["extremes"]) for p in passes]
    if any(c != counts[0] for c in counts):
        problems.append("call counts differ between passes")
    gaps = ", ".join(f"{p['wall_s'] - p['bare_s']:+.3f}" for p in passes)
    print(f"{len(passes)} passes, traced minus untraced: {gaps} s", file=sys.stderr)

    def median_ms(values):
        return _metric(statistics.median(values) * 1e3, "ms")

    metrics = {}
    for layer in [*LAYERS, COMPONENTS]:
        stem = "cli.self" if layer == "cli" else layer
        metrics[f"{stem}_ms"] = median_ms(p["self_s"].get(layer, 0.0) for p in passes)
        metrics["cli.calls" if layer == "cli" else f"{layer}_calls"] = _metric(
            passes[0]["calls"].get(layer, 0), "count")
    metrics["kms.extremes"] = _metric(passes[0]["extremes"], "count")
    metrics["trace.setup_ms"] = median_ms(p["setup_s"] for p in passes)
    metrics["trace.wall_ms"] = median_ms(p["wall_s"] for p in passes)
    metrics["trace.untraced_wall_ms"] = median_ms(p["bare_s"] for p in passes)
    metrics["trace.overhead_ms"] = median_ms(p["wall_s"] - p["bare_s"] for p in passes)
    metrics["trace.unattributed_ms"] = median_ms(p["unattributed_s"] for p in passes)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphkms" / "__init__.py").is_file():
        print(f"error: no graphkms sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = BENCH / f".corpus-{args.workload}-{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, workdir / "run")
    try:
        if not args.trace:
            setup_s = _setup_seconds(args.workload, args.seed, workdir)
        _warm_up(w)
        run = _traced if args.trace else _untraced
        metrics, attempted, failed, problems = run(w, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            **metrics,
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        }
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
