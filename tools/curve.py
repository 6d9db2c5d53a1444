"""Scaling curves: kms_simplex and verify_simplex on long chains, and the
graph analysis (Perron data included) and Seneta order on chains, giants,
near-cycles and wide cycles.

    python3 tools/curve.py CHECKOUT [CHECKOUT ...]

Every row is one subprocess, which imports graphkms and the bench from the
checkout.  A chain row builds ``corpus.chain(random.Random(1), n)`` for n in
SIZES, takes its top critical temperature (graph analysis untimed) and
times ``kms_simplex``, then ``verify_simplex`` there, then the rendering of
that simplex's ``states`` table (``cli._measure_cells``, every row written
to a null stream).  It gives the vertex count, the three times in seconds,
the subprocess's peak RSS and whether the check of y (read off the phi rows'
own atoms) settled by its certificate: "yes" when verify bounded y and
summed no series, "no" when it summed one, "-" when it checked no y.

An analysis row parses ``corpus.chain(random.Random(1), n)`` for n in
SIZES, ``corpus.giant(n, random.Random(1))`` for n in GIANTS,
``corpus.near_cycle(n, None)`` for n in NEAR_CYCLES or a wide cycle
(:func:`wide_cycle`) for n in WIDE_CYCLES, without and with its chord.  It
times ``G._analysis()`` alone (components, periods, the Perron data of every
block, the condensation and the divergence pass over it) and then
``seneta_order(G)`` alone, each on a fresh parse of the graph: one untimed
warm-up call, so that imports and first-use costs stay out, then the median
of REPEATS calls.  It gives the vertex and component counts, both times in
milliseconds, the number of ``np.linalg.solve`` calls one analysis makes,
the peak RSS after parsing and how much the warm-up analysis added to it, in
MB, and the name of the exception if the analysis raised (then no Seneta
time).  Chains grow in component count, giants in vertex count.
"""

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import digest  # sets the BLAS thread count, so it comes before numpy

SIZES = (250, 500, 1000, 2000)
GIANTS = (300, 600, 1200, 2400, 4800)
NEAR_CYCLES = (300, 600, 1200)
WIDE_CYCLES = (240, 400)
REPEATS = 5


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(root: str, n: int) -> dict:
    digest.use_checkout(root)
    import corpus
    from graphkms import cli, kms, oracle, parse_graph, spectral

    G = parse_graph(corpus.chain(random.Random(1), n)[0])
    top = kms.critical_temperatures(G)[-1]
    started = time.perf_counter()
    sx = kms.kms_simplex(G, top)
    built = time.perf_counter()
    calls = dict.fromkeys(("_y_error_bound", "resolvent_series"), 0)
    for module, name in ((oracle, "_y_error_bound"), (spectral, "resolvent_series")):
        def counted(*args, name=name, f=getattr(module, name), **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        setattr(module, name, counted)
    failures = oracle.verify_simplex(G, sx)
    done = time.perf_counter()
    with open(os.devnull, "w") as null:
        null.writelines(cli._measure_cells(G, sx.measures))
    rendered = time.perf_counter()
    settled = "no" if calls["resolvent_series"] else "yes" if calls["_y_error_bound"] else "-"
    return {"n": n, "vertices": len(G.vertices), "kms_s": built - started,
            "verify_s": done - built, "table_s": rendered - done, "failures": len(failures),
            "certified": settled, "peak_rss_mb": peak_rss_mb()}


def wide_cycle(n: int, chord: bool) -> str:
    """An n-cycle c0 -> c1 -> ... whose arcs out of c0 .. c(n/2 - 1) have
    multiplicity 10^6 and the rest 1, so its Perron entries span about
    10^(3n/2); the chord runs from c(n/4) to c(3n/4)."""
    lines = ["vertices: " + " ".join(f"c{i}" for i in range(n))]
    lines += [f"edge c{i} c{(i + 1) % n} {10**6 if i < n // 2 else 1}" for i in range(n)]
    if chord:
        lines.append(f"edge c{n // 4} c{3 * n // 4}")
    return "\n".join(lines)


def analysis(root: str, family: str, n: int) -> dict:
    digest.use_checkout(root)
    import corpus
    import numpy as np
    from graphkms import parse_graph, seneta_order

    if family == "chain":
        text = corpus.chain(random.Random(1), n)[0]
    elif family == "giant":
        text = corpus.giant(n, random.Random(1))
    elif family == "near_cycle":
        text = corpus.near_cycle(n, None)
    else:
        text = wide_cycle(n, family == "wide_cycle_chord")
    G = parse_graph(text)
    solves, solve = [0], np.linalg.solve

    def counted(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    np.linalg.solve = counted
    before = peak_rss_mb()
    times = []
    for k in range(REPEATS + 1):  # call 0 is the untimed warm-up
        G, error = parse_graph(text), None
        started = time.perf_counter()
        try:
            G._analysis()
        except ArithmeticError as err:  # ConvergenceError where a Perron pair fails
            error = type(err).__name__
        analysed = time.perf_counter()
        if error is None:
            seneta_order(G)
        if k == 0:
            added, solved = peak_rss_mb() - before, solves[0]
        else:
            times.append((analysed - started, time.perf_counter() - analysed))
    return {"family": family, "n": n, "vertices": len(G.vertices),
            "components": None if error else len(G.components),
            "analysis_ms": 1000 * statistics.median(t for t, _ in times),
            "seneta_ms": 1000 * statistics.median(t for _, t in times),
            "solves": solved, "parsed_rss_mb": before, "added_rss_mb": added,
            "error": error}


def row(*args) -> dict:
    out = subprocess.run([sys.executable, __file__, *map(str, args)],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> None:
    if sys.argv[1] == "--run":
        print(json.dumps(run(sys.argv[2], int(sys.argv[3]))))
        return
    if sys.argv[1] == "--analysis":
        print(json.dumps(analysis(sys.argv[2], sys.argv[3], int(sys.argv[4]))))
        return
    print("checkout\tn\tvertices\tkms_s\tverify_s\ttable_s\tpeak_rss_mb\tcertified\tfailures")
    for root in sys.argv[1:]:
        for n in SIZES:
            r = row("--run", root, n)
            print(f"{root}\t{n}\t{r['vertices']}\t{r['kms_s']:.3f}\t{r['verify_s']:.3f}\t"
                  f"{r['table_s']:.3f}\t{r['peak_rss_mb']:.0f}\t{r['certified']}\t"
                  f"{r['failures']}", flush=True)
    print("checkout\tfamily\tn\tvertices\tcomponents\tanalysis_ms\tseneta_ms\tsolves\t"
          "parsed_rss_mb\tadded_rss_mb\terror")
    families = (("chain", SIZES), ("giant", GIANTS), ("near_cycle", NEAR_CYCLES),
                ("wide_cycle", WIDE_CYCLES), ("wide_cycle_chord", WIDE_CYCLES))
    for root in sys.argv[1:]:
        for family, sizes in families:
            for n in sizes:
                r = row("--analysis", root, family, n)
                print(f"{root}\t{family}\t{n}\t{r['vertices']}\t{r['components']}\t"
                      f"{r['analysis_ms']:.1f}\t{r['seneta_ms']:.2f}\t{r['solves']}\t"
                      f"{r['parsed_rss_mb']:.1f}\t{r['added_rss_mb']:.1f}\t"
                      f"{r['error'] or '-'}", flush=True)


if __name__ == "__main__":
    main()
