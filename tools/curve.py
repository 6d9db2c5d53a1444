"""Scaling curve of kms_simplex and verify_simplex on long chains.

    python3 tools/curve.py CHECKOUT [CHECKOUT ...]

For each checkout and each n in SIZES, one subprocess builds
``corpus.chain(random.Random(1), n)`` from the checkout's bench, takes its
top critical temperature (graph analysis untimed) and times
``kms_simplex`` and then ``verify_simplex`` there.  A row gives the vertex
count, both times in seconds, the subprocess's peak RSS and whether the
check of y (read off the phi rows' own atoms) settled by its certificate:
"yes" when verify bounded y and summed no series, "no" when it summed one,
"-" when it checked no y.
"""

import json
import random
import resource
import subprocess
import sys
import time

import digest  # sets the BLAS thread count, so it comes before numpy

SIZES = (250, 500, 1000, 2000)


def run(root: str, n: int) -> dict:
    digest.use_checkout(root)
    import corpus
    from graphkms import kms, oracle, parse_graph, spectral

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
    settled = "no" if calls["resolvent_series"] else "yes" if calls["_y_error_bound"] else "-"
    return {"n": n, "vertices": len(G.vertices), "kms_s": built - started,
            "verify_s": done - built, "failures": len(failures), "certified": settled,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main() -> None:
    if sys.argv[1] == "--run":
        print(json.dumps(run(sys.argv[2], int(sys.argv[3]))))
        return
    print("checkout\tn\tvertices\tkms_s\tverify_s\tpeak_rss_mb\tcertified\tfailures")
    for root in sys.argv[1:]:
        for n in SIZES:
            out = subprocess.run([sys.executable, __file__, "--run", root, str(n)],
                                 check=True, capture_output=True, text=True).stdout
            r = json.loads(out.splitlines()[-1])
            print(f"{root}\t{n}\t{r['vertices']}\t{r['kms_s']:.3f}\t{r['verify_s']:.3f}\t"
                  f"{r['peak_rss_mb']:.0f}\t{r['certified']}\t{r['failures']}", flush=True)


if __name__ == "__main__":
    main()
