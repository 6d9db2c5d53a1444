"""Numpy calls per kms_simplex and per verify_simplex over the sweep pool.

    python3 tools/calls.py [--root CHECKOUT]

Runs every job of the bench's sweep pool from CHECKOUT, as
``tools/digest.py`` does, with a ``sys.setprofile`` hook around each call.
It counts calls of numpy's C functions and methods (``np.array``,
``ndarray.sum``, ``ufunc.reduce``, ...) and of its Python functions
(``np.linalg.inv``, ...).  Ufunc calls and operators such as ``X @ A`` raise
no profile event and are not counted.  Unlike times, the counts repeat.
"""

import argparse
import random
import sys
from pathlib import Path

import digest  # sets the BLAS thread count, so it comes before numpy


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    digest.use_checkout(parser.parse_args().root)
    import corpus
    import numpy
    import workloads
    from graphkms import kms, oracle, parse_graph

    numpy_dir = str(Path(numpy.__file__).parent)
    counts = {name: [0, 0, 0] for name in ("kms_simplex", "verify_simplex")}

    def counted(name, fn, *args):
        tally = counts[name]
        tally[0] += 1

        def hook(frame, event, arg):
            if event == "c_call":
                module = getattr(arg, "__module__", None) or type(arg.__self__).__module__
                tally[1] += module.split(".")[0] == "numpy"
            elif event == "call":
                tally[2] += frame.f_code.co_filename.startswith(numpy_dir)

        sys.setprofile(hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)

    for seed in range(workloads.SWEEP_POOL):
        text = corpus.small_random(random.Random(seed))
        (_, _, jobs), = workloads.Sweep(0, Path()).plan([text], [None])
        G = parse_graph(text)
        criticals = kms.critical_temperatures(G)
        for k, beta in jobs:
            sx = counted("kms_simplex", kms.kms_simplex, G, beta if k is None else criticals[k])
            counted("verify_simplex", oracle.verify_simplex, G, sx)
    for name, (calls, c_calls, py_calls) in counts.items():
        print(f"{name}: {calls} calls, numpy C calls {c_calls} ({c_calls / calls:.2f} per call), "
              f"numpy Python calls {py_calls} ({py_calls / calls:.2f} per call)")


if __name__ == "__main__":
    main()
