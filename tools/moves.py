"""How far the library results of one checkout move from another's.

    python3 tools/moves.py CHECKOUT_A CHECKOUT_B

Runs the library graphs and betas of ``tools/digest.py`` in one subprocess
per checkout.  For each graph whose results differ, prints the largest
relative move in its radii, its critical values (the move of ln rho) and
its measure entries (against the largest entry of their row).  Exits 1 if
a move exceeds 1e-12 or a raise or ``verify_simplex`` list differs.
"""

import pickle
import subprocess
import sys

import digest  # sets the BLAS thread count, so it comes before numpy
import numpy as np

BOUND = 1e-12


def results(root: str) -> dict:
    """name -> (radii, critical values, per beta: measures and verify list, or the raise)."""
    digest.use_checkout(root)
    from graphkms import kms, oracle

    out = {}
    for name, G, _, values, betas in digest.library_graphs():
        at = []
        for beta in betas:
            try:
                sx = kms.kms_simplex(G, beta)
                at.append((np.array(sx.measures), oracle.verify_simplex(G, sx)))
            except Exception as err:  # noqa: BLE001 - a raise is part of the result
                at.append((type(err).__name__, str(err)))
        out[name] = (np.array(G.spectral_radii), np.array(values), at)
    return out


def move(a, b, scale) -> float:
    """Largest |a - b| / scale, counting 0 / 0 as 0."""
    gap = abs(a - b)
    return float(np.max(gap / np.where(gap > 0, scale, 1.0), initial=0.0))


def main() -> int:
    if sys.argv[1] == "--dump":
        sys.stdout.buffer.write(pickle.dumps(results(sys.argv[2])))
        return 0
    a, b = (pickle.loads(subprocess.run([sys.executable, __file__, "--dump", root],
                                        check=True, capture_output=True).stdout)
            for root in sys.argv[1:3])
    bad = 0
    for name, (radii, values, at) in a.items():
        radii_b, values_b, at_b = b[name]
        if radii.shape != radii_b.shape or values.shape != values_b.shape:
            print(f"{name}: the components or critical values differ")
            bad += 1
            continue
        moves = [move(radii, radii_b, np.maximum(radii, radii_b)), move(values, values_b, 1), 0]
        for (x, checks), (y, checks_b) in zip(at, at_b):
            if isinstance(x, np.ndarray) and isinstance(y, np.ndarray) and x.shape == y.shape:
                row = np.maximum(abs(x), abs(y)).max(axis=1, keepdims=True, initial=0.0)
                moves[2] = max(moves[2], move(x, y, row))
                same = checks == checks_b
            else:
                same = type(x) is type(y) is str and (x, checks) == (y, checks_b)
            if not same:
                print(f"{name}: {(x, checks)!r:.120} became {(y, checks_b)!r:.120}")
                bad += 1
        if any(moves):
            print("{}: radii {:.3g}, criticals {:.3g}, measures {:.3g}".format(name, *moves))
            bad += max(moves) > BOUND
    print(f"{bad} graphs moved more than {BOUND:g} or differ in a raise or check", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
