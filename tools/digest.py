"""Identity digest of graphkms: one diffable line per library graph and per CLI call.

    python3 tools/digest.py [--root CHECKOUT] > digest.txt

graphkms, ``tests/conftest.py`` and the bench workloads are imported from
CHECKOUT (default: the checkout holding this file), so one copy of this
script digests any checkout.  Run it on two checkouts and ``diff`` the
outputs: equal lines mean bit-identical results.

A library line covers one graph (``conftest.GRAPHS``, then
``random_graph`` seeds 0..999): its critical values and, at every critical
value and on a 20-point beta grid, every ``Regime`` field but a beta, the
simplex's ``beta`` and ``beta_value``, the measure bytes, labels, flags,
state types, state beta values and the ``verify_simplex`` list.  A
corruption line covers the same graph and betas: the ``verify_simplex``
list of every corrupted copy of each simplex (``CORRUPTIONS``, one row at a
time), so that a change to the oracle shows on failures as well as on
clean passes.  A CLI line covers one ``cli.main`` call of the ``chains``
and ``blocks`` workloads, rounds 0-2 at seeds 1-3: its stdout, stderr and
exit code, with the temporary directory masked.  A table line covers one
``states`` call on a graph of ``TABLES``, in the forms the bench rounds
never print.  ``repr`` is hashed, so a float that changes type (say to
``np.float64``) changes a line.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

SEEDS = 1000
# What a corrupted copy of a simplex changes in one row of its measures.
# The last two apply to phi rows only, "charge" only where H_beta is not empty.
CORRUPTIONS = ("scale", "negative", "charge", "off_vertex", "shift")
# states tables the bench rounds never print, as (name, graph, betas), a
# beta of None meaning the top critical value + 0.01: a path whose entries
# run down to 2.65e-261, some rounded negative; multiplicities near 1e12;
# and entries 2^-13 and 2^-14, whose 10th digit is an exact tie.
TABLES = (
    ("path", "vertices: a b c d\nedge a b\nedge b c\nedge c d", ("-100", "-200")),
    ("huge", "vertices: v0 v1 v2\nedge v0 v1 1000000000000\nedge v1 v2 1000000000000\n"
     "edge v2 v0\nedge v2 v1 1000000000\nedge v2 v2", (None,)),
    ("ties", "vertices: a b c d\nedge a b 8191\nedge c d 16383", ("0", "0.5")),
)


def _hash(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _plain(value):
    """A field value with its sets sorted, so that its repr is stable."""
    if hasattr(value, "members"):  # a VertexSet
        return sorted(value.members), value.hereditary, value.saturated
    return sorted(value) if isinstance(value, frozenset) else value


def _at(G, beta, kms, oracle):
    try:
        reg, sx = kms.regime(G, beta), kms.kms_simplex(G, beta)
        states = [(kms.label_text(s), s.factors_through_graph_algebra, s.state_type,
                   s.beta_value) for s in sx.extremes]
        # beta is read off the simplex: a Regime may hold none.
        fields = [(f.name, _plain(getattr(reg, f.name))) for f in dataclasses.fields(reg)
                  if f.name not in ("beta", "beta_value")]
        return (fields, sx.beta, sx.beta_value, sx.measures.shape, sx.measures.tobytes(),
                states, oracle.verify_simplex(G, sx))
    except Exception as err:  # noqa: BLE001 - a raise is part of the result
        return type(err).__name__, str(err)


def library_graphs():
    """(name, graph, critical temperatures, their values, betas) for every
    library graph: ``conftest.GRAPHS``, then ``random_graph`` seeds 0..999;
    the betas are the critical values, then a 20-point grid."""
    import numpy as np

    from conftest import GRAPHS, random_graph
    from graphkms import kms, parse_graph

    graphs = [(f"conftest.{k}", lambda t=t: parse_graph(t)) for k, t in GRAPHS.items()]
    graphs += [(f"seed{s}", lambda s=s: random_graph(random.Random(s))) for s in range(SEEDS)]
    for name, make in graphs:
        G = make()
        criticals = kms.critical_temperatures(G)
        values = [kms.beta_value(G, c) for c in criticals]
        top = values[-1] + 0.5 if values and values[-1] > 1e-9 else 1.0
        yield name, G, criticals, values, criticals + np.linspace(0.05, top, 20).tolist()


def library_lines():
    from graphkms import kms, oracle

    for name, G, criticals, values, betas in library_graphs():
        yield f"lib {name} {_hash(criticals, values, [_at(G, b, kms, oracle) for b in betas])}"


def _corrupted(G, sx, how, k):
    """A copy of sx with row k of its measures corrupted as ``how`` says, or
    None where that corruption does not apply to the row: scaled by 1.25, 1e-6
    taken off its smallest entry, 1e-3 of its largest entry moved to the
    first vertex of H_beta, 3e-8 moved off a phi row's own vertex to the next
    vertex, or a phi row rolled by one vertex."""
    import numpy as np

    X = sx.measures.copy()
    row, label = X[k], sx.extremes[k].label
    phi = type(label).__name__ == "PhiBetaV"
    if how == "scale":
        row *= 1.25
    elif how == "negative":
        row[row.argmin()] -= 1e-6
    elif how == "charge" and sx.H_beta.members:
        top = row.argmax()
        row[G.index[min(sx.H_beta.members)]] += 1e-3
        row[top] -= 1e-3
    elif how == "off_vertex" and phi and len(row) > 1:
        own = G.index[label.vertex]
        row[own] -= 3e-8
        row[(own + 1) % len(row)] += 3e-8
    elif how == "shift" and phi:
        X[k] = np.roll(row, 1)
    else:
        return None
    X.setflags(write=False)
    return dataclasses.replace(sx, measures=X)


def corruption_lines():
    from graphkms import kms, oracle

    for name, G, _, _, betas in library_graphs():
        lists = []
        for beta in betas:
            try:
                sx = kms.kms_simplex(G, beta)
            except Exception as err:  # noqa: BLE001 - as on the library line
                lists.append((type(err).__name__, str(err)))
                continue
            for how in CORRUPTIONS:
                for k in range(len(sx.extremes)):
                    bad = _corrupted(G, sx, how, k)
                    if bad is not None:
                        lists.append((how, k, oracle.verify_simplex(G, bad)))
        yield f"bad {name} {_hash(lists)}"


def cli_lines():
    import workloads
    from graphkms import cli

    with tempfile.TemporaryDirectory() as tmp:
        for name in ("chains", "blocks"):
            for seed in (1, 2, 3):
                for round_no in (0, 1, 2):
                    w = workloads.WORKLOADS[name](seed, Path(tmp) / f"{name}{seed}{round_no}")
                    texts, hints = w.generate(round_no)
                    for g, (path, plan) in enumerate(zip(w.setup(texts), w.plan(texts, hints))):
                        for argv in plan.argvs(path):
                            out, err = io.StringIO(), io.StringIO()
                            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                                code = cli.main(argv)
                            text = (out.getvalue() + "\0" + err.getvalue()).replace(path, "G")
                            shown = " ".join(argv).replace(path, "G")
                            yield f"cli {name} s{seed} r{round_no} g{g} {shown} {_hash(text, code)}"


def table_lines():
    from graphkms import cli, kms, parse_graph

    with tempfile.TemporaryDirectory() as tmp:
        for name, text, betas in TABLES:
            path = str(Path(tmp) / f"{name}.txt")
            Path(path).write_text(text)
            G = parse_graph(text)
            for beta in betas:
                if beta is None:
                    beta = repr(kms.beta_value(G, kms.critical_temperatures(G)[-1]) + 0.01)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["states", path, "--beta", beta])
                yield f"table {name} --beta {beta} {_hash(out.getvalue(), err.getvalue(), code)}"


def use_checkout(root) -> None:
    """Import graphkms, ``tests/conftest.py`` and the bench from ``root``."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "bench")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args()
    use_checkout(args.root)
    for line in library_lines():
        print(line)
    for line in corruption_lines():
        print(line)
    for line in cli_lines():
        print(line)
    for line in table_lines():
        print(line)


if __name__ == "__main__":
    main()
