"""Command line front end: analyze graph files, list states, sweep phases."""

from __future__ import annotations

import argparse
import functools
import math
import sys
from collections.abc import Iterator
from itertools import accumulate, chain
from json.encoder import encode_basestring_ascii

import numpy as np

from . import kms, oracle
from .graph import parse_graph, seneta_order


class _Parser(argparse.ArgumentParser):
    # usage errors exit with code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _f12(x: float) -> float:
    """Round to 12 significant digits; the result round-trips through JSON."""
    return float(f"{x:.12g}")


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_dumps(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, for payloads of
    dicts with str keys, lists, str, int, float, bool and None.

    json's own encoder runs in pure Python whenever ``indent`` is set, one
    generator step per value.  Here the values of a list or dict that are
    all floats, or all str, are formatted by one ``map`` of ``float.__repr__``
    or of json's C string encoder, and each dict fills a %-template made
    once per key sequence and level.
    """
    return _json(payload, "\n", {})


def _json(value, newline: str, templates: dict) -> str:
    """JSON text of value; ``newline`` breaks the line and indents to value's level."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        keys = tuple(value)
        template = templates.get((keys, newline))
        if template is None:
            fields = [encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
            template = templates[keys, newline] = (
                "{" + inner + ("," + inner).join(fields) + newline + "}"
            )
        return template % tuple(_json_items(list(value.values()), inner, templates))
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        texts = _json_items(value, inner, templates)
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    return _json_scalar(value)


def _json_items(values, newline: str, templates: dict) -> list[str]:
    """JSON texts of the values of one list or dict, at the level ``newline`` indents to."""
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        if not math.isfinite(sum(values)):
            texts = [_NONFINITE.get(t, t) for t in texts]
        return texts
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if kinds <= _SCALARS:
        return list(map(_json_scalar, values))
    return [_json(v, newline, templates) for v in values]


def _json_scalar(value) -> str:
    # bool before int: True is an int
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return parse_graph(handle.read())


def _graph_json(G) -> dict:
    return {
        "vertices": list(G.vertices),
        "edges": [
            {"source": e.source, "range": e.range, "multiplicity": e.multiplicity}
            for e in G.edges
        ],
        "components": [
            {
                "id": c.id,
                "members": list(c.members),
                "trivial": c.perron_vector is None,
                "spectral_radius": _f12(float(G.spectral_radii[c.id])),
                "period": c.period,
            }
            for c in G.components
        ],
        "seneta_order": [c.id for c in seneta_order(G)],
    }


def _criticals_json(G, criticals) -> list[dict]:
    return [
        {"beta": _f12(kms.beta_value(G, spec)), "component": spec.component}
        for spec in criticals
    ]


def _simplex_json(G, sx) -> dict:
    out = {
        "beta": _f12(sx.beta_value),
        "case": sx.case,
        "extremes": [
            {
                "label": kms.label_text(s),
                "m": {v: _f12(x) for v, x in zip(G.vertices, row.tolist())},
                "factors_through_graph_algebra": s.factors_through_graph_algebra,
                "state_type": s.state_type,
            }
            for s, row in zip(sx.extremes, sx.measures)
        ],
    }
    if isinstance(sx.beta, kms.CriticalOf):
        out["beta_definition"] = f"ln rho(component {sx.beta.component})"
    return out


def _beta_from_args(G, args) -> kms.Numeric | kms.CriticalOf:
    if args.critical is not None:
        criticals = kms.critical_temperatures(G)
        if not 0 <= args.critical < len(criticals):
            raise ValueError(
                f"critical index {args.critical} out of range "
                f"({len(criticals)} critical temperatures)"
            )
        return criticals[args.critical]
    return kms.Numeric(args.beta)


def _beta_text(G, spec) -> str:
    val = kms.beta_value(G, spec)
    if isinstance(spec, kms.CriticalOf):
        members = ",".join(G.components[spec.component].members)
        return f"{val:.9g} (= ln rho({{{members}}}), component {spec.component})"
    return f"{val:.9g}"


def cmd_analyze(args) -> int:
    G = _load(args.file)
    criticals = kms.critical_temperatures(G)
    if args.json:
        payload = {
            "graph": _graph_json(G),
            "criticals": _criticals_json(G, criticals),
        }
        print(_json_dumps(payload))
        return 0
    n_edges = sum(G.arcs.mult.tolist())  # Python ints: an int64 sum can wrap
    print(f"graph: {len(G.vertices)} vertices, {n_edges} edges")
    print("components (Seneta order):")
    print(f"  {'id':>3}  {'radius':>14}  {'period':>6}  members")
    for c in seneta_order(G):
        radius = f"{G.spectral_radii[c.id]:.9g}" if c.perron_vector is not None else "-"
        period = str(c.period) if c.perron_vector is not None else "-"
        print(f"  {c.id:>3}  {radius:>14}  {period:>6}  {{{','.join(c.members)}}}")
    print("vertex divergence temperatures (beta_v):")
    for v in G.vertices:
        bv = kms.beta_v(G, v)
        print(f"  {v}: {'-inf' if bv is None else f'{bv:.9g}'}")
    if not criticals:
        print("no cycles; no critical temperatures")
        return 0
    mc = kms.regime(G, criticals[-1]).minimal_critical
    print(
        "minimal critical components: "
        + ", ".join("{" + ",".join(G.components[c].members) + "}" for c in mc)
    )
    print("critical temperatures:")
    for k, spec in enumerate(criticals):
        print(f"  [{k}] beta = {_beta_text(G, spec)}")
    return 0


def _verify(G, sx, stream=None) -> int:
    """Oracle checks on sx: FAIL lines and exit code 2 on any failure.
    Given a stream (JSON mode), only FAIL lines are written, to it."""
    failures = oracle.verify_simplex(G, sx)
    for failure in failures:
        print(f"FAIL {failure}", file=stream or sys.stdout)
    if failures:
        return 2
    if stream is None:
        print("all checks passed")
    return 0


def cmd_states(args) -> int:
    G = _load(args.file)
    spec = _beta_from_args(G, args)
    sx = kms.kms_simplex(G, spec)
    if args.json:
        payload = {
            "graph": _graph_json(G),
            "criticals": _criticals_json(G, kms.critical_temperatures(G)),
            "simplex": _simplex_json(G, sx),
        }
        print(_json_dumps(payload))
        return _verify(G, sx, sys.stderr) if args.verify else 0
    head = [
        f"beta = {_beta_text(G, spec)}\n",
        f"case: {sx.case}\n",
        f"H_beta = {{{','.join(sorted(sx.H_beta.members, key=G.index.get))}}}\n",
        f"K_beta = {{{','.join(sorted(sx.K_beta.members, key=G.index.get))}}}\n",
    ]
    rows = ()
    if not sx.extremes:
        head.append("no KMS states at this beta\n")
    else:
        head.append(f"extreme states ({len(sx.extremes)}):\n")
        labels = [kms.label_text(s) for s in sx.extremes]
        width = max(map(len, labels))
        rows = (
            f"  {label:<{width}}  type={s.state_type:<8} "
            f"factors={'yes' if s.factors_through_graph_algebra else 'no':<3}  {mvals}\n"
            for s, label, mvals in zip(sx.extremes, labels, _measure_cells(G, sx.measures))
        )
    # One call writes the table; its rows are formatted as it goes, so only
    # one row at a time is held, however large the table.
    sys.stdout.writelines(chain(head, rows))
    return _verify(G, sx) if args.verify else 0


def _measure_cells(G, measures: np.ndarray) -> Iterator[str]:
    """Row by row, the ``m[v]=%.9g`` cells of the measures, joined by two spaces.

    Only a row's span from its first to its last entry other than +0.0 is
    formatted; the cells either side of it are cut from one precomputed line
    of ``m[v]=0`` cells.  -0.0 and NaN count as entries, so they still print
    as -0 and nan.  A row whose span is the whole row formats the whole-graph
    template, since slicing a whole string returns it unchanged.
    """
    # One %-template per graph; "%.9g" % x renders exactly as f"{x:.9g}".
    cells = [f"m[{v.replace('%', '%%')}]=%.9g" for v in G.vertices]
    zero_cells = [f"m[{v}]=0" for v in G.vertices]
    template, zeros = "  ".join(cells), "  ".join(zero_cells)
    # Cell i of a line starts at start[i] and ends two characters before start[i + 1].
    t_start = list(accumulate((len(c) + 2 for c in cells), initial=0))
    z_start = list(accumulate((len(c) + 2 for c in zero_cells), initial=0))
    # A row without entries gets the span of the whole row.
    entries = (measures != 0.0) | np.signbit(measures)
    first = entries.argmax(axis=1).tolist()
    end = (len(G.vertices) - entries[:, ::-1].argmax(axis=1)).tolist()
    return (
        zeros[:z_start[a]] + template[t_start[a]:t_start[b] - 2] % tuple(row[a:b].tolist())
        + zeros[z_start[b] - 2:]
        for row, a, b in zip(measures, first, end)
    )


def cmd_phase_diagram(args) -> int:
    G = _load(args.file)
    if not (math.isfinite(args.beta_min) and math.isfinite(args.beta_max)):
        raise ValueError("beta-min and beta-max must be finite")
    if not args.beta_min < args.beta_max:
        raise ValueError("beta-min must be strictly below beta-max")
    if args.steps < 1:
        raise ValueError("steps must be at least 1")
    rows: list[tuple[float, object]] = []
    criticals = [
        (kms.beta_value(G, spec), spec) for spec in kms.critical_temperatures(G)
    ]
    kept_criticals = [
        (val, spec) for val, spec in criticals if args.beta_min <= val <= args.beta_max
    ]
    for g in np.linspace(args.beta_min, args.beta_max, args.steps):
        g = float(g)
        if any(abs(g - val) <= 1e-12 for val, _ in kept_criticals):
            continue
        rows.append((g, kms.Numeric(g)))
    rows.extend(kept_criticals)
    rows.sort(key=lambda pair: pair[0])
    print("beta,case,dim_toeplitz,dim_graph_algebra")
    for val, spec in rows:
        # One psi state per minimal critical component, one phi state per
        # vertex outside K_beta; psi states and the phi states of quotient
        # sources factor through the graph algebra.
        reg = kms.regime(G, spec)
        n_psi = len(reg.minimal_critical)
        print(f"{val:.12g},{reg.case},{n_psi + len(reg.outside) - 1},"
              f"{n_psi + len(reg.sources) - 1}")
    return 0


def cmd_perron(args) -> int:
    if not math.isfinite(args.root):
        raise ValueError("--root must be finite")
    coeffs = list(args.coeffs)
    roots, pick, dist = kms.nearest_root(coeffs, args.root)
    if dist > max(1e-2, 1e-2 * abs(args.root)):
        raise ValueError(f"no polynomial root near {args.root:g}")
    designated = float(roots[pick].real)
    verdict = kms.perron_check(coeffs, designated)
    listed = ", ".join(f"{r.real:.12g}{r.imag:+.12g}j" if abs(r.imag) > 1e-9
                       else f"{r.real:.12g}" for r in roots)
    print(f"roots: {listed}")
    print(f"designated root: {designated:.12g}")
    print(f"verdict: {'Perron' if verdict else 'NOT Perron'}")
    return 0


def cmd_verify(args) -> int:
    G = _load(args.file)
    spec = _beta_from_args(G, args)
    sx = kms.kms_simplex(G, spec)
    print(f"beta = {_beta_text(G, spec)}; case {sx.case}; "
          f"{len(sx.extremes)} extreme states")
    return _verify(G, sx)


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and shared by every later
    ``main`` in the process: parsing leaves no state on it, and building it
    costs more than most commands' parsing."""
    parser = _Parser(prog="graphkms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="components, radii, critical temperatures")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("states", help="extreme KMS states at one beta")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float)
    group.add_argument("--critical", type=int,
                       help="0-based index into the ascending critical list")
    p.add_argument("--json", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="run the oracle checks on the emitted states")
    p.set_defaults(func=cmd_states, critical=None)

    p = sub.add_parser("phase-diagram", help="CSV sweep of simplex dimensions")
    p.add_argument("file")
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("perron", help="check a designated polynomial root")
    p.add_argument("coeffs", nargs="+", type=float,
                   help="monic integer coefficients, highest degree first")
    p.add_argument("--root", type=float, required=True)
    p.set_defaults(func=cmd_perron)

    p = sub.add_parser("verify", help="oracle checks on the states at one beta")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float)
    group.add_argument("--critical", type=int)
    p.set_defaults(func=cmd_verify, critical=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    raise SystemExit(main(sys.argv[1:]))
