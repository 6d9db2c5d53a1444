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
    # one chunk of rows at a time is held, however large the table.
    sys.stdout.writelines(chain(head, rows))
    return _verify(G, sx) if args.verify else 0


def _measure_cells(G, measures: np.ndarray) -> Iterator[str]:
    """Row by row, the ``m[v]=%.9g`` cells of the measures, joined by two spaces.

    Only a row's span from its first to its last entry other than +0.0
    (-0.0 and NaN count) is formatted; the cells either side are cut from a
    precomputed line of ``m[v]=0`` cells, and a row without entries spans
    the whole row.  Span cells are built about ``_CHUNK_CELLS`` at a time,
    one byte row each: ``  m[v]=`` in UTF-8, then a :func:`_g9_cells` text
    row.  One compress over the kept bytes, with no sentinel, lays them end
    to end.
    """
    zero_cells = [f"m[{v}]=0" for v in G.vertices]
    zeros = "  ".join(zero_cells)
    # Cell i of the line of zeros starts at start[i] and ends two characters before start[i + 1].
    z_start = list(accumulate((len(c) + 2 for c in zero_cells), initial=0))
    names = [f"  m[{v}]=".encode() for v in G.vertices]
    name_len = np.array([len(b) for b in names])
    width = -(-name_len.max() // 8) * 8  # so that text rows start 8-byte aligned
    name_text = np.frombuffer(b"".join(b.ljust(width, b"\0") for b in names), "<u8")
    name_text = name_text.reshape(len(names), -1)
    name_keep = (np.arange(width) < name_len[:, None]).view("<u8")
    entries = (measures != 0.0) | np.signbit(measures)
    first = entries.argmax(axis=1)
    end = len(G.vertices) - entries[:, ::-1].argmax(axis=1)
    span = end - first
    at_cell = np.cumsum(span) - span  # where each row's span starts among all span cells
    cuts = np.flatnonzero(np.diff(at_cell // _CHUNK_CELLS, prepend=-1)).tolist()
    for r0, r1 in zip(cuts, cuts[1:] + [len(span)]):
        lens, starts = span[r0:r1], at_cell[r0:r1] - at_cell[r0]
        col = np.arange(lens.sum()) + np.repeat(first[r0:r1] - starts, lens)
        cells = np.empty((len(col), width + _TEXT), np.uint8)
        keep = np.empty(cells.shape, bool)
        cells.view("<u8")[:, :width // 8] = name_text.take(col, axis=0)
        keep.view("<u8")[:, :width // 8] = name_keep.take(col, axis=0)
        length, _ = _g9_cells(measures[np.repeat(np.arange(r0, r1), lens), col],
                              cells[:, width:], keep[:, width:])
        data, at = cells[keep].tobytes(), 0
        for a, b, size in zip(first[r0:r1].tolist(), end[r0:r1].tolist(),
                              np.add.reduceat(name_len.take(col) + length, starts).tolist()):
            yield zeros[:z_start[a]] + data[at + 2:at + size].decode() + zeros[z_start[b] - 2:]
            at += size


# Span cells formatted at a time, in whole rows (a chunk ends with the row
# crossing it): enough to spread numpy's per-call cost, few enough that each
# temporary stays near 100 KB, which the allocator reuses without new pages.
_CHUNK_CELLS = 2048
# Bytes in a text row of _g9_cells.
_TEXT = 40


@functools.cache
def _g9_tables():
    """The tables of :func:`_g9_cells`, built on first use: per X + 325 for a
    decimal exponent X, the power of two 2^j that a is scaled by first
    (2^200 below X = -290, else 1), 10^(8 - X) 2^-j correctly rounded (one
    exact int over another), and what the form of ``%g`` at X needs; the
    ASCII word of every 4-digit group; each byte shape's columns and count.
    """
    x = np.arange(-325, 310)
    twos = np.where(x < -290, 200, 0)
    fixed = (x >= -4) & (x < 9)
    p = np.where(fixed, x + 1, 1)
    exponent = "".join(f"e{k:+03d}".ljust(8, "\0") for k in x.tolist()).encode()
    form = np.where(fixed, x + 4, 13 + (abs(x) >= 100))  # 0..12 fixed, 13/14 exponent
    k = np.arange(10000, dtype=np.uint64)
    group = sum((k // 10**(3 - j) % 10 + 48) << np.uint64(8 * j) for j in range(4))
    digits = 4 - sum((k % 10**j == 0).astype(np.int8) for j in (1, 2, 3, 4))
    last = np.where(k > 0, 2 * (digits + np.array([[0], [4], [8]], np.int8)), 0).astype(np.int8)
    code = np.arange(15 * 13 * 2)
    form_of, f, neg = code // 26, code // 2 % 13, code % 2
    head = np.where(form_of < 13, np.maximum(form_of - 3, 1), 1) + neg
    tail = (f > 0) + f
    suffix = np.where(form_of < 13, 0, 4 + (form_of == 14))
    col = np.arange(_TEXT)
    shapes = ((col >= 16 - head[:, None]) & (col < 16 + tail[:, None])) | (
        (col >= 32) & (col < 32 + suffix[:, None]))
    scale8 = [10**(8 - k) / 2**j if k <= 8 else 1 / 10**(k - 8)
              for k, j in zip(x.tolist(), twos.tolist())]
    return (2.0**twos, np.array(scale8), 10.0 ** (9 - p),
            10.0 ** (3 + p), np.maximum(p, 1), np.frombuffer(exponent, "<u8"), 26 * form,
            group, last, shapes.view("<u8"), head + tail + suffix)


def _g9_cells(x: np.ndarray, text: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%.9g" % v`` for each float v of x, as row i of ``text[keep]`` (uint8
    and bool, rows 8-byte aligned); returns the text lengths and ``settled``,
    False where ``%`` itself wrote the text.

    For a finite ``a = |v| > 0``, X estimates floor(log10 a), moved by one
    where ``s = fl(a 2^j * fl(10^k 2^-j))``, k = 8 - X, leaves [1e8, 1e9], and
    ``n = rint(s)`` has the 9 digits (1e9 carries to 1e8 at X + 1).  The
    certificate: ``a 2^j`` is exact and normal, subnormal a included, and
    the table's ``10^k 2^-j (1 + d1)`` and the product give
    ``s = w (1 + d1)(1 + d2)`` for the exact ``w = a 10^k``, with |d1|, |d2|
    <= u = 2^-53 as all are normal, so ``|s - w| <= w (2u + u^2)``,
    below 2.3e-7 for s <= 1e9.  Where ``|s - n| < 0.5 - 2.3e-7``, w rounds
    to n and is no tie; a w past the decade of s rounds to the power of ten
    that n gives there, so s may be 1e9 but not below 1e8.  The accuracy of
    ``log10`` does not matter.

    A text row is five little-endian words: with p digits before the point
    (X + 1 in fixed form, 1 in exponent form), ``n // 10^(9 - p)`` as nine
    digits in columns 7-15 after a 0 at 6, the point at 16, ``n % 10^(9 - p)``
    as twelve digits in 17-28 and the exponent from 32; each division is
    exact in float64.  The byte shape of form, fraction digits without
    trailing zeros and sign picks the columns.  ±0.0 print in fixed form;
    NaN, ±inf and values s puts within 2.3e-7 of a tie get ``%``.
    """
    pre, scale8, unit, scale, head, exponent, form, group, last, shapes, size = _g9_tables()
    a = np.abs(x)
    settled = (a > 0.0) & (a < math.inf)
    a[~settled] = 1.0
    e = (np.floor(np.log10(a)) + 325).astype(np.intp)  # X + 325
    s = a * pre.take(e) * scale8.take(e)
    off = np.flatnonzero((s < 1e8) | (s >= 1e9))
    e[off] += np.where(s[off] >= 1e9, 1, -1)
    s[off] = a[off] * pre.take(e[off]) * scale8.take(e[off])
    settled[off] &= (s[off] >= 1e8) & (s[off] <= 1e9)
    n = np.rint(s)
    settled &= np.abs(s - n) < 0.5 - 2.3e-7
    carry = np.flatnonzero(n == 1e9)
    e[carry] += 1
    n[carry] = 1e8
    zero = np.flatnonzero(x == 0.0)
    n[zero], e[zero], settled[zero] = 0.0, 325, True
    d = unit.take(e)
    parts = np.empty((3, 2, len(x)))  # the integer part and the fraction, in 4-digit groups
    np.floor(n / d, out=parts[0, 0])
    parts[0, 1] = (n - parts[0, 0] * d) * scale.take(e)
    np.floor(parts[0] / 1e4, out=parts[1])
    parts[2] = parts[0] - parts[1] * 1e4
    np.floor(parts[1] / 1e4, out=parts[0])
    parts[1] -= parts[0] * 1e4
    groups = parts.astype(np.intp)
    g = group.take(groups)
    words = text.view("<u8")
    words[:, 0] = g[0, 0] << 32
    words[:, 1] = g[1, 0] | g[2, 0] << 32
    words[:, 2] = g[0, 1] << 8 | g[1, 1] << 40 | ord(".")
    words[:, 3] = g[1, 1] >> 24 | g[2, 1] << 8
    words[:, 4] = exponent.take(e)
    code = np.maximum(np.maximum(last[0].take(groups[0, 1]), last[1].take(groups[1, 1])),
                      last[2].take(groups[2, 1])) + form.take(e)
    neg = np.flatnonzero(np.signbit(x))
    text[neg, 15 - head.take(e[neg])] = ord("-")
    code[neg] += 1
    keep.view("<u8")[:] = shapes.take(code, axis=0)
    length = size.take(code)
    for i in np.flatnonzero(~settled).tolist():
        cell = np.frombuffer(("%.9g" % x[i]).encode(), np.uint8)
        text[i, :len(cell)], keep[i], length[i] = cell, np.arange(_TEXT) < len(cell), len(cell)
    return length, settled


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
