"""End-to-end command tests driven through cli.main with captured output."""

import contextlib
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import graphkms as gk
from graphkms import cli, kms, spectral

from conftest import GRAPHS, random_graph


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- analyze -----------------------------------------------------------------


def test_python_dash_m_runs_the_command_line(graph_file):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "graphkms", "analyze", graph_file("golden_feeder")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "graph: 3 vertices, 9 edges"


def test_analyze_text(graph_file, capsys):
    rc, out, _ = run(capsys, "analyze", graph_file("golden_feeder"))
    assert rc == 0
    assert "graph: 3 vertices, 9 edges" in out
    assert "components (Seneta order):" in out
    assert "minimal critical components: {w,u}" in out
    assert f"[0] beta = {math.log(2):.9g}" in out
    assert f"[1] beta = {math.log(1 + math.sqrt(5)):.9g}" in out
    assert "ln rho({w,u}), component 1" in out
    assert f"v: {math.log(2):.9g}" in out


def test_analyze_counts_edges_past_int64(graph_file, capsys):
    # Each (source, range) multiplicity fits in int64; their sum does not.
    text = "vertices: a b\nedge a b 9223372036854775807\nedge b a 9223372036854775807\n"
    rc, out, _ = run(capsys, "analyze", graph_file(text))
    assert rc == 0
    assert out.splitlines()[0] == "graph: 2 vertices, 18446744073709551614 edges"


def test_analyze_acyclic(graph_file, capsys):
    rc, out, _ = run(capsys, "analyze", graph_file("vertices: a b\nedge a b\n"))
    assert rc == 0
    assert "no cycles; no critical temperatures" in out
    assert "a: -inf" in out


def test_analyze_reports_dead_ends_as_minus_inf(graph_file, capsys):
    rc, out, _ = run(capsys, "analyze", graph_file("persistent_source"))
    assert rc == 0
    assert "u3: -inf" in out and "u1: -inf" in out
    assert f"u2: {math.log(2):.9g}" in out
    assert f"w: {math.log(3):.9g}" in out


def test_analyze_json(graph_file, capsys):
    rc, out, _ = run(capsys, "analyze", graph_file("golden_feeder"), "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["graph"]["vertices"] == ["v", "w", "u"]
    assert payload["graph"]["seneta_order"] == [0, 1]
    assert payload["criticals"] == [
        {"beta": float(f"{math.log(2):.12g}"), "component": 0},
        {"beta": float(f"{math.log(1 + math.sqrt(5)):.12g}"), "component": 1},
    ]
    big = payload["graph"]["components"][1]
    assert big["members"] == ["w", "u"] and big["period"] == 1


# -- states ------------------------------------------------------------------


def test_states_critical_is_reproducible(graph_file, capsys):
    path = graph_file("golden_feeder")
    rc1, out1, _ = run(capsys, "states", path, "--critical", "1")
    rc2, out2, _ = run(capsys, "states", path, "--critical", "1")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert "case: Critical" in out1
    assert "psi{w,u}" in out1 and "phi[v]" in out1


def test_states_empty_regime(graph_file, capsys):
    rc, out, _ = run(
        capsys, "states", graph_file("pair_toward_small"), "--beta", "0.5", "--verify"
    )
    assert rc == 0
    assert "case: Empty" in out
    assert "no KMS states at this beta" in out
    assert "all checks passed" in out


def test_states_table_values(graph_file, capsys):
    rc, out, _ = run(
        capsys, "states", graph_file("pair_toward_small"), "--critical", "1"
    )
    assert rc == 0
    assert "H_beta = {}" in out
    assert "K_beta = {w}" in out
    assert "type=Infinite" in out
    assert "factors=yes" in out
    assert "m[v]=0.5" in out and "m[w]=0.5" in out


def test_states_json(graph_file, capsys):
    rc, out, _ = run(
        capsys, "states", graph_file("pair_toward_small"), "--critical", "1", "--json"
    )
    assert rc == 0
    sx = json.loads(out)["simplex"]
    assert sx["case"] == "Critical"
    assert sx["beta_definition"] == "ln rho(component 1)"
    psi, phi = sx["extremes"]
    assert psi["label"] == "psi{w}"
    assert psi["m"] == {"v": 0.5, "w": 0.5}
    assert psi["state_type"] == "Infinite"
    assert psi["factors_through_graph_algebra"] is True
    assert phi["label"] == "phi[v]"
    assert phi["state_type"] == "Finite"
    assert phi["factors_through_graph_algebra"] is False


def test_states_verify_pass(graph_file, capsys):
    rc, out, _ = run(
        capsys, "states", graph_file("two_sources_chain"), "--beta", "1.2", "--verify"
    )
    assert rc == 0
    assert "all checks passed" in out


def _graph_text(G):
    return "\n".join(["vertices: " + " ".join(G.vertices)] + [
        f"edge {e.source} {e.range} {e.multiplicity}" for e in G.edges
    ])


def _chain_text(rng: random.Random, length: int, shuffle: bool) -> str:
    """A line of loops c0 -> c1 -> ..., some closed into 2-cycles, so that
    each phi row lives on a stretch of the line with zeros either side."""
    names = [f"c{i}" for i in range(length)]
    edges = [f"edge c{i} c{i} {rng.randint(1, 3)}" for i in range(length) if rng.random() < 0.6]
    edges += [f"edge c{i} c{i + 1}" for i in range(length - 1)]
    edges += [f"edge c{i + 1} c{i}" for i in range(length - 1) if rng.random() < 0.2]
    if shuffle:
        rng.shuffle(names)
    return "\n".join(["vertices: " + " ".join(names)] + edges)


def _expected_states_lines(G, sx) -> list[str]:
    """The states table rendered one value at a time, from each state's ``m``."""
    width = max((len(gk.kms.label_text(s)) for s in sx.extremes), default=0)
    expect = []
    for s in sx.extremes:
        factors = "yes" if s.factors_through_graph_algebra else "no"
        mvals = "  ".join(f"m[{v}]={s.m[v]:.9g}" for v in G.vertices)
        expect.append(f"  {gk.kms.label_text(s):<{width}}  type={s.state_type:<8} "
                      f"factors={factors:<3}  {mvals}")
    head = f"extreme states ({len(expect)}):" if expect else "no KMS states at this beta"
    return [head] + expect


def test_states_lines_match_a_per_value_rendering(graph_file, capsys, monkeypatch):
    # Names holding '%' must pass through the printed template unchanged.
    texts = list(GRAPHS.values()) + [
        "vertices: a%d b%s c%%\nedge a%d b%s 2\nedge b%s a%d\nedge c%% a%d 3\nedge c%% c%% 2"
    ]
    texts += [_graph_text(random_graph(random.Random(seed))) for seed in range(200)]
    # Chains: rows with long runs of zeros before and after their entries.
    texts += [_chain_text(random.Random(seed), 3 + seed % 20, seed % 3 == 0)
              for seed in range(30)]
    for text in texts:
        path = graph_file(text)
        G = gk.parse_graph(text)
        specs = [str(k) for k in range(len(gk.critical_temperatures(G)))]
        for flag, value in [("--critical", k) for k in specs] + [
            ("--beta", b) for b in ("0.3", "0.9", "1.5")
        ]:
            rc, out, _ = run(capsys, "states", path, flag, value)
            assert rc == 0
            sx = gk.kms_simplex(G, gk.critical_temperatures(G)[int(value)]
                                if flag == "--critical" else float(value))
            assert out.splitlines()[4:] == _expected_states_lines(G, sx), (text, flag, value)

    # A zero is printed from a precomputed cell only when it is +0.0: -0.0
    # and NaN go through the format, wherever they sit in the row.
    text = _chain_text(random.Random(5), 12, False)
    G = gk.parse_graph(text)
    real = gk.kms_simplex(G, 3.0)
    n = len(G.vertices)
    rows = real.measures.copy()[:6]
    rows[0] = 0.0
    rows[1, :] = 0.0
    rows[1, 0] = rows[1, -1] = -0.0
    rows[2, 5] = -0.0
    rows[3, 3] = math.nan
    rows[4, :] = 0.0
    rows[4, n // 2] = math.nan
    rows[5, :] = -0.0
    rows.setflags(write=False)
    fake = dataclasses.replace(
        real,
        extremes=tuple(dataclasses.replace(s, m=dict(zip(G.vertices, row.tolist())))
                       for s, row in zip(real.extremes, rows)),
        measures=rows,
    )
    monkeypatch.setattr(cli.kms, "kms_simplex", lambda *a, **k: fake)
    rc, out, _ = run(capsys, "states", graph_file(text), "--beta", "3.0")
    assert rc == 0
    lines = out.splitlines()[4:]
    assert lines == _expected_states_lines(G, fake)
    assert "=-0" in lines[2] and "nan" in lines[4] and "nan" in lines[5]
    assert "=-0" not in lines[1] and "=-0" in lines[6]


def _g9(values):
    """The kernel's texts of values, its lengths and its settled flags."""
    x = np.asarray(values, dtype=float)
    text, keep = np.empty((len(x), cli._TEXT), np.uint8), np.empty((len(x), cli._TEXT), bool)
    length, settled = cli._g9_cells(x, text, keep)
    return text[keep].tobytes().decode(), length.tolist(), settled


def _assert_g9_matches_percent(values):
    got, length, _ = _g9(values)
    expect = ["%.9g" % v for v in np.asarray(values, dtype=float).tolist()]
    if got != "".join(expect) or length != list(map(len, expect)):
        at = np.cumsum([0] + length).tolist()
        bad = next(i for i, t in enumerate(expect) if got[at[i]:at[i + 1]] != t)
        raise AssertionError(f"{values[bad]!r}: {got[at[bad]:at[bad + 1]]!r} != {expect[bad]!r}")


def _ties() -> list[float]:
    """Dyadic values whose exact decimal has ten significant digits, the last
    a 5: c / 2^q for odd c with c 5^q ten digits long, then times 10^t while
    the float stays exact."""
    from fractions import Fraction

    ties = []
    for q in range(1, 14):
        odd = range(-(-10**9 // 5**q) | 1, 10**10 // 5**q, 2)
        for c in odd[::max(1, len(odd) // 10)]:
            for t in range(12):
                tie = Fraction(c * 10**t, 2**q)
                if Fraction(float(tie)) == tie:
                    ties += [float(tie), -float(tie)]
    return ties


def test_g9_kernel_prints_every_value_as_percent_does():
    powers = [float(f"1e{k}") for k in range(-307, 309)]
    near = [np.nextafter(p, d) for p in powers for d in (0.0, math.inf)]
    carries = [9.9999999995, 99999999.95, 999999999.5, 9.9999999995e-5, 9.999999995e-5,
               9.9999999995e20, 9.999999995e-100, 99999999.94, 99999999.96, 999999999.4]
    switches = [1e-4, 1e-5, 1e8, 1e9, 9.99999999e-5, 9.999999999e-5, 99999999.9, 999999999.0]
    switches += [np.nextafter(v, d) for v in switches for d in (0.0, math.inf)]
    specials = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.225e-308, 1e-310, -1e-320, 1.5e-290, 1e-290, 1e290,
                1.7976931348623157e308, 1e100, -1.5e-150, 2.65039655e-261, 123456789.0, 0.5]
    ties = _ties()
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
    spread = rng.standard_normal(100_000) * 10.0 ** rng.integers(-30, 30, 100_000)
    values = powers + near + carries + switches + specials + ties
    values = [v * s for v in values for s in (1.0, -1.0)] + bits.tolist() + spread.tolist()
    _assert_g9_matches_percent(values)
    # The certificate sends each tie to the % fallback, and settles ordinary values.
    assert len(ties) > 100 and not _g9(ties)[2].any()
    assert _g9(powers[20:-20] + specials[:2] + spread.tolist())[2].all()
    # Only NaN and ±inf are left to it besides ties: subnormals are certified too.
    assert not _g9(specials[2:6])[2].any() and _g9(specials[6:])[2].all()


def test_states_table_matches_a_per_value_rendering_for_hard_names_and_entries(
        graph_file, capsys, monkeypatch):
    # Names holding %, non-ASCII names and a NUL byte must pass through the
    # byte assembly unchanged; enough rows to fill several chunks.
    names = ["a%d", "b%s", "%%", "ü", "日本", "x\x00y", "y\x00", "\x00"]
    names += [f"v{i}" for i in range(140 - len(names))]
    text = "vertices: " + " ".join(names)
    G = gk.parse_graph(text)
    assert list(G.vertices) == names
    real = gk.kms_simplex(G, 1.0)
    rng = np.random.default_rng(3)
    pool = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-310, 1e-261,
                     2.65039655e-261, -2.94e-277, 2.0**-13, 2.0**-14, 1e300, 0.0, 1.0])
    rows = rng.random((len(names), len(names))) * 10.0 ** rng.integers(-12, 3, (len(names),) * 2)
    rows[rng.random(rows.shape) < 0.3] = 0.0
    odd = rng.random(rows.shape) < 0.2
    rows[odd] = rng.choice(pool, odd.sum())
    for k, row in enumerate(rows):  # runs of +0.0 at either end, or everywhere
        row[:k % 7] = 0.0
        row[len(row) - k % 5:] = 0.0
    rows[7] = 0.0
    rows[8] = -0.0
    rows.setflags(write=False)
    fake = dataclasses.replace(
        real,
        extremes=tuple(dataclasses.replace(s, m=dict(zip(G.vertices, row.tolist())))
                       for s, row in zip(real.extremes, rows)),
        measures=rows,
    )
    monkeypatch.setattr(cli.kms, "kms_simplex", lambda *a, **k: fake)
    path = graph_file(text)
    for chunk in (cli._CHUNK_CELLS, 37):  # 37: a chunk every row or two
        monkeypatch.setattr(cli, "_CHUNK_CELLS", chunk)
        rc, out, _ = run(capsys, "states", path, "--beta", "1.0")
        assert rc == 0
        assert out.splitlines()[4:] == _expected_states_lines(G, fake)


# -- --json output -------------------------------------------------------------


def _is_indented_json(out: str) -> bool:
    return out == json.dumps(json.loads(out), indent=2) + "\n"


def test_json_output_matches_json_dumps(graph_file, capsys):
    texts = list(GRAPHS.values()) + [
        # quotes, backslashes, '%' and non-ASCII names go through json's escapes
        'vertices: a"b c\\d e%s% f\u00e9 g\u4e2d \U0001f600\n'
        'edge a"b c\\d 2\nedge c\\d a"b\nedge e%s% e%s% 3\nedge f\u00e9 g\u4e2d\n'
        'edge g\u4e2d \U0001f600\nedge \U0001f600 \U0001f600 2\nedge \U0001f600 f\u00e9',
    ]
    texts += [_graph_text(random_graph(random.Random(seed))) for seed in range(40)]
    texts += [_chain_text(random.Random(seed), 8, seed % 2 == 0) for seed in range(5)]
    for text in texts:
        path = graph_file(text)
        rc, out, _ = run(capsys, "analyze", path, "--json")
        assert rc == 0 and _is_indented_json(out), text
        G = gk.parse_graph(text)
        flags = [("--critical", str(k)) for k in range(len(gk.critical_temperatures(G)))]
        for flag, value in flags + [("--beta", "0.3"), ("--beta", "1.5")]:
            rc, out, _ = run(capsys, "states", path, flag, value, "--json")
            assert rc == 0 and _is_indented_json(out), (text, flag, value)


_json_scalars = (
    st.none() | st.booleans() | st.integers(-2**80, 2**80)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text()
    | st.sampled_from([1e16, 1e-05, -0.0, math.nan, math.inf, -math.inf, 2**64, ""])
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(), inner, max_size=6),
    max_leaves=30,
)


@given(_json_values)
@example({"empty": [[], {}], "floats": [math.nan, math.inf, -math.inf, 1e16, 1e-05, -0.0],
          "m": {"a": 0.5, "b%s": math.nan, "c": -math.inf}, "flags": [True, False, None],
          "ints": [2**70, -2**64, 0], "mixed": [1, 1.0, "1", True, None, {"": []}]})
@settings(max_examples=120, deadline=None)
def test_json_emitter_matches_json_dumps(payload):
    assert cli._json_dumps(payload) == json.dumps(payload, indent=2)


# -- one parser per process ----------------------------------------------------


def _fresh_process(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "graphkms", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_reused_parser_carries_nothing_between_calls(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    path = graph_file("golden_feeder")
    sequences = [
        [["states", path, "--critical", "0"], ["states", path, "--beta", "0.9"]],
        [["states", path, "--beta", "0.9", "--critical", "0"], ["analyze", path]],
        [["--help"], ["analyze", path]],
    ]
    for argvs in sequences:
        for argv in argvs:
            assert run(capsys, *argv) == _fresh_process(argv), argv
    assert cli._parser() is cli._parser()
    args = cli._parser().parse_args(["states", path, "--beta", "0.9"])
    assert args.critical is None and args.beta == 0.9


# -- phase-diagram -------------------------------------------------------------


def test_phase_diagram_golden(graph_file, capsys):
    rc, out, _ = run(
        capsys,
        "phase-diagram",
        graph_file("golden_feeder"),
        "--beta-min", "0.5",
        "--beta-max", "1.4",
        "--steps", "7",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,case,dim_toeplitz,dim_graph_algebra"
    assert len(lines) == 10  # 7 grid points + 2 criticals
    assert f"{math.log(2):.12g},Critical,0,0" in lines
    assert f"{math.log(1 + math.sqrt(5)):.12g},Critical,1,0" in lines
    dims = [tuple(line.split(",")[2:]) for line in lines[1:]]
    assert dims == [
        ("-1", "-1"), ("-1", "-1"), ("0", "0"), ("0", "-1"), ("0", "-1"),
        ("0", "-1"), ("1", "0"), ("2", "-1"), ("2", "-1"),
    ]
    betas = [float(line.split(",")[0]) for line in lines[1:]]
    assert betas == sorted(betas)


def test_phase_diagram_rows_match_the_simplex_on_random_graphs(graph_file, capsys):
    for seed in range(60):
        G = random_graph(random.Random(seed))
        text = _graph_text(G)
        rho = spectral.spectral_radius(G.matrix)
        top = math.log(rho) + 0.5 if rho > 1.0 + 1e-9 else 1.0
        rc, out, _ = run(capsys, "phase-diagram", graph_file(text),
                         "--beta-min", "0.05", "--beta-max", repr(top), "--steps", "20")
        assert rc == 0
        specs = {f"{float(b):.12g}": float(b) for b in np.linspace(0.05, top, 20)}
        specs.update({f"{gk.beta_value(G, c):.12g}": c for c in gk.critical_temperatures(G)})
        for line in out.strip().splitlines()[1:]:
            beta, case, dim_t, dim_g = line.split(",")
            sx = gk.kms_simplex(G, specs[beta])
            factoring = sum(s.factors_through_graph_algebra for s in sx.extremes)
            assert (case, int(dim_t), int(dim_g)) == (
                sx.case, len(sx.extremes) - 1, factoring - 1
            ), (seed, line)


def _phase_rows_match_regime(G, out, grid):
    """Every CSV row against ``kms.regime`` at that row's own beta."""
    specs = {f"{float(b):.12g}": float(b) for b in grid}
    specs.update({f"{gk.beta_value(G, c):.12g}": c for c in gk.critical_temperatures(G)})
    for line in out.strip().splitlines()[1:]:
        beta, case, dim_t, dim_g = line.split(",")
        reg = kms.regime(G, specs[beta])
        n_psi = len(reg.minimal_critical)
        assert (case, int(dim_t), int(dim_g)) == (
            reg.case, n_psi + len(reg.outside) - 1, n_psi + len(reg.sources) - 1
        ), line


@given(st.integers(0, 10**6), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_phase_diagram_rows_match_a_regime_per_row(seed, steps):
    G = random_graph(random.Random(seed))
    rho = spectral.spectral_radius(G.matrix)
    top = math.log(rho) + 0.5 if rho > 1.0 + 1e-9 else 1.0
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.graph")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(_graph_text(G))
        with contextlib.redirect_stdout(out):
            rc = cli.main(["phase-diagram", path, "--beta-min", "-0.5",
                           "--beta-max", repr(top), "--steps", str(steps)])
    assert rc == 0
    _phase_rows_match_regime(G, out.getvalue(), np.linspace(-0.5, top, steps))


def test_phase_diagram_points_near_a_critical_get_their_own_regime(graph_file, capsys):
    # The only critical is ln 3.  The middle grid point lies 1e-10 below or
    # above it, inside its TOL window, so it is critical too, unlike the
    # grid point of the same interval that comes before it (below) or after
    # it (above).
    G = gk.parse_graph(GRAPHS["pair_toward_large"])
    for offset, cases in [
        (-1e-10, ["Empty", "Critical", "Critical", "Subcritical"]),
        (1e-10, ["Empty", "Critical", "Critical", "Subcritical"]),
    ]:
        lo, hi = math.log(3) - 1 + offset, math.log(3) + 1 + offset
        rc, out, _ = run(capsys, "phase-diagram", graph_file("pair_toward_large"),
                         "--beta-min", repr(lo), "--beta-max", repr(hi), "--steps", "3")
        assert rc == 0
        assert [row.split(",")[1] for row in out.strip().splitlines()[1:]] == cases
        _phase_rows_match_regime(G, out, np.linspace(lo, hi, 3))


def test_phase_diagram_dims_cover_all_cases(graph_file, capsys):
    rc, out, _ = run(
        capsys,
        "phase-diagram",
        graph_file("pair_toward_large"),
        "--beta-min", "0.5",
        "--beta-max", "1.4",
        "--steps", "4",
    )
    assert rc == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 5
    assert {line.split(",")[2] for line in lines} == {"-1", "0", "1"}


def test_phase_diagram_single_step(graph_file, capsys):
    rc, out, _ = run(
        capsys,
        "phase-diagram",
        graph_file("pair_toward_large"),
        "--beta-min", "2.0",
        "--beta-max", "3.0",
        "--steps", "1",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,")


def test_phase_diagram_rejects_bad_ranges(graph_file, capsys):
    path = graph_file("pair_toward_large")
    rc, _, err = run(capsys, "phase-diagram", path,
                     "--beta-min", "2.0", "--beta-max", "1.0")
    assert rc == 1 and "error:" in err
    rc, _, err = run(capsys, "phase-diagram", path,
                     "--beta-min", "1.0", "--beta-max", "2.0", "--steps", "0")
    assert rc == 1 and "error:" in err


@pytest.mark.parametrize("bounds", [
    ("0", "inf"), ("-inf", "1"), ("-inf", "inf"), ("nan", "1"), ("0", "nan"),
])
def test_phase_diagram_rejects_bounds_that_are_not_finite(graph_file, capsys, bounds):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "phase-diagram", graph_file("pair_toward_large"),
                           f"--beta-min={bounds[0]}", f"--beta-max={bounds[1]}")
    assert (rc, out) == (1, "")
    assert err.splitlines() == [err.strip()] and err.startswith("error: ")


# -- perron --------------------------------------------------------------------


def test_perron_verdicts(capsys):
    rc, out, _ = run(capsys, "perron", "1", "-5", "5", "--root", "1.382")
    assert rc == 0 and "verdict: NOT Perron" in out
    rc, out, _ = run(capsys, "perron", "1", "-5", "5", "--root", "3.618")
    assert rc == 0 and "verdict: Perron" in out
    assert "designated root:" in out
    rc, out, _ = run(capsys, "perron", "1", "-3", "--root", "3")
    assert rc == 0 and "verdict: Perron" in out


def test_perron_rejects_far_root(capsys):
    rc, _, err = run(capsys, "perron", "1", "-5", "5", "--root", "2.0")
    assert rc == 1
    assert "no polynomial root near" in err


def test_perron_rejects_fractional_coefficients(capsys):
    rc, _, err = run(capsys, "perron", "1", "-2.5", "--root", "2.5")
    assert rc == 1 and "error:" in err


@pytest.mark.parametrize("root", ["nan", "inf", "-inf"])
def test_perron_rejects_a_root_that_is_not_finite(capsys, monkeypatch, root):
    def no_roots(*args):
        raise AssertionError("roots computed for a root that is not finite")

    monkeypatch.setattr(kms, "nearest_root", no_roots)
    rc, out, err = run(capsys, "perron", "1", "-3", f"--root={root}")
    assert (rc, out) == (1, "")
    assert err == "error: --root must be finite\n"


# -- verify --------------------------------------------------------------------


def test_verify_passes_on_real_states(graph_file, capsys):
    rc, out, _ = run(capsys, "verify", graph_file("pair_toward_large"),
                     "--critical", "0")
    assert rc == 0
    assert "case Critical; 1 extreme states" in out
    assert "all checks passed" in out


@pytest.mark.parametrize("beta", ["21", "21.5", "25"])
def test_verify_allows_for_rounding_at_large_e_beta(graph_file, capsys, beta):
    # At e^beta ~ 2e9 a phi row's equalities (A m)_w = e^beta m_w round to
    # more than the absolute 1e-9; at 21.5 that once failed subinvariance.
    text = "vertices: a b\nedge a b 1000000000\nedge b a 1000000000\n"
    rc, out, _ = run(capsys, "verify", graph_file(text), "--beta", beta)
    assert rc == 0, out
    assert out.endswith("all checks passed\n")


@pytest.mark.parametrize("text, argv", [
    # rho{b,c} = 30000 (1 + 5.6e-10), so psi{b,c} sits in the TOL window of ln 30000.
    ("vertices: a b c\nedge a a 30000\nedge b c\nedge c b 900000001\n",
     ("states", "--critical", "0", "--verify")),
    ("vertices: a\nedge a a 3\n", ("verify", "--beta", repr(math.log(3) + 9e-10))),
    ("vertices: a\nedge a a 3\n", ("verify", "--beta", repr(math.log(3) - 9e-10))),
    ("vertices: a\nedge a a 1000\n", ("verify", "--beta", repr(math.log(1000) + 9e-10))),
], ids=["near_tie", "ln3_above", "ln3_below", "ln1000_above"])
def test_verify_checks_each_psi_state_at_its_own_temperature(graph_file, capsys, text, argv):
    # psi_C is built at ln rho(A_C), not at the beta inside the TOL window
    # that selects it; checked at that beta, its eigen-identity was off.
    rc, out, _ = run(capsys, argv[0], graph_file(text), *argv[1:])
    assert rc == 0, out
    assert out.endswith("all checks passed\n")


@pytest.mark.parametrize("argv", [("states", "--beta", "800", "--verify"),
                                  ("verify", "--beta", "710")], ids=["states_800", "verify_710"])
def test_verify_passes_where_e_beta_overflows(graph_file, capsys, argv):
    # Past beta ~ 709.78 e^beta is inf; each phi row is then e_v, and an
    # entry m_v = 0 must not compare as inf * 0 = NaN.
    path = graph_file("vertices: a b\nedge a b\nedge b b 2\n")
    rc, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (rc, err) == (0, ""), out
    assert out.endswith("all checks passed\n")


def test_states_at_very_negative_beta_where_nothing_overflows(graph_file, capsys):
    # e^-beta = e^800 overflows a float, but with no edge M = 0, so phi[a] is
    # e_a; in the oracle e^beta underflows to 0, and the atoms must not take
    # 0 / 0 = NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, "states", graph_file("vertices: a\n"), "--beta", "-800",
                           "--verify")
    assert (rc, err) == (0, ""), out
    assert "case: Subcritical" in out
    assert "phi[a]  type=Finite   factors=yes  m[a]=1\n" in out
    assert out.endswith("all checks passed\n")


@pytest.mark.parametrize("command", ["states", "verify"])
def test_very_negative_beta_fails_naming_the_overflow(graph_file, capsys, command):
    # With an edge, phi[a] needs e^-beta = e^800, past the float range: the
    # command fails and says so, with no NaN measure printed.
    rc, out, err = run(capsys, command, graph_file("vertices: a b\nedge a b\n"), "--beta", "-800")
    assert rc == 1
    assert out == ""
    assert err == "error: e^-beta overflows a float at beta = -800\n"


def test_verify_catches_corrupted_states(graph_file, capsys, monkeypatch):
    path = graph_file("pair_toward_small")
    G = gk.parse_graph(open(path).read())
    real = gk.kms_simplex(G, gk.CriticalOf(1))
    broken = dataclasses.replace(
        real.extremes[0], m={"v": 0.6, "w": 0.5}
    )
    fake = dataclasses.replace(real, extremes=(broken,), measures=np.array([[0.6, 0.5]]))
    monkeypatch.setattr(cli.kms, "kms_simplex", lambda *a, **k: fake)
    rc, out, _ = run(capsys, "verify", path, "--critical", "1")
    assert rc == 2
    assert "FAIL" in out


def test_states_json_verify_reports_failures(graph_file, capsys, monkeypatch):
    path = graph_file("pair_toward_small")
    rc, out, err = run(capsys, "states", path, "--critical", "1", "--json", "--verify")
    assert rc == 0 and err == ""
    assert json.loads(out)["simplex"]["case"] == "Critical"
    monkeypatch.setattr(cli.oracle, "verify_simplex", lambda *a, **k: ["forced failure"])
    rc, out, err = run(capsys, "states", path, "--critical", "1", "--json", "--verify")
    assert rc == 2
    assert json.loads(out)["simplex"]["case"] == "Critical"
    assert "FAIL forced failure" in err


# -- error handling -------------------------------------------------------------


def test_missing_file(capsys):
    rc, _, err = run(capsys, "analyze", "/no/such/file.txt")
    assert rc == 1 and "error:" in err


def test_parse_error_reports_line(graph_file, capsys):
    rc, _, err = run(capsys, "analyze", graph_file("vertices: a\nedge a b\n"))
    assert rc == 1
    assert "line 2" in err


def test_parse_error_for_an_edge_total_past_int64(graph_file, capsys):
    text = "vertices: a b\nedge a b 99999999999999999999\n"
    rc, _, err = run(capsys, "analyze", graph_file(text))
    assert (rc, err) == (1, "error: line 2: more than 2^63 - 1 edges from a to b\n")


def test_analyze_reads_multiplicities_past_the_int_conversion_limit(graph_file, capsys):
    rc, _, err = run(capsys, "analyze", graph_file("vertices: a b\nedge a b " + "9" * 5000 + "\n"))
    assert (rc, err) == (1, "error: line 2: more than 2^63 - 1 edges from a to b\n")
    text = "vertices: a b\nedge a b " + "0" * 4999 + "5\nedge b a\n"
    rc, out, err = run(capsys, "analyze", graph_file(text))
    assert (rc, err) == (0, "")
    assert "graph: 2 vertices, 6 edges" in out


def test_states_requires_a_beta(graph_file, capsys):
    rc, _, err = run(capsys, "states", graph_file("pair_toward_small"))
    assert rc == 1
    assert "usage" in err


def test_states_critical_out_of_range(graph_file, capsys):
    rc, _, err = run(capsys, "states", graph_file("pair_toward_small"),
                     "--critical", "99")
    assert rc == 1
    assert "out of range" in err


def test_unknown_command(capsys):
    rc, _, err = run(capsys, "bogus")
    assert rc == 1 and "usage" in err


def test_entry_point_raises_system_exit(graph_file, capsys, monkeypatch):
    path = graph_file("pair_toward_small")
    monkeypatch.setattr(sys, "argv", ["graphkms", "analyze", path])
    with pytest.raises(SystemExit) as exc:
        cli.entry_point()
    assert exc.value.code == 0
