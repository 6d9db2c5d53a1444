"""The three workloads: what one round generates, runs and checks.

A round generates a fresh corpus from ``(workload, seed, round)``, runs the
job list against it and checks every output.  ``setup`` is the part a user
pays before the first job (import, generation, parsing or writing files);
``run`` is the timed job list, timed by a ``speed.Clock``; ``check``
compares the outputs with ``checks`` computations, which never call
graphkms.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import corpus
import speed


@dataclass
class RoundResult:
    wall_s: float = 0.0
    job_s: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)  # one per job, None if it failed
    failed: int = 0

    def extend(self, other: "RoundResult") -> None:
        self.wall_s += other.wall_s
        self.job_s += other.job_s
        self.outputs += other.outputs
        self.failed += other.failed


def _timed(result: RoundResult, clock: speed.Clock, span, fn, *args):
    """Run one job inside a span; a job that raises counts as failed."""
    t0 = clock.now()
    try:
        with span():
            out = fn(*args)
    except Exception:  # noqa: BLE001 - any exception is a failed operation
        out = None
    result.job_s.append(clock.now() - t0)
    if out is None:
        result.failed += 1
    result.outputs.append(out)


# -- sweep ---------------------------------------------------------------------

# Graphs of the acceptance sweep: tests/conftest.random_graph seeded 0..499.
# tests/test_acceptance.py pins every simplex of these as correct; graphs
# drawn with other seeds can make an operation fail (see CHANGES.md), which
# would make the failed share depend on the seed.
SWEEP_POOL = 500
SWEEP_GRAPHS = 50
GRID_POINTS = 20


class Sweep:
    """Acceptance-sweep traffic through the library: many tiny simplexes."""

    name = "sweep"
    cycle = SWEEP_POOL // SWEEP_GRAPHS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def generate(self, round_no: int):
        """Round r is one of ten fixed blocks of 50 pool graphs.

        The seed sets the order of the blocks and of the graphs within a
        block; the blocks themselves are fixed, so a run that goes through
        all ten reports the same rounds whatever the seed.
        """
        rng = corpus.rng_for(self.name, self.seed, 0)
        blocks = rng.sample(range(self.cycle), self.cycle)
        first = blocks[round_no % self.cycle] * SWEEP_GRAPHS
        pool = list(range(first, first + SWEEP_GRAPHS))
        corpus.rng_for(self.name, self.seed, round_no).shuffle(pool)
        texts = [corpus.small_random(random.Random(i)) for i in pool]
        return texts, [None] * len(texts)

    def setup(self, texts):
        import graphkms
        import graphkms.oracle  # noqa: F401 - the import is part of set-up

        return [graphkms.parse_graph(t) for t in texts]

    @staticmethod
    def fingerprint(outputs):
        return [
            None if out is None else
            (out[0].case, [sorted(s.m.items()) for s in out[0].extremes], out[1])
            for out in outputs
        ]

    def plan(self, texts, hints):
        """Per graph: its matrix, structure and (critical index or None, beta) jobs."""
        plans = []
        for text in texts:
            A, _ = corpus.matrix(text)
            shape = checks.structure(A)
            rho = checks.radius(A)
            top = math.log(rho) + 0.5 if rho > 1.0 + 1e-9 else 1.0
            jobs = list(enumerate(checks.critical_values(shape)))
            jobs += [(None, float(b)) for b in np.linspace(0.05, top, GRID_POINTS)]
            plans.append((A, shape, jobs))
        return plans

    def run(self, graphs, plans, span=nullcontext, clock=None) -> RoundResult:
        from graphkms import kms

        res = RoundResult()
        clock = clock or speed.Clock(calibrate=False)
        clock.start()
        try:
            for G, (_, _, jobs) in zip(graphs, plans):
                try:
                    with span():
                        criticals = kms.critical_temperatures(G)
                except Exception:  # noqa: BLE001 - its critical jobs fail below
                    criticals = []
                for k, value in jobs:
                    _timed(res, clock, span, self._job, G, criticals, k, value)
            res.wall_s = clock.now()
        finally:
            clock.stop()
        return res

    @staticmethod
    def _job(G, criticals, k, value):
        from graphkms import kms, oracle

        sx = kms.kms_simplex(G, value if k is None else criticals[k])
        return sx, oracle.verify_simplex(G, sx)

    def check(self, graphs, plans, res: RoundResult) -> list[str]:
        from graphkms import kms

        problems = []
        outputs = iter(res.outputs)
        for g, (G, (A, shape, jobs)) in enumerate(zip(graphs, plans)):
            got = [kms.beta_value(G, c) for c in kms.critical_temperatures(G)]
            problems += [f"graph {g}: {p}" for p in
                         checks.critical_list_failures(got, checks.critical_values(shape))]
            for k, beta in jobs:
                out = next(outputs)
                if out is None:
                    continue
                sx, failures = out
                where = f"graph {g} beta {beta!r}"
                problems += [f"{where}: verify_simplex: {f}" for f in failures]
                expect = checks.expected_simplex(shape, beta)
                if (sx.case, len(sx.extremes)) != expect:
                    problems.append(f"{where}: {sx.case}/{len(sx.extremes)}, expected {expect}")
                for state in sx.extremes:
                    m = [state.m[v] for v in G.vertices]
                    psi = type(state.label).__name__ == "PsiC"
                    problems += [f"{where}: {f}" for f in
                                 checks.measure_failures(A, beta, m, psi, checks.EXACT)]
        return problems


# -- command-line workloads -----------------------------------------------------


def _cli(argv):
    """One in-process ``graphkms`` invocation; None when it exits non-zero."""
    from graphkms import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue() if code == 0 else None


class _CliWorkload:
    """Graphs written to files and driven through ``cli.main``."""

    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self, texts):
        import graphkms.cli  # noqa: F401 - the import is part of set-up

        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, text in enumerate(texts):
            path = self.workdir / f"g{i}.graph"
            path.write_text(text)
            paths.append(str(path))
        return paths

    @staticmethod
    def fingerprint(outputs):
        return outputs

    def run(self, paths, plans, span=nullcontext, clock=None) -> RoundResult:
        res = RoundResult()
        clock = clock or speed.Clock(calibrate=False)
        clock.start()
        try:
            for path, plan in zip(paths, plans):
                for argv in plan.argvs(path):
                    _timed(res, clock, span, _cli, argv)
            res.wall_s = clock.now()
        finally:
            clock.stop()
        return res

    def check(self, paths, plans, res: RoundResult) -> list[str]:
        problems = []
        outputs = iter(res.outputs)
        for g, (path, plan) in enumerate(zip(paths, plans)):
            for argv in plan.argvs(path):
                out = next(outputs)
                if out is not None:
                    problems += [f"graph {g} {argv[0]}: {p}" for p in plan.check(argv, out)]
        return problems


def _analyze_json_failures(text, A, index, criticals, radius_of) -> list[str]:
    data = json.loads(text)
    got = [c["beta"] for c in data["criticals"]]
    problems = checks.critical_list_failures(got, criticals)
    members = {c["id"]: [index[v] for v in c["members"]] for c in data["graph"]["components"]}
    for c in data["graph"]["components"]:
        if not c["trivial"]:
            problems += radius_of(c["spectral_radius"], members[c["id"]])
    order = [members[i] for i in data["graph"]["seneta_order"]]
    return problems + checks.seneta_failures(A, order)


@dataclass
class ChainPlan:
    text: str
    shape: checks.Structure

    def __post_init__(self):
        self.A, self.index = corpus.matrix(self.text)
        self.criticals = checks.critical_values(self.shape)
        lo, hi = self.criticals[0] - 0.1, self.criticals[-1] + 0.1
        self.range = (f"{lo:.12g}", f"{hi:.12g}")

    def argvs(self, path):
        yield ["analyze", path]
        yield ["analyze", "--json", path]
        for k in range(len(self.criticals)):
            yield ["states", path, "--critical", str(k)]
        yield ["phase-diagram", path, "--beta-min", self.range[0],
               "--beta-max", self.range[1], "--steps", "20"]

    def check(self, argv, out) -> list[str]:
        if argv[0] == "states":
            beta = self.criticals[int(argv[3])]
            expect = checks.expected_simplex(self.shape, beta)
            return checks.states_failures(out, self.A, self.index, beta, expect)
        if argv[0] == "phase-diagram":
            return self._phase_failures(out)
        if argv[1] == "--json":
            return _analyze_json_failures(out, self.A, self.index, self.criticals,
                                          self._radius_failures)
        printed = [float(line.split("beta = ")[1].split()[0])
                   for line in out.splitlines() if line.startswith("  [")]
        if len(printed) != len(self.criticals) or any(
            abs(p - c) > 1e-8 for p, c in zip(printed, self.criticals)
        ):
            return [f"printed criticals {printed}, expected {self.criticals}"]
        return []

    def _radius_failures(self, reported, rows) -> list[str]:
        block = self.shape.members.index(tuple(sorted(rows)))
        expect = math.exp(self.shape.ln_radius[block])
        if abs(reported - expect) > 1e-9 * expect:
            return [f"block {block} radius {reported!r}, closed form {expect!r}"]
        return []

    def _phase_failures(self, out) -> list[str]:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        betas = [float(r[0]) for r in rows]
        problems = []
        for c in self.criticals:
            if not any(abs(b - c) <= checks.TIE for b in betas):
                problems.append(f"critical {c!r} missing from the phase diagram")
        for r, beta in zip(rows, betas):
            case, count = checks.expected_simplex(self.shape, beta)
            if (r[1], int(r[2])) != (case, count - 1):
                problems.append(f"row {r}: expected {case} with dimension {count - 1}")
        return problems


class Chains(_CliWorkload):
    """Long chains of small cyclic blocks through analyze, states and phase-diagram."""

    name = "chains"

    def generate(self, round_no: int):
        rng = corpus.rng_for(self.name, self.seed, round_no)
        return tuple(zip(*(corpus.chain(rng, n) for n in corpus.CHAIN_LENGTHS)))

    def plan(self, texts, shapes):
        return [ChainPlan(t, s) for t, s in zip(texts, shapes)]


@dataclass
class BlockPlan:
    text: str
    analyze_only: bool

    def __post_init__(self):
        self.A, self.index = corpus.matrix(self.text)
        self.shape = checks.structure(self.A)
        self.criticals = checks.critical_values(self.shape)
        self.beta_text = f"{self.criticals[-1] + 0.25:.12g}"

    def argvs(self, path):
        yield ["analyze", "--json", path]
        if not self.analyze_only:
            yield ["states", path, "--beta", self.beta_text, "--verify"]
            yield ["states", path, "--critical", "0", "--verify"]

    def check(self, argv, out) -> list[str]:
        if argv[0] == "analyze":
            return _analyze_json_failures(
                out, self.A, self.index, self.criticals,
                lambda r, rows: checks.radius_failures(r, self.A[np.ix_(rows, rows)]),
            )
        beta = float(self.beta_text) if argv[2] == "--beta" else self.criticals[0]
        problems = []
        if not out.rstrip().endswith("all checks passed"):
            problems.append("--verify did not pass")
        expect = checks.expected_simplex(self.shape, beta)
        return problems + checks.states_failures(out, self.A, self.index, beta, expect)


class Blocks(_CliWorkload):
    """A few large irreducible blocks: Perron data, dense solves, atom checks."""

    name = "blocks"

    def generate(self, round_no: int):
        rng = corpus.rng_for(self.name, self.seed, round_no)
        texts = [corpus.near_cycle(corpus.FAILING_NEAR_CYCLE, None)]
        texts += [corpus.near_cycle(n, rng) for n in corpus.NEAR_CYCLE_SIZES]
        texts += [corpus.giant(n, rng) for n in corpus.GIANT_SIZES]
        return texts, [True] + [False] * (len(texts) - 1)

    def plan(self, texts, analyze_only):
        return [BlockPlan(t, a) for t, a in zip(texts, analyze_only)]


WORKLOADS = {w.name: w for w in (Sweep, Chains, Blocks)}
