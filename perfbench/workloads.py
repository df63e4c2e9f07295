"""The four benchmark workloads.

Each workload builds its inputs once (``setup``) and then runs passes; one
pass is the unit ``wall_s`` times.  ``plg fit`` and ``plg verify`` run
in-process through ``plgibbs.cli.main``; the library path calls
``run_chain``, ``summarize`` and ``build_drift_report``.  A pass returns
what the checks need: one outcome per operation (a chain of a fit, or one
verify check), per-chain timings and ESS, and the JSON documents the CLI
wrote.

The regression data of a workload is fixed (data seed 0, as in the README
quick start), so the stored posterior references in ``references.json``
apply at every benchmark seed.  The benchmark seed drives every random
stream: the chains' ``--seed`` (one per pass) and the verify suites'
``--seed`` (the benchmark seed itself).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import plgibbs
from plgibbs import cli
from plgibbs import verification

import calibrate
from inputs import Problem, quickstart_problem, sparse_problem
from tracing import MODELS, chain_records

HERE = Path(__file__).resolve().parent
DATA_SEED = 0
# |z| bound for a chain's posterior mean against its reference, in units of
# the combined Monte Carlo standard error.  It covers up to 3 x 201 checked
# means per pass with batch-means MCSEs from 30 batches.
Z_BOUND = 5.0
FIT_SWEEPS = {"fit-small": 2000, "fit-square": 1500}
WIDE_SWEEPS, WIDE_BURN_IN = 200, 100
SETTLED_RATIO = 1.5
VERIFY_REPLICATES = 2000
ORACLE_SWEEPS = 8000  # per chain; one chain after each of the three suites
SUITES = ("geweke", "prior", "drift")


@dataclass
class Op:
    name: str
    ok: bool
    reason: str = ""


@dataclass
class PassResult:
    wall_s: float = 0.0       # at the reference speed
    wall_raw_s: float = 0.0   # as measured
    ops: list = field(default_factory=list)
    # {"model", "n_iter", "seconds" (reference speed), "seconds_raw", "sigma2_ess", ...}
    chains: list = field(default_factory=list)
    documents: int = 0
    schema_violations: int = 0
    z_values: list = field(default_factory=list)


def pass_seed(seed: int, k: int) -> int:
    """Distinct chain/suite seed for pass ``k`` of a run at benchmark seed ``seed``."""
    return seed * 100_000 + k


def load_schemas(root: Path) -> dict:
    import jsonschema

    out = {}
    for kind in ("summary", "drift", "verify_report"):
        with (root / "docs" / "schemas" / f"{kind}.schema.json").open(encoding="utf-8") as fh:
            out[kind] = jsonschema.Draft7Validator(json.load(fh))
    return out


def chain_support(out) -> str:
    draws = np.asarray(out.draws)
    if not np.all(np.isfinite(draws)):
        return "non-finite draws"
    scale_cols = [j for j, lbl in enumerate(out.column_labels) if not lbl.startswith("beta.")]
    if not np.all(draws[:, scale_cols] > 0):
        return "non-positive scale or sigma2"
    return ""


def z_check(rows: dict, reference: dict) -> tuple[list, str]:
    """z of each referenced posterior mean; reason text for the worst miss."""
    zs, worst = [], ""
    for label, (ref_mean, ref_mcse) in reference.items():
        row = rows[label]
        se = math.hypot(row["mcse"], ref_mcse)
        z = (row["mean"] - ref_mean) / se if se > 0 else (0.0 if row["mean"] == ref_mean else math.inf)
        zs.append(z)
        if not abs(z) <= Z_BOUND and not worst:
            worst = f"{label}: |z| = {abs(z):.2f} > {Z_BOUND}"
    return zs, worst


class Workload:
    name = ""
    kernel = "interpreted"  # the calibrate.KERNELS entry that does this workload's kind of work

    def __init__(self, seed: int, workdir: Path, tracer, root: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.root = root
        self.clock = calibrate.SpeedClock(self.kernel)

    @cached_property
    def schemas(self) -> dict:
        # Loaded on first use, after set-up: plgibbs itself never loads them,
        # so their cost stays out of setup_s.
        return load_schemas(self.root)

    def op(self, res: PassResult, fn):
        """Run one timed operation of a pass; its time goes into ``res``.

        A calibration mark follows the operation, outside its timing; the
        one before it was taken after the previous operation or in warm-up.
        """
        t0 = time.perf_counter()
        out = fn()
        t1 = time.perf_counter()
        self.clock.mark()
        res.wall_raw_s += self.clock.raw(t0, t1)
        res.wall_s += self.clock.scaled(t0, t1)
        return out

    def chain_record(self, model, n_iter, run_span, start_spans, sigma2_ess) -> dict:
        """A chain's raw and reference-speed seconds, its start solves left out, and its ESS."""
        raw = self.clock.raw(run_span.start, run_span.end)
        scaled = self.clock.scaled(run_span.start, run_span.end)
        for s in start_spans:
            raw -= self.clock.raw(s.start, s.end)
            scaled -= self.clock.scaled(s.start, s.end)
        return {"model": model, "n_iter": n_iter, "seconds": scaled, "seconds_raw": raw,
                "start_seconds": sum(s.duration for s in start_spans), "sigma2_ess": sigma2_ess}

    def setup(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """Touch every code path once so lazy imports and BLAS start-up are not timed."""

    def run_pass(self, k: int) -> PassResult:
        raise NotImplementedError

    def _violations(self, kind: str, payload) -> int:
        return 0 if self.schemas[kind].is_valid(payload) else 1


def _raised(fn):
    """fn() for a library-path operation; an exception becomes its failure reason."""
    try:
        return fn(), ""
    except Exception as exc:  # any exception fails the operation, not the run
        return None, f"raised {type(exc).__name__}: {exc}"


def _quiet_main(argv) -> int:
    """``plg`` in-process, with its console output kept off the benchmark's stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main([str(a) for a in argv])


def write_csv(problem: Problem, path: Path) -> None:
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x{j + 1}" for j in range(problem.p)])
        for yi, row in zip(problem.y, problem.X):
            writer.writerow([repr(float(yi))] + [repr(float(v)) for v in row])


class FitWorkload(Workload):
    """``plg fit --init default`` for each model on one CSV dataset."""

    def problem(self) -> Problem:
        raise NotImplementedError

    def setup(self) -> None:
        self.problem_ = self.problem()
        self.csv = self.workdir / "data.csv"
        write_csv(self.problem_, self.csv)
        self.groups = ",".join(str(m) for m in self.problem_.groups)

    @cached_property
    def reference(self) -> dict:
        with (HERE / "references.json").open(encoding="utf-8") as fh:
            return json.load(fh)["workloads"][self.name]["means"]

    def warm(self) -> None:
        prob = self.problem_
        data = plgibbs.Dataset(y=prob.y, X=prob.X)
        groups = plgibbs.GroupStructure(prob.groups)
        hyper = plgibbs.Hyperparameters(1.0, 1.0, 1.0, 1.0)
        for model in MODELS:
            g = None if model == "bfl" else groups
            out = plgibbs.run_chain(model, data, hyper, groups=g,
                                    config=plgibbs.ChainConfig(n_iter=20, init_mode="zero"))
            plgibbs.summarize(out)

    def run_pass(self, k: int) -> PassResult:
        res = PassResult()
        for model in MODELS:
            res.ops.append(self._fit(res, k, model))
        return res

    def _fit(self, res: PassResult, k: int, model: str) -> Op:
        """One ``plg fit``, checked before the next one starts."""
        out_dir = self.workdir / f"pass{k}-{model}"
        argv = ["fit", "--model", model, "--data", self.csv, "--iters", FIT_SWEEPS[self.name],
                "--seed", pass_seed(self.seed, k), "--init", "default", "--out-dir", out_dir]
        if model != "bfl":
            argv += ["--groups", self.groups]
        with self.tracer.span("bench.plg", model=model) as plg:
            rc = self.op(res, lambda: _quiet_main(argv))
        op = Op(f"fit.{model}", ok=False)
        if rc != 0:
            op.reason = f"exit code {rc}"
            return op
        # plg fit frees its draws when it returns; drop the span's reference
        # to them too, so they do not count in the next fit's peak memory.
        run, starts = next(r for r in chain_records(self.tracer.spans) if r[0].start >= plg.start)
        support = chain_support(run.payload)
        run.payload = None
        with (out_dir / "summary.json").open(encoding="utf-8") as fh:
            summary = json.load(fh)
        with (out_dir / "drift.json").open(encoding="utf-8") as fh:
            drift = json.load(fh)
        shutil.rmtree(out_dir)
        res.documents += 2
        res.schema_violations += self._violations("summary", summary) + self._violations("drift", drift)
        rows = {r["name"]: r for r in summary["chains"][0]["parameters"]}
        res.chains.append(self.chain_record(model, FIT_SWEEPS[self.name], run, starts,
                                            rows["sigma2"]["ess"]))
        op.reason = support
        if op.reason:
            return op
        zs, op.reason = z_check(rows, self.reference[model])
        res.z_values += [(model, z) for z in zs]
        op.ok = not op.reason
        return op


class FitSmall(FitWorkload):
    name = "fit-small"

    def problem(self) -> Problem:
        return quickstart_problem(DATA_SEED)


class FitSquare(FitWorkload):
    name = "fit-square"

    def problem(self) -> Problem:
        return sparse_problem(DATA_SEED, 200, 200)


class SampleWide(Workload):
    """The library path at p >> n from the zero start."""

    name = "sample-wide"
    kernel = "dense"

    def setup(self) -> None:
        prob = sparse_problem(DATA_SEED, 100, 1000)
        self.data = plgibbs.Dataset(y=prob.y, X=prob.X)
        self.data.xtx, self.data.xty, self.data.yty  # cached on the Dataset
        self.groups = plgibbs.GroupStructure(prob.groups)
        self.hyper = plgibbs.Hyperparameters(1.0, 1.0, 1.0, 1.0)

    def _chain(self, model, n_iter, burn_in, seed):
        config = plgibbs.ChainConfig(n_iter=n_iter, burn_in=burn_in, seed=seed, init_mode="zero")
        g = None if model == "bfl" else self.groups
        out = plgibbs.run_chain(model, self.data, self.hyper, groups=g, config=config)
        report = plgibbs.summarize(out)
        plgibbs.build_drift_report(model, self.data, self.hyper, groups=g)
        return out, report

    def warm(self) -> None:
        for model in MODELS:
            self._chain(model, 20, 2, 0)

    def run_pass(self, k: int) -> PassResult:
        res = PassResult()
        for model in MODELS:
            res.ops.append(self._library_chain(res, k, model))
        return res

    def _library_chain(self, res: PassResult, k: int, model: str) -> Op:
        """One chain with its summary and drift report, checked before the next one starts.

        Its draws are freed on return, so they do not count in the next
        chain's peak memory.
        """
        with self.tracer.span("bench.library", model=model):
            result, reason = self.op(res, lambda: _raised(
                lambda: self._chain(model, WIDE_SWEEPS, WIDE_BURN_IN, pass_seed(self.seed, k))))
        if reason:
            return Op(f"chain.{model}", ok=False, reason=reason)
        out, report = result
        run, starts = chain_records(self.tracer.spans)[-1]
        run.payload = None
        rows = {r["name"]: r for r in report.parameters}
        res.chains.append(self.chain_record(model, WIDE_SWEEPS, run, starts, rows["sigma2"]["ess"]))
        reason = chain_support(out) or self._sigma2_settled(out)
        return Op(f"chain.{model}", ok=not reason, reason=reason)

    def _sigma2_settled(self, out) -> str:
        """'' when the kept sigma2 draws show no trend left from the zero start.

        From the zero start sigma2 falls from about 2.4 to its plateau
        (0.02 to 0.1 here) within about 60 sweeps; a kept half whose mean
        differs from the other half's by more than a factor of 1.5 means
        burn-in did not pass that transient.
        """
        s2 = out.column("sigma2")
        half = len(s2) // 2
        first, second = float(np.mean(s2[:half])), float(np.mean(s2[half:]))
        if not 1 / SETTLED_RATIO < first / second < SETTLED_RATIO:
            return f"sigma2 half means {first:.3g} and {second:.3g} differ by more than {SETTLED_RATIO}x"
        return ""


class Verify(Workload):
    """``plg verify`` suites through ``cli.main`` plus the p = 1 quadrature oracle."""

    name = "verify"

    def setup(self) -> None:
        rng = np.random.default_rng(DATA_SEED)
        x = rng.standard_normal((6, 1))
        y = 1.2 * x[:, 0] + 0.8 * rng.standard_normal(6)
        self.data = plgibbs.Dataset(y=y, X=x)
        self.hyper = plgibbs.Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=3.0, xi=2.0)

    def warm(self) -> None:
        out = plgibbs.run_chain("bfl", self.data, self.hyper, config=plgibbs.ChainConfig(n_iter=20))
        plgibbs.summarize(out)

    def _oracle_chain(self, config):
        out = plgibbs.run_chain("bfl", self.data, self.hyper, config=config)
        return out, plgibbs.summarize(out)

    def run_pass(self, k: int) -> PassResult:
        # Every pass repeats the same checks at the benchmark seed: a pass is
        # fixed work, and a failing check fails once per seed, not per pass.
        # An oracle chain follows each suite, so the chains, whose median
        # gives sweep_us, sample the machine's speed across the whole pass.
        seed = self.seed
        codes, chains, res = {}, [], PassResult()
        for j, suite in enumerate(SUITES):
            argv = ["verify", "--suite", suite, "--replicates", VERIFY_REPLICATES, "--seed", seed,
                    "--out", self.workdir / f"{suite}.json"]
            with self.tracer.span(f"bench.verification.{suite}"), self.tracer.span("bench.plg"):
                codes[suite] = self.op(res, lambda: _quiet_main(argv))
            config = plgibbs.ChainConfig(n_iter=ORACLE_SWEEPS, seed=seed, stream_id=j)
            with self.tracer.span("bench.library", model="bfl") as lib:
                chain, reason = self.op(res, lambda: _raised(lambda: self._oracle_chain(config)))
            if not reason:
                chain += next(r for r in chain_records(self.tracer.spans) if r[0].start >= lib.start)
            chains.append((chain, reason))
        with self.tracer.span("bench.verification.oracle_quad"):
            oracle, quad_reason = self.op(
                res, lambda: _raised(lambda: verification.posterior_oracle_1d(self.data, self.hyper)))

        for suite in SUITES:
            path = self.workdir / f"{suite}.json"
            if not path.exists():
                res.ops.append(Op(f"verify.{suite}", ok=False, reason=f"exit code {codes[suite]}, no report"))
                continue
            with path.open(encoding="utf-8") as fh:
                payload = json.load(fh)
            path.unlink()
            res.documents += 1
            res.schema_violations += self._violations("verify_report", payload)
            for s in payload["suites"]:
                for c in s["checks"]:
                    res.ops.append(Op(f"verify.{c['name']}", ok=bool(c["passed"]),
                                      reason="" if c["passed"] else f"check failed: {c['statistics']}"))
            if codes[suite] != 0 and payload["passed"]:
                res.ops.append(Op(f"verify.{suite}", ok=False, reason=f"exit code {codes[suite]}"))
        if not quad_reason and not oracle.converged:
            quad_reason = "quadrature did not converge"
        res.ops.append(Op("oracle.quadrature", ok=not quad_reason, reason=quad_reason))
        for j, (chain, chain_reason) in enumerate(chains):
            name = f"oracle.chain.{j}"
            if chain_reason or quad_reason:
                res.ops.append(Op(name, ok=False, reason=chain_reason or "no oracle to check against"))
                continue
            out, report, run, starts = chain
            rows = {r["name"]: r for r in report.parameters}
            res.chains.append(self.chain_record("bfl", ORACLE_SWEEPS, run, starts, rows["sigma2"]["ess"]))
            reason = chain_support(out)
            if not reason:
                zs, reason = z_check(rows, {"beta.1": (oracle.beta_mean, 0.0),
                                            "sigma2": (oracle.sigma2_mean, 0.0)})
                res.z_values += [("bfl", z) for z in zs]
            res.ops.append(Op(name, ok=not reason, reason=reason))
        return res


WORKLOADS = {w.name: w for w in (FitSmall, FitSquare, SampleWide, Verify)}
