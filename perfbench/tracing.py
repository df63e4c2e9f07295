"""In-memory spans around the package's public functions.

A :class:`Tracer` rebinds module attributes of ``plgibbs`` to timing
wrappers at run time, so no file of the package changes.  Each call made
through a wrapped name records one span: its layer name, the model it ran
for, its parent span, its start and end (``time.perf_counter``) and a few
counts taken from its arguments or result.  Spans stay in memory until the
benchmark reads them.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from arith import median, ratio, self_time, tail

MODELS = ("bfl", "bgl", "bsgl")


class Span:
    __slots__ = ("name", "model", "parent", "start", "end", "count", "total", "flag", "payload")

    def __init__(self, name, model, parent):
        self.name = name
        self.model = model
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.count = 0      # fallback draws, FISTA iterations or replicates
        self.total = 0      # all scale draws in a draw_scales call
        self.flag = True    # solver converged
        self.payload = None  # the ChainOutput of a run_chain span, until the benchmark checks it

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls made through rebound module attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name, model):
        parent = self._stack[-1] if self._stack else None
        if model is None and parent is not None:
            model = self.spans[parent].model
        rec = Span(name, model, parent)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec.start = time.perf_counter()
        return rec

    def _close(self, rec):
        rec.end = time.perf_counter()
        self._stack.pop()

    def span(self, name, model=None):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Ctx:
            def __enter__(self):
                self.rec = tracer._open(name, model)
                return self.rec

            def __exit__(self, *exc):
                tracer._close(self.rec)
                return False

        return _Ctx()

    def wrap(self, module, attr, name, model=None, after=None, clock=None):
        """Rebind ``module.attr`` to a wrapper that records a span per call.

        ``after(span, args, kwargs, result)`` may add counts to the span.
        With a ``clock``, an optional calibration mark is taken just before
        and just after the span, outside it.
        """
        fn = getattr(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if clock is not None:
                clock.mark(force=False)
            rec = tracer._open(name, model)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                if clock is not None:
                    clock.mark(force=False)
            if after is not None:
                after(rec, args, kwargs, result)
            return result

        self._rebind(module, attr, fn, wrapper)

    def after_each(self, module, attr, hook) -> None:
        """Rebind ``module.attr`` to call ``hook()`` after every call; no span."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook()
            return result

        self._rebind(module, attr, fn, wrapper)

    def _rebind(self, module, attr, fn, wrapper) -> None:
        wrapper.__wrapped__ = fn
        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every attribute this tracer rebound, newest first."""
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def take(self) -> list:
        """Hand over the recorded spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------

def install_chain_timers(tracer: Tracer, clock=None) -> None:
    """Call-level timers the untraced run needs for ``sweep_us``.

    One span per chain and per start solve.  With a ``clock``, calibration
    marks go around them, and after a sweep or a FISTA prox step once
    ``calibrate.MIN_GAP`` seconds have passed since the last mark, so a long
    chain or solve is scaled piece by piece; per call that costs one clock
    read.
    """
    import plgibbs
    from plgibbs import cli, gibbs, solvers, verification

    if clock is not None:
        def tick():
            clock.mark(force=False)

        for model in MODELS:
            for module in (gibbs, verification):
                tracer.after_each(module, f"{model}_step", tick)
        for prox in ("soft_threshold", "block_soft_threshold", "tv1d_prox"):
            tracer.after_each(solvers, prox, tick)

    def keep_output(rec, args, kwargs, result):
        rec.payload = result

    for module in (plgibbs, gibbs, cli):
        tracer.wrap(module, "run_chain", "gibbs.run_chain", after=keep_output, clock=clock)
    for model in MODELS:
        tracer.wrap(solvers, f"default_start_{model}", "solvers.start", model=model, clock=clock)


def install_layer_spans(tracer: Tracer) -> None:
    """Spans at every layer boundary the per-layer metrics read.

    Install after :func:`install_chain_timers`, which the traced run also needs.
    """
    import plgibbs
    from plgibbs import cli, distributions, ergodicity, gibbs, output_analysis, solvers, verification

    zero_tol = gibbs.ZERO_BETA_TOL

    def count_fallbacks(rec, args, kwargs, result):
        mags = np.asarray(args[0])
        rec.count = int(np.count_nonzero(mags < zero_tol))
        rec.total = int(mags.size)

    def count_iterations(rec, args, kwargs, result):
        rec.count = int(result.iterations)
        rec.flag = bool(result.converged)

    def count_replicates(rec, args, kwargs, result):
        rec.count = int(kwargs["replicates"] if "replicates" in kwargs else args[6])

    for model in MODELS:
        for module in (gibbs, verification):
            tracer.wrap(module, f"{model}_step", "gibbs.step", model=model)
    tracer.wrap(gibbs, "draw_scales", "distributions.scales", after=count_fallbacks)
    tracer.wrap(gibbs, "sample_inverse_gamma", "distributions.inverse_gamma")
    tracer.wrap(gibbs, "sample_gaussian_regression_conditional", "distributions.beta")
    tracer.wrap(distributions, "cho_factor", "distributions.cho_factor")
    for cls in ("FusedState", "GroupState", "SparseGroupState"):
        tracer.wrap(gibbs, cls, "model_core.state")
    for fn in ("build_fused_precision", "build_group_precision", "build_sparse_precision",
               "fused_quadratic_form"):
        tracer.wrap(gibbs, fn, "model_core.precision")
    for module in (verification, cli):
        tracer.wrap(module, "Dataset", "model_core.dataset")
    for fn in ("fused_lasso_solve", "group_lasso_solve", "sparse_group_lasso_solve"):
        tracer.wrap(solvers, fn, "solvers.solve", after=count_iterations)
    for module in (plgibbs, cli):
        tracer.wrap(module, "summarize", "output_analysis.summarize")
    tracer.wrap(output_analysis, "effective_sample_size", "output_analysis.ess")
    tracer.wrap(cli, "ingest_csv", "cli.ingest")
    tracer.wrap(cli, "emit_csv", "cli.emit")
    tracer.wrap(cli, "_write_json", "cli.json")
    for module in (plgibbs, cli):
        tracer.wrap(module, "build_drift_report", "ergodicity.report")
    tracer.wrap(cli, "empirical_drift_check", "ergodicity.drift_check")
    tracer.wrap(ergodicity, "batch_transition", "ergodicity.transition", after=count_replicates)


# ---------------------------------------------------------------------------
# From spans to metrics
# ---------------------------------------------------------------------------

def children_index(spans) -> dict:
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            kids[s.parent].append(i)
    return kids


def chain_records(spans) -> list:
    """(run_chain span, the start-solve spans inside it) for every chain."""
    kids = children_index(spans)
    return [(s, [spans[k] for k in kids[i] if spans[k].name == "solvers.start"])
            for i, s in enumerate(spans) if s.name == "gibbs.run_chain"]


class LayerAccumulator:
    """Per-layer samples gathered pass by pass, reduced to metrics at the end."""

    def __init__(self):
        self.samples = defaultdict(list)   # timing metric -> values from every traced pass
        self.counts = None                 # exact counts of the first traced pass
        self.identity_violations = 0
        self.steps_checked = 0

    def add(self, spans, at) -> None:
        """Fold in one traced pass, reading span times through the timeline ``at``.

        ``at`` maps a ``time.perf_counter`` reading onto the calibrated
        clock (``SpeedClock.timeline``), so times leave out calibration
        marks and read at the reference speed or as measured.
        Times accumulate over every pass.  Counts (and the FISTA iteration
        samples) come from the first pass only: its work is fixed by the
        seed, while the number of passes depends on the machine, so the
        counts repeat exactly across runs at one seed.
        """
        kids = children_index(spans)
        smp, cnt = self.samples, defaultdict(float)
        first = self.counts is None
        start = [at(s.start) for s in spans]
        end = [at(s.end) for s in spans]

        def dur(k):
            return end[k] - start[k]

        for i, s in enumerate(spans):
            m = s.model
            name = s.name
            if name == "gibbs.step":
                own = self_time(start[i], end[i], [(start[k], end[k]) for k in kids[i]])
                by = defaultdict(float)
                for k in kids[i]:
                    by[spans[k].name] += dur(k)
                # The sweep identity: self time plus the children's times is the step.
                self.steps_checked += 1
                if abs(own + sum(by.values()) - dur(i)) > 1e-9 * max(1.0, dur(i)) + 1e-12:
                    self.identity_violations += 1
                smp[f"gibbs.step_us.{m}"].append(dur(i) * 1e6)
                smp[f"gibbs.self_us.{m}"].append(own * 1e6)
                smp[f"model_core.state_us.{m}"].append(by["model_core.state"] * 1e6)
                smp[f"model_core.precision_us.{m}"].append(by["model_core.precision"] * 1e6)
                smp[f"distributions.sigma2_us.{m}"].append(by["distributions.inverse_gamma"] * 1e6)
                smp[f"distributions.scales_us.{m}"].append(by["distributions.scales"] * 1e6)
                smp[f"distributions.beta_us.{m}"].append(by["distributions.beta"] * 1e6)
                smp[f"step_s.{m}"].append(dur(i))
                smp[f"beta_s.{m}"].append(by["distributions.beta"])
            elif name == "distributions.scales":
                cnt[f"fallback.{m}"] += s.count
                cnt[f"scale_draws.{m}"] += s.total
            elif name == "distributions.beta":
                cnt[f"beta_draws.{m}"] += 1
                cnt[f"cho_factor.{m}"] += sum(1 for k in kids[i] if spans[k].name == "distributions.cho_factor")
            elif name == "gibbs.run_chain":
                sweeps = [spans[k] for k in kids[i] if spans[k].name == "gibbs.step"]
                covered = [(start[k], end[k]) for k in kids[i]]
                if sweeps:
                    smp[f"gibbs.store_us.{m}"].append(
                        self_time(start[i], end[i], covered) / len(sweeps) * 1e6)
            elif name == "solvers.start":
                smp[f"solvers.start_s.{m}"].append(dur(i))
                cnt[f"starts.{m}"] += 1
            elif name == "solvers.solve":
                if first:
                    smp[f"solvers.iterations.{m}"].append(s.count)
                cnt[f"solves.{m}"] += 1
                cnt[f"converged.{m}"] += int(s.flag)
            elif name == "output_analysis.summarize":
                smp[f"output_analysis.summarize_s.{m}"].append(dur(i))
            elif name == "output_analysis.ess":
                smp[f"output_analysis.ess_s.{m}"].append(dur(i))
            elif name == "model_core.dataset":
                smp["model_core.dataset_us"].append(dur(i) * 1e6)
            elif name == "ergodicity.report":
                smp["ergodicity.report_s"].append(dur(i))
            elif name == "ergodicity.drift_check":
                smp["ergodicity.drift_check_s"].append(dur(i))
            elif name == "ergodicity.transition":
                smp["transitions"].append(s.count)
                smp["transition_s"].append(dur(i))
            elif name == "bench.plg":
                # One `plg` invocation: the time of its CLI I/O children.
                for layer in ("ingest", "emit", "json"):
                    smp[f"cli.{layer}_s"].append(
                        sum(dur(k) for k in kids[i] if spans[k].name == f"cli.{layer}"))
                if m is not None:
                    cnt[f"fits.{m}"] += 1
            elif name.startswith("bench.verification."):
                smp[name[len("bench."):] + "_s"].append(dur(i))
        if first:
            self.counts = cnt

    def metrics(self) -> tuple[dict, dict]:
        """(metric -> value, metric -> details) for every per-layer metric.

        A median's details give its sample count and its tail: the highest
        percentile with at least ten samples beyond it, or None.  A ratio's
        give its base.
        """
        smp, cnt = self.samples, self.counts or defaultdict(float)
        values, details = {}, {}

        def put_median(name):
            xs = smp.get(name, [])
            values[name] = median(xs) if xs else 0.0
            details[name] = {"samples": len(xs), "tail": tail(xs)}

        def put_ratio(name, num, den):
            r = ratio(num, den)
            values[name] = r["value"]
            details[name] = r

        for m in MODELS:
            for base in ("gibbs.step_us", "gibbs.self_us", "gibbs.store_us", "model_core.state_us",
                         "model_core.precision_us", "distributions.sigma2_us",
                         "distributions.scales_us", "distributions.beta_us", "solvers.start_s",
                         "solvers.iterations", "output_analysis.summarize_s",
                         "output_analysis.ess_s"):
                put_median(f"{base}.{m}")
            put_ratio(f"gibbs.fallback_share.{m}", cnt[f"fallback.{m}"], cnt[f"scale_draws.{m}"])
            put_ratio(f"distributions.beta_share.{m}", sum(smp[f"beta_s.{m}"]), sum(smp[f"step_s.{m}"]))
            put_ratio(f"distributions.chol_per_beta.{m}", cnt[f"cho_factor.{m}"], cnt[f"beta_draws.{m}"])
            put_ratio(f"solvers.starts_per_fit.{m}", cnt[f"starts.{m}"], cnt[f"fits.{m}"])
            put_ratio(f"solvers.converged_share.{m}", cnt[f"converged.{m}"], cnt[f"solves.{m}"])
        for name in ("model_core.dataset_us", "cli.ingest_s", "cli.emit_s", "cli.json_s",
                     "ergodicity.report_s", "ergodicity.drift_check_s", "verification.geweke_s",
                     "verification.prior_s", "verification.oracle_quad_s"):
            put_median(name)
        put_ratio("ergodicity.transitions_per_s", sum(smp["transitions"]), sum(smp["transition_s"]))
        return values, details
