"""plgibbs benchmark: run one workload, check its outputs, print its metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-small --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see perfbench/README.md).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--out FILE`` also writes a
result file with the machine record and every per-pass number.
"""

from __future__ import annotations

import os
import sys

# BLAS is pinned to one thread before numpy loads: on 2 vCPUs two OpenBLAS
# threads made n = p = 200 sweeps slower and noisier.  Chains run serially.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
PLG_THREADS = os.environ.pop("PLG_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOAD_NAMES = ("fit-small", "fit-square", "sample-wide", "verify")
SETUP_PROBES = 3
SETUP_CALIBRATIONS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "sweep_us": "us", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write a result file (JSON) here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    return args


def make_workload(args, workdir, tracer):
    from workloads import WORKLOADS

    return WORKLOADS[args.workload](args.seed, workdir, tracer, ROOT)


def setup_probe(args, workdir) -> int:
    """Child process: import plgibbs, build the inputs, print the wall clock."""
    from tracing import Tracer

    wl = make_workload(args, workdir, Tracer())
    wl.setup()
    print(repr(time.time()), flush=True)
    return 0


def measure_setup(args, workdir) -> tuple[list, list]:
    """(seconds from process start to inputs built, one per fresh process; slowdowns).

    ``SETUP_CALIBRATIONS`` runs of the ``interpreted`` kernel go before each
    probe and after the last one, on every workload: set-up is import and
    interpreter work.  No calibration tracks a single probe, but their
    median follows the machine's slower and faster phases, which moved the
    raw median of ten runs by up to 27% between sets of runs.
    """
    import calibrate

    calibrate.slowdown("interpreted")  # builds the kernel's matrices; untimed
    samples, slows = [], []
    for i in range(SETUP_PROBES):
        slows += [calibrate.slowdown("interpreted") for _ in range(SETUP_CALIBRATIONS)]
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
               "--seed", str(args.seed), "--out", str(probe_dir)]
        t0 = time.time()
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()[-500:]}")
        samples.append(float(res.stdout) - t0)
        shutil.rmtree(probe_dir, ignore_errors=True)
    slows += [calibrate.slowdown("interpreted") for _ in range(SETUP_CALIBRATIONS)]
    return samples, slows


def run_passes(wl, tracer, budget, on_spans=None):
    """Passes until the next one would overrun ``budget`` seconds (at least one)."""
    from arith import median

    passes, lengths = [], []
    t_begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        res = wl.run_pass(len(passes))
        spans = tracer.take()
        if on_spans is not None:
            on_spans(spans)
        passes.append(res)
        lengths.append(time.perf_counter() - t0)
        if time.perf_counter() - t_begin + median(lengths) > budget:
            return passes


def end_to_end(passes, setup, raw: bool = False) -> dict:
    """Times at the reference speed (or as measured, with ``raw``), and peak memory.

    ``setup_s`` is the median probe time over the median set-up slowdown
    (see :func:`measure_setup`).
    """
    from arith import median

    wall, secs = ("wall_raw_s", "seconds_raw") if raw else ("wall_s", "seconds")
    # Per model, the median over its chains; then the mean over models.  The
    # models' sweeps cost different amounts, so one median over all chains
    # would jump between models from run to run.
    per_model = {}
    for p in passes:
        for c in p.chains:
            per_model.setdefault(c["model"], []).append(c[secs] / c["n_iter"] * 1e6)
    return {
        "setup_s": median(setup[0]) / (1.0 if raw else median(setup[1])),
        "wall_s": median(getattr(p, wall) for p in passes),
        "sweep_us": sum(median(v) for v in per_model.values()) / len(per_model),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def ess_per_s(passes) -> float:
    """sigma2 ESS per chain-second, median over chains."""
    from arith import median

    return median(c["sigma2_ess"] / c["seconds"] for p in passes for c in p.chains)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "plgibbs" / "__init__.py").is_file():
        print(f"error: no src/plgibbs under {ROOT}; run from the root of a plgibbs checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args, Path(args.out))

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workdir) -> int:
    setup = measure_setup(args, workdir)

    from arith import median, ratio
    from machine import machine_record
    from tracing import LayerAccumulator, Tracer, install_chain_timers, install_layer_spans

    tracer = Tracer()
    wl = make_workload(args, workdir, tracer)
    t0 = time.perf_counter()
    wl.setup()
    setup_in_process = time.perf_counter() - t0
    wl.warm()
    wl.clock.mark()
    install_chain_timers(tracer, wl.clock)

    layers = None
    if args.trace:
        # Half the time untraced, half traced: the two medians give the overhead.
        # Span times are read at the reference speed; the raw ones go in the details.
        untraced = run_passes(wl, tracer, args.seconds / 2)
        layers, raw_layers = LayerAccumulator(), LayerAccumulator()

        def on_spans(spans):
            layers.add(spans, wl.clock.timeline())
            raw_layers.add(spans, wl.clock.timeline(scale=False))

        tracer.restore()
        install_chain_timers(tracer, wl.clock)
        install_layer_spans(tracer)
        traced = run_passes(wl, tracer, args.seconds / 2, on_spans=on_spans)
        passes = untraced + traced
    else:
        passes = run_passes(wl, tracer, args.seconds)
    tracer.restore()

    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    documents = sum(p.documents for p in passes)
    violations = sum(p.schema_violations for p in passes)
    # Timings come from untraced passes only: tracing slows what it times.
    timed = untraced if args.trace else passes
    e2e = end_to_end(timed, setup)
    raw = end_to_end(timed, setup, raw=True)
    ess_rate = ess_per_s(timed)
    error_rate = ratio(len(failed), len(ops))
    correct = not failed

    details = {"error_rate": error_rate, "schema_violations": ratio(violations, documents),
               "passes": len(passes), "chains": sum(len(p.chains) for p in passes),
               "setup_samples_s": setup[0], "setup_slowdowns": setup[1],
               "setup_in_process_s": setup_in_process,
               "slowdowns": wl.clock.slowdowns(),
               "raw": raw,
               "failures": [f"{op.name}: {op.reason}" for op in failed]}
    if args.trace:
        values, layer_details = layers.metrics()
        values["trace.overhead"] = (median(p.wall_s for p in traced)
                                    / median(p.wall_s for p in untraced) - 1.0)
        values["ess_per_s"] = ess_rate
        values["schema_violations"] = float(passes[0].schema_violations)  # one pass: an exact count
        values["error_rate"] = error_rate["value"]
        layer_details["trace.overhead"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
        layer_details["sweep_identity"] = {"steps": layers.steps_checked,
                                           "violations": layers.identity_violations}
        layer_details["raw"] = raw_layers.metrics()[0]
        correct = correct and layers.identity_violations == 0
        units = layer_units()
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        details["layers"] = layer_details
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"{'ess_per_s':42s} {ess_rate:.6g} 1/s (unbounded: see perfbench/README.md)")
    print(f"{'error_rate':42s} {error_rate['value']:.6g} ({len(failed)} of {len(ops)} operations)")
    print(f"{'schema_violations':42s} {violations} (of {documents} documents, {len(passes)} passes)")
    for op in failed[:10]:
        print(f"FAILED {op.name}: {op.reason}")

    record = machine_record(ROOT, PLG_THREADS)
    if args.out:
        payload = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": record, "correct": correct,
                   "attempted": len(ops), "failed": len(failed), "metrics": metrics,
                   "end_to_end": dict(e2e, ess_per_s=ess_rate), "details": details,
                   "per_pass": [{"wall_s": p.wall_s, "wall_raw_s": p.wall_raw_s, "chains": p.chains}
                                for p in passes],
                   "z_values": [z for p in passes for z in p.z_values]}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"machine": record}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


def layer_units() -> dict:
    """Per-layer metric name -> unit, as listed in BENCHMARK.json."""
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
