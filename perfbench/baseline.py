"""Write a baseline file, perfbench/BENCH_<commit>.json, for the checkout it runs in.

    python3 perfbench/baseline.py

For every workload it runs, each as its own process and for BENCHMARK.json's
``run_seconds``:

- ``--trace 0`` at the default seed: the end-to-end metrics;
- ``--trace 1`` twice at the default seed: the per-layer metrics, and a
  check that the exact counts repeat;
- ``--trace 0`` at three other seeds: the seed-to-seed spread of sigma2 ESS
  and of the correctness z values, so a change to the random stream can
  tell whether its ``ess_per_s`` change is resolvable.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from arith import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEFAULT_SEED = 1
SPREAD_SEEDS = (2, 3, 4)
WORKLOADS = ("fit-small", "fit-square", "sample-wide", "verify")
EXACT_COUNTS = ("solvers.starts_per_fit", "solvers.iterations", "distributions.chol_per_beta",
                "gibbs.fallback_share")


def run(workload: str, seed: int, trace: int, seconds: float, tmp: Path) -> dict:
    out = tmp / f"{workload}-{seed}-{trace}-{len(list(tmp.iterdir()))}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{res.stderr[-3000:]}")
    print(f"  {workload} seed {seed} trace {trace}: done", flush=True)
    with out.open(encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(xs) -> dict:
    xs = list(xs)
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return {"min": min(xs), "q1": q1, "median": q2, "q3": q3, "max": max(xs),
            "spread": quartile_spread(xs), "n": len(xs)}


def seed_spread(results) -> dict:
    """sigma2 ESS per model and |z| of the correctness checks, across seeds."""
    ess = {}
    for r in results:
        per_model = {}
        for p in r["per_pass"]:
            for c in p["chains"]:
                per_model.setdefault(c["model"], []).append(c["sigma2_ess"])
        for model, xs in per_model.items():
            ess.setdefault(model, {})[str(r["seed"])] = statistics.median(xs)
    return {
        "seeds": [r["seed"] for r in results],
        "ess_per_s": {str(r["seed"]): r["end_to_end"]["ess_per_s"] for r in results},
        "ess_per_s_quartiles": quartiles(r["end_to_end"]["ess_per_s"] for r in results),
        "sigma2_ess_median_per_seed": ess,
        "sigma2_ess_quartiles": {m: quartiles(v.values()) for m, v in ess.items()},
        "abs_z": {str(r["seed"]): quartiles(abs(z) for _, z in r["z_values"])
                  for r in results if r["z_values"]},
    }


def main() -> int:
    with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    baseline = {"default_seed": DEFAULT_SEED, "seconds": seconds, "workloads": {}}
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench-work") as tmp_name:
        tmp = Path(tmp_name)
        for wl in WORKLOADS:
            print(wl, flush=True)
            e2e = run(wl, DEFAULT_SEED, 0, seconds, tmp)
            traced = [run(wl, DEFAULT_SEED, 1, seconds, tmp) for _ in range(2)]
            others = [run(wl, s, 0, seconds, tmp) for s in SPREAD_SEEDS]
            baseline["machine"] = e2e["machine"]
            counts = {}
            for name in traced[0]["metrics"]:
                if name.rsplit(".", 1)[0] in EXACT_COUNTS:
                    a, b = (t["metrics"][name]["value"] for t in traced)
                    counts[name] = {"values": [a, b], "repeats": a == b}
            baseline["workloads"][wl] = {
                "correct": e2e["correct"] and all(t["correct"] for t in traced + others),
                "attempted": e2e["attempted"], "failed": e2e["failed"],
                "end_to_end": e2e["metrics"],
                "end_to_end_raw": e2e["details"]["raw"],
                "slowdown_median": statistics.median(e2e["details"]["slowdowns"]),
                "ess_per_s": e2e["end_to_end"]["ess_per_s"],
                "error_rate": e2e["details"]["error_rate"],
                "failures": {f"seed {r['seed']} trace {r['trace']}": r["details"]["failures"]
                             for r in [e2e] + traced + others if r["details"]["failures"]},
                "schema_violations": e2e["details"]["schema_violations"],
                "passes": e2e["details"]["passes"],
                "per_layer": traced[0]["metrics"],
                "per_layer_details": traced[0]["details"]["layers"],
                "exact_counts_repeat": counts,
                "seed_spread": seed_spread([e2e] + others),
            }
    commit = (baseline["machine"]["git_commit"] or "unknown")[:7]
    path = HERE / f"BENCH_{commit}.json"
    with path.open("w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    bad = [f"{wl}: {name}" for wl, w in baseline["workloads"].items()
           for name, c in w["exact_counts_repeat"].items() if not c["repeats"]]
    if bad:
        print("exact counts that did not repeat: " + ", ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
