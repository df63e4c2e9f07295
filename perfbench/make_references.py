"""Compute the posterior references the fit workloads are checked against.

    python3 perfbench/make_references.py

For each fit workload and model it runs one long chain through
``plgibbs.run_chain`` from the default start (what ``plg fit --init default``
runs) and stores the posterior mean and its batch-means MCSE of sigma2 and
every beta in perfbench/references.json.  Run it from the root of a
checkout; it takes a few minutes on one core.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import plgibbs  # noqa: E402

from inputs import quickstart_problem, sparse_problem  # noqa: E402
from machine import git_commit  # noqa: E402
from tracing import MODELS  # noqa: E402
from workloads import DATA_SEED  # noqa: E402

REFERENCE_SEED = 2**40 + 7  # far from any benchmark pass seed (seed * 100000 + k)
SWEEPS = {"fit-small": 200_000, "fit-square": 20_000}


def reference(problem, sweeps: int) -> dict:
    data = plgibbs.Dataset(y=problem.y, X=problem.X)
    groups = plgibbs.GroupStructure(problem.groups)
    hyper = plgibbs.Hyperparameters(1.0, 1.0, 1.0, 1.0)
    out = {}
    for model in MODELS:
        t0 = time.perf_counter()
        chain = plgibbs.run_chain(model, data, hyper, groups=None if model == "bfl" else groups,
                                  config=plgibbs.ChainConfig(n_iter=sweeps, seed=REFERENCE_SEED))
        rows = {r["name"]: r for r in plgibbs.summarize(chain).parameters}
        labels = [f"beta.{j + 1}" for j in range(problem.p)] + ["sigma2"]
        out[model] = {lbl: [rows[lbl]["mean"], rows[lbl]["mcse"]] for lbl in labels}
        print(f"{model}: {sweeps} sweeps in {time.perf_counter() - t0:.1f} s, "
              f"sigma2 = {rows['sigma2']['mean']:.5g} +- {rows['sigma2']['mcse']:.2g}", flush=True)
    return out


def main() -> int:
    problems = {"fit-small": quickstart_problem(DATA_SEED),
                "fit-square": sparse_problem(DATA_SEED, 200, 200)}
    payload = {
        "about": "Posterior [mean, mcse] of beta and sigma2 from one long default-start chain "
                 "per model; plg fit defaults lambda1 = lambda2 = alpha = xi = 1.",
        "git_commit": git_commit(Path.cwd()),
        "data_seed": DATA_SEED,
        "chain_seed": REFERENCE_SEED,
        "workloads": {name: {"sweeps": SWEEPS[name], "means": reference(prob, SWEEPS[name])}
                      for name, prob in problems.items()},
    }
    with (HERE / "references.json").open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
