"""Command-line interface: fit chains, diagnose stored output, run the
verification suites.

Exit codes are a stable contract: 0 success, 1 domain or runtime failure,
2 usage error.  All emitted JSON carries ``schema_version`` and validates
against the schemas shipped in ``docs/schemas``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .distributions import RngStream
from .errors import PlgError
from .ergodicity import build_drift_report, default_workers, drift_value, empirical_drift_check
from .gibbs import MODEL_IDS, SPECS, ChainConfig, ChainOutput, _blocks, initial_state, run_chain
from .model_core import Dataset, GroupStructure, Hyperparameters
from .output_analysis import monte_carlo_mean, summarize
from . import verification

SCHEMA_VERSION = "3"


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

def ingest_csv(path) -> Dataset:
    """Read a dataset: header row, first column ``y``, remaining columns X.

    Missing or non-numeric cells are rejected with their (1-based data) row
    and column name.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PlgError(f"{path}: empty file, expected a header row") from None
        if not header or header[0] != "y":
            raise PlgError(f"{path}: first column must be named 'y', got {header[:1]!r}")
        if len(header) < 2:
            raise PlgError(f"{path}: need at least one predictor column")
        rows = []
        for i, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise PlgError(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
            parsed = []
            for name, cell in zip(header, row):
                cell = cell.strip()
                if cell == "":
                    raise PlgError(f"{path}: missing value at row {i}, column {name!r}")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise PlgError(
                        f"{path}: non-numeric value {cell!r} at row {i}, column {name!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise PlgError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    return Dataset(y=arr[:, 0], X=arr[:, 1:])


def emit_csv(path, header, rows) -> None:
    """Write rows of floats with full round-trip precision."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def _write_json(path, payload) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _parse_groups(raw: str) -> GroupStructure:
    try:
        sizes = tuple(int(tok) for tok in raw.split(","))
    except ValueError:
        raise PlgError(f"--groups must be comma-separated integers, got {raw!r}") from None
    return GroupStructure(sizes)


def _load_init_state(model_id, init_spec, data, groups):
    path = Path(init_spec[len("file:"):])
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        last = None
        for row in reader:
            last = row
    if last is None:
        raise PlgError(f"{path}: no state row")
    vals = dict(zip(header, (float(v) for v in last)))
    spec = SPECS[model_id]
    return spec.state(*(np.array([vals[f"{name}.{i + 1}"] for i in range(length)])
                        for name, length in _blocks(spec, data.p, groups)))


def cmd_fit(args) -> int:
    data = ingest_csv(args.data)
    groups = _parse_groups(args.groups) if args.groups else None
    if SPECS[args.model].grouped:
        if groups is None:
            raise PlgError(f"--groups is required for model {args.model}")
        groups.check_p(data.p)
    elif groups is not None:
        raise PlgError("--groups only applies to bgl/bsgl")
    hyper = Hyperparameters(lambda1=args.lambda1, lambda2=args.lambda2, alpha=args.alpha, xi=args.xi)

    init_mode, init_state = args.init, None
    if args.init.startswith("file:"):
        init_state = _load_init_state(args.model, args.init, data, groups)
        init_mode = "custom"
    elif args.init not in ("default", "zero"):
        raise PlgError(f"--init must be default, zero or file:PATH, got {args.init!r}")

    # Built here so bad chain settings fail before the penalized solve.
    config = ChainConfig(n_iter=args.iters, burn_in=args.burnin, thin=args.thin,
                         seed=args.seed, init_mode=init_mode, init_state=init_state)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # One penalized solve per fit, shared by default-start chains and v_default_start.
    default_start = initial_state(args.model, data, hyper, groups, ChainConfig(n_iter=2, burn_in=0))
    if init_mode == "default":
        config = replace(config, init_state=default_start)

    def one_chain(chain_idx: int) -> ChainOutput:
        return run_chain(args.model, data, hyper, groups=groups, config=replace(config, stream_id=chain_idx))

    n_chains = max(1, args.chains)
    workers = min(default_workers(), n_chains)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(one_chain, range(n_chains)))
    else:
        outputs = [one_chain(i) for i in range(n_chains)]

    for idx, out in enumerate(outputs):
        emit_csv(out_dir / f"samples_{idx}.csv", out.column_labels, out.draws)

    reports = [summarize(out).to_dict() for out in outputs]
    _write_json(out_dir / "summary.json", {
        "schema_version": SCHEMA_VERSION,
        "chains": reports,
        "between_within": _between_within(outputs) if n_chains > 1 else None,
    })

    drift = build_drift_report(args.model, data, hyper, groups=groups)
    payload = drift.to_dict()
    payload["schema_version"] = SCHEMA_VERSION
    payload["v_default_start"] = drift_value(args.model, default_start, data, hyper, groups)
    _write_json(out_dir / "drift.json", payload)
    return 0


def _between_within(outputs) -> dict:
    """Per-column between-chain variance of means and mean within variance."""
    labels = outputs[0].column_labels
    means = np.stack([monte_carlo_mean(out) for out in outputs])
    within = np.stack([np.var(out.draws, axis=0, ddof=1) for out in outputs])
    return {
        "columns": list(labels),
        "per_chain_means": means.tolist(),
        "between_var_of_means": np.var(means, axis=0, ddof=1).tolist(),
        "mean_within_var": within.mean(axis=0).tolist(),
    }


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------

def _read_samples(path) -> ChainOutput:
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(cell) for cell in row] for row in reader]
    if not rows:
        raise PlgError(f"{path}: no sample rows")
    return ChainOutput(draws=np.asarray(rows), column_labels=header, meta={"source": str(path)})


def cmd_diagnose(args) -> int:
    chains = [_read_samples(p) for p in args.chains]
    reports = [summarize(ch).to_dict() for ch in chains]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "chains": reports,
        "between_within": _between_within(chains) if len(chains) > 1 else None,
    }
    _write_json(args.out, payload)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_instance(seed: int):
    rng = RngStream(seed, 1)
    n, p = 15, 4
    x_mat = rng.gen.standard_normal((n, p))
    beta = np.array([1.5, 0.0, -1.0, 0.5])
    y = x_mat @ beta + rng.gen.standard_normal(n)
    return Dataset(y=y, X=x_mat)


def _suite_geweke(args) -> list:
    checks = []
    groups = GroupStructure((2, 1))
    for model in MODEL_IDS:
        rng = RngStream(args.seed, 100 + len(checks))
        checks.append(verification.geweke_joint_test(
            model, n=4, p=3, groups=groups if SPECS[model].grouped else None,
            replicates=args.replicates, rng=rng,
        ))
    return checks


def _suite_prior(args) -> list:
    rng = RngStream(args.seed, 200)
    checks = [
        verification.fused_prior_propriety_check(1, 1.0, 1.0, mc_samples=200_000, rng=rng.substream(0)),
        verification.fused_prior_propriety_check(3, 1.0, 1.0, mc_samples=200_000, rng=rng.substream(1)),
    ]
    pair_rng = RngStream(args.seed, 201)
    for p in (1, 2):
        pts = [
            (pair_rng.gen.uniform(-1, 1, size=p), pair_rng.gen.uniform(-1, 1, size=p))
            for _ in range(4)
        ]
        checks.append(verification.fused_marginal_prior_check(
            p, 1.0, 1.0, sigma2=1.0, beta_points=pts, mc_samples=300_000,
            rng=pair_rng.substream(p),
        ))
    return checks


def _suite_drift(args) -> list:
    from .verification import CheckResult

    data = _verify_instance(args.seed)
    groups = GroupStructure((2, 2))
    hyper = Hyperparameters(lambda1=1.0, lambda2=1.5, alpha=1.0, xi=1.0)
    checks = []
    state_rng = RngStream(args.seed, 300)
    for model in MODEL_IDS:
        spec = SPECS[model]
        g = groups if spec.grouped else None
        lengths = [length for _, length in _blocks(spec, data.p, g)[1:]]
        states = []
        for _ in range(20):
            gen = state_rng.gen
            beta = 3.0 * gen.standard_normal(data.p)
            states.append(spec.state(beta, *(gen.gamma(2.0, 1.0, k) for k in lengths), 1.0))
        result = empirical_drift_check(
            model, states, data, hyper, groups=g,
            replicates=3000, rng=RngStream(args.seed, 310),
        )
        checks.append(CheckResult(
            name=f"empirical_drift_{model}",
            statistics={"violations": result.n_violations, "states": len(states)},
            threshold=0.0,
            passed=result.all_satisfied,
            details={"phi": result.phi, "L": result.L},
        ))
    return checks


def _suite_oracle(args) -> list:
    from .verification import CheckResult

    rng = RngStream(args.seed, 400)
    n = 6
    x_mat = rng.gen.standard_normal((n, 1))
    y = x_mat[:, 0] * 1.2 + 0.8 * rng.gen.standard_normal(n)
    data = Dataset(y=y, X=x_mat)
    hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=3.0, xi=2.0)
    oracle = verification.posterior_oracle_1d(data, hyper)
    config = ChainConfig(n_iter=100_000, burn_in=10_000, thin=1, seed=args.seed, stream_id=401)
    out = run_chain("bfl", data, hyper, config=config)
    report = summarize(out)
    rows = {r["name"]: r for r in report.parameters}
    checks = []
    for label, target in (("beta.1", oracle.beta_mean), ("sigma2", oracle.sigma2_mean)):
        row = rows[label]
        zval = abs(row["mean"] - target) / row["mcse"]
        checks.append(CheckResult(
            name=f"oracle_agreement_{label}",
            statistics={"chain_mean": row["mean"], "oracle_mean": target, "z": zval},
            threshold=3.0,
            passed=bool(zval < 3.0),
            details={"mcse": row["mcse"], "oracle_rel_error": oracle.rel_error},
        ))
    return checks


SUITES = {
    "geweke": _suite_geweke,
    "prior": _suite_prior,
    "drift": _suite_drift,
    "oracle": _suite_oracle,
}


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    suites_payload = []
    all_passed = True
    for name in names:
        checks = SUITES[name](args)
        passed = all(c.passed for c in checks)
        all_passed &= passed
        suites_payload.append({
            "name": name,
            "passed": passed,
            "checks": [_check_to_dict(c) for c in checks],
        })
        for c in checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.statistics}")
    payload = {"schema_version": SCHEMA_VERSION, "suites": suites_payload, "passed": all_passed}
    if args.out:
        _write_json(args.out, payload)
    return 0 if all_passed else 1


def _check_to_dict(check) -> dict:
    return {
        "name": check.name,
        "statistics": {k: _jsonable(v) for k, v in check.statistics.items()},
        "threshold": check.threshold,
        "passed": check.passed,
        "details": json.loads(json.dumps(check.details, default=_jsonable)),
    }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return float(v)
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plg",
        description="Gibbs samplers for Bayesian fused / group / sparse-group "
                    "lasso regression with ergodicity diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="run Gibbs chains on a CSV dataset")
    fit.add_argument("--model", required=True, choices=MODEL_IDS)
    fit.add_argument("--data", required=True, help="CSV with columns y, x1, x2, ...")
    fit.add_argument("--groups", default=None,
                     help="comma-separated group sizes (bgl/bsgl only), e.g. 2,3,1")
    fit.add_argument("--lambda1", type=float, default=1.0)
    fit.add_argument("--lambda2", type=float, default=1.0,
                     help="second penalty; ignored by bgl, which reads lambda1")
    fit.add_argument("--alpha", type=float, default=1.0)
    fit.add_argument("--xi", type=float, default=1.0)
    fit.add_argument("--iters", type=int, default=5000)
    fit.add_argument("--burnin", type=int, default=None)
    fit.add_argument("--thin", type=int, default=1)
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--chains", type=int, default=1)
    fit.add_argument("--init", default="default", help="default | zero | file:PATH")
    fit.add_argument("--out-dir", required=True)
    fit.set_defaults(func=cmd_fit)

    diag = sub.add_parser("diagnose", help="recompute summaries from stored chains")
    diag.add_argument("chains", nargs="+", help="samples_*.csv paths")
    diag.add_argument("--out", default="summary.json")
    diag.set_defaults(func=cmd_diagnose)

    ver = sub.add_parser("verify", help="run the correctness/ergodicity suites")
    ver.add_argument("--suite", default="all", choices=("all",) + tuple(SUITES))
    ver.add_argument("--replicates", type=int, default=10_000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default="report.json")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # domain failures map to exit 1, not tracebacks
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
