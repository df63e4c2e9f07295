import csv
import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from plgibbs.cli import SCHEMA_VERSION, build_parser, emit_csv, ingest_csv, main
from plgibbs.errors import PlgError
from plgibbs.gibbs import ChainConfig, run_chain
from plgibbs.model_core import Hyperparameters
from plgibbs.output_analysis import summarize

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def load_schema(name):
    with (SCHEMA_DIR / name).open() as fh:
        return json.load(fh)


def write_dataset(path, n=5, p=2, seed=0):
    rng = np.random.default_rng(seed)
    x_mat = rng.standard_normal((n, p))
    y = x_mat @ np.linspace(1.0, 0.5, p) + 0.3 * rng.standard_normal(n)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y"] + [f"x{j + 1}" for j in range(p)])
        for i in range(n):
            writer.writerow([repr(float(y[i]))] + [repr(float(v)) for v in x_mat[i]])
    return y, x_mat


class TestIngestCsv:
    def test_small_file(self, tmp_path):
        path = tmp_path / "d.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x1", "x2"])
            writer.writerow([1.0, 2.0, 3.0])
            writer.writerow([4.0, 5.0, 6.0])
            writer.writerow([7.0, 8.0, 9.0])
        data = ingest_csv(path)
        assert data.n == 3 and data.p == 2
        assert np.allclose(data.y, [1, 4, 7])

    def test_non_numeric_cell_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x1"])
            writer.writerow([1.0, 2.0])
            writer.writerow([3.0, "oops"])
        with pytest.raises(PlgError, match=r"row 2, column 'x1'"):
            ingest_csv(path)

    def test_missing_value_rejected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("y,x1\n1.0,\n")
        with pytest.raises(PlgError, match="missing value"):
            ingest_csv(path)

    def test_requires_y_header(self, tmp_path):
        path = tmp_path / "noy.csv"
        path.write_text("resp,x1\n1.0,2.0\n")
        with pytest.raises(PlgError, match="named 'y'"):
            ingest_csv(path)

    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-8, 8, (7, 3))
        path = tmp_path / "rt.csv"
        emit_csv(path, ["y", "x1", "x2"], rows)
        data = ingest_csv(path)
        assert np.array_equal(data.y, rows[:, 0])
        assert np.array_equal(data.X, rows[:, 1:])


class TestFit:
    def test_shapes_and_reproducibility(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, n=5, p=2)
        args = [
            "fit", "--model", "bfl", "--data", str(data_path),
            "--iters", "10", "--burnin", "0", "--seed", "3",
            "--out-dir", str(tmp_path / "out1"),
        ]
        assert main(args) == 0
        samples = (tmp_path / "out1" / "samples_0.csv").read_text().splitlines()
        header = samples[0].split(",")
        assert header == ["beta.1", "beta.2", "tau2.1", "tau2.2", "w2.1", "sigma2"]
        assert len(samples) == 11  # header + 10 kept rows
        args[-1] = str(tmp_path / "out2")
        assert main(args) == 0
        assert (tmp_path / "out1" / "samples_0.csv").read_bytes() == (
            tmp_path / "out2" / "samples_0.csv"
        ).read_bytes()

    def test_drift_json_phi_value(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, n=10, p=5, seed=1)
        out = tmp_path / "out"
        rc = main([
            "fit", "--model", "bfl", "--data", str(data_path), "--alpha", "1.0",
            "--iters", "20", "--burnin", "0", "--out-dir", str(out),
        ])
        assert rc == 0
        drift = json.loads((out / "drift.json").read_text())
        assert drift["phi"] == 0.5
        jsonschema.validate(drift, load_schema("drift.schema.json"))

    def test_summary_schema_and_chains(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, n=6, p=2, seed=2)
        out = tmp_path / "out"
        rc = main([
            "fit", "--model", "bgl", "--data", str(data_path), "--groups", "1,1",
            "--iters", "60", "--burnin", "10", "--chains", "2", "--out-dir", str(out),
        ])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, load_schema("summary.schema.json"))
        assert len(summary["chains"]) == 2
        assert summary["between_within"] is not None
        assert (out / "samples_1.csv").exists()

    def test_groups_required_for_group_models(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        rc = main([
            "fit", "--model", "bgl", "--data", str(data_path),
            "--iters", "10", "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_groups_rejected_for_fused_model(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        rc = main([
            "fit", "--model", "bfl", "--data", str(data_path), "--groups", "1,1",
            "--iters", "10", "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 1

    def test_concurrent_chains_match_serial(self, tmp_path, monkeypatch):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, n=6, p=2, seed=7)
        args = [
            "fit", "--model", "bfl", "--data", str(data_path),
            "--iters", "40", "--burnin", "0", "--seed", "4", "--chains", "2",
        ]
        assert main(args + ["--out-dir", str(tmp_path / "serial")]) == 0
        monkeypatch.setenv("PLG_THREADS", "2")
        assert main(args + ["--out-dir", str(tmp_path / "threads")]) == 0
        for idx in range(2):
            a = (tmp_path / "serial" / f"samples_{idx}.csv").read_bytes()
            b = (tmp_path / "threads" / f"samples_{idx}.csv").read_bytes()
            assert a == b

    def test_default_start_solved_once_per_fit(self, tmp_path, monkeypatch):
        from plgibbs import solvers

        calls = []
        for model in ("bfl", "bgl", "bsgl"):
            def counted(*args, _solve=getattr(solvers, f"default_start_{model}"), **kwargs):
                calls.append(1)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(solvers, f"default_start_{model}", counted)
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, n=6, p=2, seed=8)
        out = tmp_path / "out"
        assert main([
            "fit", "--model", "bfl", "--data", str(data_path), "--iters", "20", "--burnin", "0",
            "--chains", "2", "--init", "default", "--out-dir", str(out),
        ]) == 0
        assert len(calls) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert [c["config"]["config"]["init_mode"] for c in summary["chains"]] == ["default", "default"]

    @pytest.mark.parametrize("bad", [["--iters", "0"], ["--thin", "0"], ["--iters", "10", "--burnin", "10"]])
    def test_chain_settings_checked_before_the_solve(self, tmp_path, monkeypatch, bad):
        from plgibbs import solvers

        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solvers.fused_lasso_solve(*args, **kwargs)

        monkeypatch.setattr(solvers, "fused_lasso_solve", counted)
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        rc = main(["fit", "--model", "bfl", "--data", str(data_path), "--out-dir", str(tmp_path / "o")] + bad)
        assert rc == 1
        assert calls == []

    def test_wide_summary_validates_without_multivariate_ess(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, n=10, p=12, seed=6)
        out = tmp_path / "out"
        assert main([
            "fit", "--model", "bfl", "--data", str(data_path), "--iters", "100", "--burnin", "0",
            "--out-dir", str(out),
        ]) == 0
        summary = json.loads((out / "summary.json").read_text())
        jsonschema.validate(summary, load_schema("summary.schema.json"))
        assert summary["schema_version"] == "3"
        # 36 columns, 10 batches of 10
        assert summary["chains"][0]["multivariate"] == {"ess": None, "batch_size": 10}

    def test_zero_response_without_xi_exits_1(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        with open(data_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "x1", "x2"])
            for row in ([0.0, 1.0, 0.5], [0.0, -0.3, 2.0], [0.0, 0.7, -1.1]):
                writer.writerow(row)
        rc = main([
            "fit", "--model", "bfl", "--data", str(data_path), "--xi", "0", "--init", "zero",
            "--iters", "10", "--out-dir", str(tmp_path / "o"),
        ])
        assert rc == 1
        assert "sigma2 rate" in capsys.readouterr().err

    def test_init_file_roundtrip(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, n=6, p=2, seed=4)
        out = tmp_path / "out"
        assert main([
            "fit", "--model", "bfl", "--data", str(data_path),
            "--iters", "10", "--burnin", "0", "--out-dir", str(out),
        ]) == 0
        rc = main([
            "fit", "--model", "bfl", "--data", str(data_path),
            "--iters", "10", "--burnin", "0",
            "--init", f"file:{out / 'samples_0.csv'}",
            "--out-dir", str(tmp_path / "out_restart"),
        ])
        assert rc == 0


class TestHostileFit:
    @pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("model", ["bfl", "bgl", "bsgl"])
    def test_duplicated_columns_with_n_below_p(self, tmp_path, model, lam):
        # n = 3 < p = 5 and the last column repeats the first: either exit 0
        # with schema-valid outputs or exit 1
        rng = np.random.default_rng(17)
        x_mat = rng.standard_normal((3, 5))
        x_mat[:, 4] = x_mat[:, 0]
        y = x_mat[:, 0] - x_mat[:, 2] + 0.1 * rng.standard_normal(3)
        data_path = tmp_path / "d.csv"
        emit_csv(data_path, ["y"] + [f"x{j + 1}" for j in range(5)], np.column_stack([y, x_mat]))
        out = tmp_path / "out"
        args = ["fit", "--model", model, "--data", str(data_path), "--lambda1", str(lam), "--lambda2", str(lam),
                "--iters", "60", "--chains", "2", "--out-dir", str(out)]
        rc = main(args + ([] if model == "bfl" else ["--groups", "2,3"]))
        assert rc in (0, 1)
        if rc == 0:
            jsonschema.validate(json.loads((out / "summary.json").read_text()), load_schema("summary.schema.json"))
            jsonschema.validate(json.loads((out / "drift.json").read_text()), load_schema("drift.schema.json"))


def test_schemas_are_valid_and_carry_the_cli_version():
    paths = sorted(SCHEMA_DIR.glob("*.json"))
    assert [p.name for p in paths] == ["drift.schema.json", "summary.schema.json", "verify_report.schema.json"]
    for path in paths:
        schema = load_schema(path.name)
        jsonschema.Draft7Validator.check_schema(schema)
        assert schema["properties"]["schema_version"]["const"] == SCHEMA_VERSION


class TestDiagnose:
    def test_duplicated_chain_matches_itself_and_in_process(self, tmp_path):
        data_path = tmp_path / "d.csv"
        y, x_mat = write_dataset(data_path, n=8, p=2, seed=5)
        out = tmp_path / "out"
        assert main([
            "fit", "--model", "bfl", "--data", str(data_path),
            "--iters", "400", "--burnin", "0", "--seed", "9", "--out-dir", str(out),
        ]) == 0
        samples = out / "samples_0.csv"
        report_path = tmp_path / "diag.json"
        assert main(["diagnose", str(samples), str(samples), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, load_schema("summary.schema.json"))
        assert report["chains"][0]["parameters"] == report["chains"][1]["parameters"]

        # stored-chain MCSE equals the in-process computation
        data = ingest_csv(data_path)
        hyper = Hyperparameters(lambda1=1.0, lambda2=1.0, alpha=1.0, xi=1.0)
        chain = run_chain("bfl", data, hyper,
                          config=ChainConfig(n_iter=400, burn_in=0, seed=9))
        in_process = summarize(chain)
        stored_rows = {r["name"]: r for r in report["chains"][0]["parameters"]}
        for row in in_process.parameters:
            assert stored_rows[row["name"]]["mcse"] == pytest.approx(row["mcse"], rel=1e-12)


class TestVerifyCommand:
    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2

    def test_prior_suite_report(self, tmp_path):
        report_path = tmp_path / "report.json"
        rc = main(["verify", "--suite", "prior", "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, load_schema("verify_report.schema.json"))
        assert report["passed"]

    def test_drift_suite_exit_zero(self, tmp_path):
        rc = main(["verify", "--suite", "drift", "--out", str(tmp_path / "r.json")])
        assert rc == 0

    def test_all_suites_exit_zero(self, tmp_path):
        report_path = tmp_path / "all.json"
        rc = main(["verify", "--suite", "all", "--replicates", "2000",
                   "--out", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        jsonschema.validate(report, load_schema("verify_report.schema.json"))
        assert {s["name"] for s in report["suites"]} == {"geweke", "prior", "drift", "oracle"}


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2
