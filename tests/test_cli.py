import json

import numpy as np
import pytest

from wishartsv.cli import (
    build_parser,
    d0_from_presample,
    load_returns_csv,
    main,
    run_command,
    simulate,
)
from wishartsv.errors import DimensionMismatch, InvalidParameter, ParseError
from wishartsv.filtering import ReturnsSeries
from wishartsv.volproc import UEHyper, match_ue_to_bb


def write_returns(path, rows, header=("date", "r1", "r2")):
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def returns_csv(tmp_path):
    path = tmp_path / "returns.csv"
    rng = np.random.default_rng(0)
    rows = [
        [f"2024-01-{d + 1:02d}", *np.round(rng.standard_normal(2), 6)] for d in range(30)
    ]
    write_returns(path, rows)
    return path


class TestLoadReturnsCsv:
    def test_roundtrip(self, returns_csv):
        s = load_returns_csv(returns_csv, 2)
        assert s.T == 30 and s.q == 2
        assert s.timestamps[0] == "2024-01-01"

    def test_wrong_column_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_returns(p, [["2024-01-01", 0.1, 0.2]])
        with pytest.raises(DimensionMismatch):
            load_returns_csv(p, 3)

    def test_bad_cell_reports_location(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_returns(p, [["2024-01-01", 0.1, "oops"]])
        with pytest.raises(ParseError, match=r"bad\.csv:2: column 3"):
            load_returns_csv(p, 2)

    def test_ragged_row(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("date,r1,r2\n2024-01-01,0.1\n")
        with pytest.raises(ParseError, match=":2:"):
            load_returns_csv(p, 2)

    def test_empty_and_headerless(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_returns_csv(p, 2)
        p.write_text("date,r1,r2\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_returns_csv(p, 2)

    def test_nonfinite_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_returns(p, [["2024-01-01", "inf", 0.2]])
        with pytest.raises(ParseError):
            load_returns_csv(p, 2)


class TestD0FromPresample:
    def test_average_outer_product(self):
        r = np.array([[1.0, 0.0], [0.0, 2.0]])
        d0, warning = d0_from_presample(ReturnsSeries(r))
        np.testing.assert_allclose(d0, np.diag([0.5, 2.0]))
        assert warning is None

    def test_singular_gets_ridge(self):
        r = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1
        d0, warning = d0_from_presample(ReturnsSeries(r))
        assert warning is not None and "ridge" in warning
        assert np.all(np.linalg.eigvalsh(d0) > 0)

    def test_negative_ridge(self):
        with pytest.raises(InvalidParameter):
            d0_from_presample(ReturnsSeries(np.ones((2, 1))), ridge=-1.0)


class TestSimulate:
    def test_shapes_and_determinism(self):
        ue = UEHyper(q=2, k=1, n=5, lam=0.8, d0=np.eye(2))
        s1, p1 = simulate("ue", ue, 12, seed=3)
        s2, p2 = simulate("ue", ue, 12, seed=3)
        assert s1.T == 12 and p1.shape == (13, 2, 2)
        np.testing.assert_array_equal(s1.returns, s2.returns)
        np.testing.assert_array_equal(p1, p2)

    def test_bb_runs_and_paths_spd(self):
        bb = match_ue_to_bb(UEHyper(q=3, k=1, n=6, lam=0.85, d0=np.eye(3)))
        s, p = simulate("bb", bb, 15, seed=4)
        assert s.q == 3
        for phi in p:
            assert np.all(np.linalg.eigvalsh(phi) > 0)

    def test_unknown_model(self):
        with pytest.raises(InvalidParameter):
            simulate("xx", None, 3, seed=0)


class TestCommands:
    def base_cfg(self, returns_csv, tmp_path, **extra):
        cfg = {
            "q": 2,
            "n": 5.0,
            "lambda": 0.8,
            "seed": 0,
            "data_csv": str(returns_csv),
            "out": str(tmp_path / "out"),
        }
        cfg.update(extra)
        return cfg

    def test_filter_matched_outputs(self, returns_csv, tmp_path):
        cfg = self.base_cfg(returns_csv, tmp_path)
        summary = run_command("filter", cfg)
        out = tmp_path / "out"
        assert (out / "filtered_ue.csv").exists()
        assert (out / "filtered_bb.csv").exists()
        assert summary["models"]["ue"]["loglik"] == pytest.approx(
            summary["models"]["bb"]["loglik"], rel=1e-12
        )
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["seed"] == 0 and "version" in meta
        results = json.loads((out / "results.json").read_text())
        assert results["command"] == "filter"

    def test_grid_search(self, returns_csv, tmp_path):
        cfg = self.base_cfg(
            returns_csv, tmp_path, n_grid=[4, 6], lambda_grid=[0.7, 0.8, 0.9]
        )
        summary = run_command("grid-search", cfg)
        assert summary["n_star"] in (4.0, 6.0)
        assert summary["lambda_star"] in (0.7, 0.8, 0.9)
        lines = (tmp_path / "out" / "surface.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 6

    def test_smooth(self, returns_csv, tmp_path):
        cfg = self.base_cfg(returns_csv, tmp_path, draws=8)
        summary = run_command("smooth", cfg)
        assert (tmp_path / "out" / "correlations_ue.csv").exists()
        assert (tmp_path / "out" / "correlations_bb.csv").exists()
        assert summary["models"]["ue"]["draws"] == 8

    def test_compare_plr(self, returns_csv, tmp_path):
        cfg = self.base_cfg(returns_csv, tmp_path, draws=10)
        summary = run_command("compare-plr", cfg)
        assert np.isfinite(summary["log_plr"])

    def test_compare_mixture(self, returns_csv, tmp_path):
        cfg = self.base_cfg(returns_csv, tmp_path, draws=60, burn_in=10, batches=5)
        summary = run_command("compare-mixture", cfg)
        assert 0.0 <= summary["alpha_mean"] <= 1.0
        assert summary["alpha_se"] >= 0.0
        assert 0.0 <= summary["p_alpha_below_half"] <= 1.0

    def test_ppc(self, returns_csv, tmp_path):
        cfg = self.base_cfg(returns_csv, tmp_path)
        summary = run_command("ppc", cfg)
        assert 0.0 <= summary["models"]["ue"]["terminal_coverage"] <= 1.0
        assert summary["models"]["ue"]["terminal_coverage"] == pytest.approx(
            summary["models"]["bb"]["terminal_coverage"], rel=1e-12
        )

    def test_simulate_command(self, tmp_path):
        cfg = {
            "q": 2,
            "n": 5.0,
            "lambda": 0.8,
            "T": 20,
            "seed": 1,
            "model": "ue",
            "out": str(tmp_path / "sim"),
        }
        summary = run_command("simulate", cfg)
        assert summary["T"] == 20
        lines = (tmp_path / "sim" / "returns.csv").read_text().strip().splitlines()
        assert len(lines) == 21


class TestMain:
    def test_cli_end_to_end(self, returns_csv, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"q": 2, "n": 5.0, "lambda": 0.8, "data_csv": str(returns_csv)}
            )
        )
        rc = main(
            [
                "filter",
                "--config",
                str(cfg_path),
                "--seed",
                "7",
                "--model",
                "matched",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert rc == 0
        meta = json.loads((tmp_path / "run" / "meta.json").read_text())
        assert meta["config"]["seed"] == 7

    def test_error_exit_code_and_record(self, returns_csv, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        for cfg in (
            {"data_csv": missing},
            {"data_csv": str(returns_csv), "presample_csv": missing},
        ):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"q": 2, "n": 5.0, "lambda": 0.8, **cfg}))
            rc = main(["filter", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            record = json.loads(err)
            assert record["error"] == "ParseError" and missing in record["message"]

    def test_simulate_rejects_matched(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 5.0, "lambda": 0.8, "T": 5}))
        rc = main(["simulate", "--config", str(cfg_path), "--model", "matched", "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "InvalidParameter" and "matched" in record["message"]

    @pytest.mark.parametrize(
        "config_text, error, message",
        [
            ('{"q": 2, "n": 5.0, "lambda": 0.8}', "InvalidParameter", "'data_csv'"),
            (None, "ParseError", "cannot read config"),
            ('{"q": 2, "n": 5.0,', "ParseError", "malformed JSON"),
            ("[1, 2]", "ParseError", "JSON object"),
        ],
        ids=["missing-key", "missing-config", "malformed-json", "not-an-object"],
    )
    def test_bad_config_is_reported(self, tmp_path, capsys, config_text, error, message):
        cfg_path = tmp_path / "cfg.json"
        if config_text is not None:
            cfg_path.write_text(config_text)
        rc = main(["filter", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == error and message in record["message"]

    def test_parse_error_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,r1,r2\n2024-01-01,x,1\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"q": 2, "n": 5.0, "lambda": 0.8, "data_csv": str(bad)})
        )
        rc = main(["filter", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParseError"

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        for name in (
            "simulate",
            "filter",
            "grid-search",
            "smooth",
            "compare-plr",
            "compare-mixture",
            "ppc",
        ):
            args = parser.parse_args([name, "--seed", "0"])
            assert args.command == name
