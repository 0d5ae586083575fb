import json

import numpy as np
import pytest

from wishartsv.cli import (
    build_parser,
    d0_from_presample,
    load_returns_csv,
    main,
    run_command,
)
from wishartsv.errors import DimensionMismatch, InvalidParameter, ParseError
from wishartsv.filtering import ReturnsSeries, simulate
from wishartsv.volproc import BBHyper, UEHyper, match_ue_to_bb


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
        for cell in ("inf", "nan", "-inf"):
            write_returns(p, [["2024-01-01", 0.1, 0.2], ["2024-01-02", 0.3, cell]])
            with pytest.raises(ParseError, match=rf"bad\.csv:3: column 3: non-finite value '{cell}'"):
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
        s1, p1 = simulate(ue, 12, seed=3)
        s2, p2 = simulate(ue, 12, seed=3)
        assert s1.T == 12 and p1.shape == (13, 2, 2)
        np.testing.assert_array_equal(s1.returns, s2.returns)
        np.testing.assert_array_equal(p1, p2)

    def test_bb_runs_and_paths_spd(self):
        bb = match_ue_to_bb(UEHyper(q=3, k=1, n=6, lam=0.85, d0=np.eye(3)))
        s, p = simulate(bb, 15, seed=4)
        assert s.q == 3
        for phi in p:
            assert np.all(np.linalg.eigvalsh(phi) > 0)

    def test_unknown_model(self):
        with pytest.raises(InvalidParameter):
            simulate(None, 3, seed=0)

    def test_overflow_is_reported(self):
        # unmatched BB: k_t -> 1/(1 - beta) = 5, so beta k_t -> 4 = q - 1 and
        # the Bartlett draws blow up; at t=39 a chi-square draw underflows to 0
        a = np.random.default_rng(5).standard_normal((5, 5))
        bb = BBHyper(q=5, k=1, beta=0.8, b=0.85, k0=20, d0=a @ a.T + np.eye(5))
        with pytest.raises(InvalidParameter, match="at t=35$"):
            simulate(bb, 40, seed=5)


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
        "command, config_text, error, message",
        [
            ("filter", '{"q": 2, "n": 5.0, "lambda": 0.8}', "InvalidParameter", "'data_csv'"),
            ("filter", None, "ParseError", "cannot read config"),
            ("filter", '{"q": 2, "n": 5.0,', "ParseError", "malformed JSON"),
            ("filter", "[1, 2]", "ParseError", "JSON object"),
            # wrongly typed values; DATA stands for a valid data_csv path
            ("filter", '{"q": "2", "n": 5.0, "lambda": 0.8, "data_csv": DATA}', "InvalidParameter", "'q'"),
            ("filter", '{"q": 2, "n": "5", "lambda": 0.8, "data_csv": DATA}', "InvalidParameter", "'n'"),
            ("filter", '{"q": 2, "n": 5.0, "lambda": 0.8, "d0": "eye", "data_csv": DATA}', "InvalidParameter", "'d0'"),
            ("smooth", '{"q": 2, "n": 5.0, "lambda": 0.8, "draws": 2.5, "data_csv": DATA}', "InvalidParameter", "'draws'"),
            ("smooth", '{"q": 2, "n": 5.0, "lambda": 0.8, "seed": "x", "data_csv": DATA}', "InvalidParameter", "'seed'"),
            ("smooth", '{"q": 2, "n": 5.0, "lambda": 0.8, "seed": -1, "data_csv": DATA}', "InvalidParameter", "'seed'"),
            ("smooth", '{"q": 2, "n": 5.0, "lambda": 0.8, "draw": 3, "data_csv": DATA}', "InvalidParameter", "'draw'"),
            # json reads NaN and Infinity as floats
            ("filter", '{"q": 2, "n": 5.0, "lambda": 0.8, "d0": [[NaN, 0], [0, 1]], "data_csv": DATA}',
             "InvalidParameter", "'d0'"),
            ("filter", '{"q": 2, "n": Infinity, "lambda": 0.8, "data_csv": DATA}', "InvalidParameter", "'n'"),
            ("simulate", '{"q": 2, "n": 5.0, "lambda": 0.8, "T": -5}', "InvalidParameter", "T must be >= 0"),
            # an empty grid is an error, not a request for the default grid
            ("grid-search", '{"q": 2, "n_grid": [], "data_csv": DATA}', "InvalidParameter", "nonempty"),
            ("grid-search", '{"q": 2, "lambda_grid": [], "data_csv": DATA}', "InvalidParameter", "nonempty"),
            # grid-search builds no hyperparameters, so the scale pass checks d0
            ("grid-search", '{"q": 2, "d0": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "data_csv": DATA}',
             "InvalidParameter", "d0 must be 2x2"),
            ("grid-search", '{"q": 2, "d0": [[1, 0.5], [0, 1]], "data_csv": DATA}',
             "NotPositiveDefinite", "not symmetric"),
            # rejected before any output is written
            ("filter", '{"q": 2, "n": 5.0, "lambda": 0.8, "model": "UE", "data_csv": DATA}', "InvalidParameter", "'model'"),
            ("smooth", '{"q": 2, "n": 5.0, "lambda": 0.8, "draws": 3, "quantiles": [], "data_csv": DATA}',
             "InvalidParameter", "quantiles"),
            ("compare-mixture", '{"q": 2, "n": 5.0, "lambda": 0.8, "draws": 20, "batches": 0, "data_csv": DATA}',
             "InvalidParameter", "kept draws"),
            ("compare-mixture", '{"q": 2, "n": 5.0, "lambda": 0.8, "draws": 20, "batches": 19, "data_csv": DATA}',
             "InvalidParameter", "kept draws"),
            # DATES stands for a CSV with only its timestamp column
            ("grid-search", '{"q": 0, "data_csv": DATES}', "DimensionMismatch", "q >= 1"),
            # D_0 is stated once: by d0, or by presample_csv with an optional ridge
            ("filter", '{"q": 2, "n": 5.0, "lambda": 0.8, "d0": [[1, 0], [0, 1]], "presample_csv": DATA, '
             '"data_csv": DATA}', "InvalidParameter", "'presample_csv'"),
            ("filter", '{"q": 2, "n": 5.0, "lambda": 0.8, "ridge": 0.1, "data_csv": DATA}', "InvalidParameter", "'ridge'"),
        ],
        ids=[
            "missing-key", "missing-config", "malformed-json", "not-an-object",
            "q-string", "n-string", "d0-string", "draws-float", "seed-string",
            "seed-negative", "unknown-key", "d0-nan", "n-infinity", "simulate-negative-T", "n-grid-empty", "lambda-grid-empty",
            "grid-d0-shape", "grid-d0-asymmetric",
            "model-unknown", "quantiles-empty", "batches-zero", "batches-above-kept",
            "q-zero", "d0-and-presample", "ridge-without-presample",
        ],
    )
    def test_bad_config_is_reported(self, returns_csv, tmp_path, capsys, command, config_text, error, message):
        cfg_path = tmp_path / "cfg.json"
        dates = tmp_path / "dates.csv"
        dates.write_text("t\n2024-01-01\n2024-01-02\n")
        if config_text is not None:
            config_text = config_text.replace("DATES", json.dumps(str(dates)))
            cfg_path.write_text(config_text.replace("DATA", json.dumps(str(returns_csv))))
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == error and message in record["message"]
        assert not list((tmp_path / "x").glob("*"))

    @pytest.mark.parametrize("command", ["filter", "grid-search"])
    def test_overflowing_returns_are_reported(self, tmp_path, capsys, command):
        # s_1 = |r_1|^2 = 2e400 overflows, although the log likelihood is finite
        data = tmp_path / "big.csv"
        write_returns(data, [["2024-01-01", 1e200, 1e200], ["2024-01-02", 1e200, -1e200]])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 5.0, "lambda": 0.9, "data_csv": str(data)}))
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "InvalidParameter" and "t=1" in record["message"]
        assert not list((tmp_path / "x").glob("*"))

    @pytest.mark.parametrize("command", ["smooth", "compare-plr", "compare-mixture"])
    def test_nonfinite_draws_are_reported(self, tmp_path, capsys, command):
        # a pegged rate: column 2 is all zeros, so D_t's second pivot is
        # lambda^t and G_T^{-1} overflows; every draw of Phi_T is infinite
        data = tmp_path / "peg.csv"
        r1 = np.random.default_rng(0).standard_normal(2840)
        write_returns(data, [[t, v, 0.0] for t, v in enumerate(r1.tolist())])
        cfg_path = tmp_path / "cfg.json"
        cfg = {"q": 2, "n": 5, "lambda": 0.6, "data_csv": str(data), "draws": 4, "burn_in": 2, "batches": 2}
        cfg_path.write_text(json.dumps(cfg))
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "InvalidParameter" and "t=2840" in record["message"]

    @pytest.mark.parametrize("command", ["smooth", "compare-plr"])
    def test_huge_scale_runs_clean(self, tmp_path, capsys, command):
        # G_t and F_t near 1e160: finite, although their squares overflow
        data = tmp_path / "big.csv"
        rows = np.random.default_rng(1).standard_normal((50, 2)) * 1e160
        write_returns(data, [[t, *row] for t, row in enumerate(rows.tolist())])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 5, "lambda": 0.9, "d0": [[1e300, 0], [0, 1e300]],
                                        "data_csv": str(data), "draws": 5}))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().err == ""

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
