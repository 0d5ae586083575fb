import csv
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from consistency import row_table
from wishartsv import cli, compare, filtering, smoother
from wishartsv.cli import (
    _read_rows,
    _read_text,
    build_parser,
    d0_from_presample,
    load_returns_csv,
    main,
    run_command,
)
from wishartsv.errors import DimensionMismatch, InvalidParameter, ParseError, WishartSVError
from wishartsv.filtering import ReturnsSeries, _df_path, forward_filter, simulate
from wishartsv.matops import gram
from wishartsv.randsamp import substream
from wishartsv.smoother import backward_sample
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
        rows = list(csv.reader(returns_csv.read_text().splitlines()))[1:]
        np.testing.assert_array_equal(s.returns, [[float(c) for c in row[1:]] for row in rows])
        assert s.returns.flags.c_contiguous

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

    def test_line_after_a_multiline_field(self, tmp_path):
        # the quoted timestamp holds a newline, so the bad cell is on line 4, the third record
        p = tmp_path / "ml.csv"
        p.write_text('date,r1,r2\n"2001-01-01\nx",0.1,0.2\n2001-01-02,abc,0.4\n')
        with pytest.raises(ParseError, match=r"ml\.csv:4: column 2: not a number: 'abc'"):
            load_returns_csv(p, 2)
        p.write_text('date,r1,r2\n"2001-01-01\nx",0.1,0.2\n2001-01-02,0.4\n')
        with pytest.raises(ParseError, match=r"ml\.csv:4: expected 3 fields, got 2"):
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


    @pytest.mark.parametrize(
        "body, expect",
        [
            ("2001-01-01,0.5, 1.5 \n", [[0.5, 1.5]]),
            ("2001-01-01,0.5,1_0\n", [[0.5, 10.0]]),
            ("2001-01-01,0.5,\u0661.\u0665\n", [[0.5, 1.5]]),  # Arabic-Indic digits
            ('2001-01-01,"0.5",1.5\n', [[0.5, 1.5]]),
            ("2001-01-01,0.5,1e400\n", "r.csv:2: column 3: non-finite value '1e400'"),
            ("2001-01-01,0.5,0x10\n", "r.csv:2: column 3: not a number: '0x10'"),
            ("2001-01-01,0.5,1.5,\n", "r.csv:2: expected 3 fields, got 4"),
            ("2001-01-01,0.5,1.5\n\n2001-01-02,0.25,2.5\n", "r.csv:3: expected 3 fields, got 0"),
            ("2001-01-01,0.5,1.5 # note\n", "r.csv:2: column 3: not a number: '1.5 # note'"),
            ("# note\n2001-01-01,0.5,1.5\n", "r.csv:2: expected 3 fields, got 1"),
        ],
        ids=["spaces", "underscore", "arabic-indic", "quoted", "overflow", "hex", "trailing-comma",
             "blank-line", "comment", "comment-line"],
    )
    def test_accept_set(self, tmp_path, body, expect):
        # Python's float is the one number parser, and every line has q + 1 fields
        p = tmp_path / "r.csv"
        p.write_text("date,r1,r2\n" + body, encoding="utf-8")
        if isinstance(expect, str):
            with pytest.raises(ParseError) as err:
                load_returns_csv(p, 2)
            assert str(err.value) == f"{tmp_path}/{expect}"
        else:
            returns = load_returns_csv(p, 2).returns
            assert returns.flags.c_contiguous
            np.testing.assert_array_equal(returns, expect)

    def test_first_fault_in_file_order(self, tmp_path):
        # a bad cell is named before a bad count on a later line, and the other way round
        p = tmp_path / "r.csv"
        p.write_text("date,r1,r2\n2001-01-01,0.5,0.25\n2001-01-02,0.5,x\n2001-01-03,0.5\n")
        with pytest.raises(ParseError, match=r"r\.csv:3: column 3: not a number: 'x'$"):
            load_returns_csv(p, 2)
        p.write_text("date,r1,r2\n2001-01-01,0.5\n2001-01-02,0.5,x\n")
        with pytest.raises(ParseError, match=r"r\.csv:2: expected 3 fields, got 2$"):
            load_returns_csv(p, 2)

    def test_csv_error_is_a_parse_error(self, tmp_path, capsys):
        # an unterminated quote runs its field past the csv module's field limit
        p = tmp_path / "r.csv"
        p.write_text('date,r1\n"2001-01-01,1.0\n' + "".join(f"2001-01-{i},0.5\n" for i in range(20000)))
        with pytest.raises(ParseError, match=r"r\.csv:\d+: field larger than field limit"):
            load_returns_csv(p, 1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 1, "n_grid": [5.0], "lambda_grid": [0.9], "d0": [[1.0]],
                                        "data_csv": str(p)}))
        assert main(["grid-search", "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ParseError" and "field larger than field limit" in record["message"]


# every character the csv module or float treats specially, and some it does not
FUZZ_ALPHABET = ',\n\r" \0\x0c\x85\u2028_.-+e0123456789abfinx'


@st.composite
def near_valid_tables(draw):
    """(q, text): a returns table of floats with LF or CRLF rows, then 0-3 characters inserted, replaced or cut.

    Timestamps are dates, quoted dates or numbers; with numbers, a comma moved
    from one line to another leaves every field a number.  Half the characters
    put in are a comma, a newline or a quote, which move field boundaries.
    """
    q, T = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=q * T, max_size=q * T))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    stamp = draw(st.sampled_from(["2001-01-{:02d}", '"2001-01-{:02d}"', "{}"]))
    lines = ["date," + ",".join(f"r{i + 1}" for i in range(q))]
    lines += [stamp.format(t + 1) + "," + ",".join(map(repr, cells[t * q:(t + 1) * q])) for t in range(T)]
    text = eol.join(lines) + eol
    for _ in range(draw(st.integers(0, 3))):
        at, cut = draw(st.integers(0, len(text))), draw(st.integers(0, 1))
        char = draw(st.one_of(st.sampled_from(',\n"'), st.sampled_from([*FUZZ_ALPHABET, ""])))
        text = text[:at] + char + text[at + cut:]
    return q, text


def _bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", Path(__file__).parents[1] / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTwoReaders:
    """``load_returns_csv`` splits unquoted text in one pass and leaves all else to the row-by-row ``_read_rows``."""

    @staticmethod
    def outcome(read):
        try:
            returns = read().returns
        except WishartSVError as exc:
            return type(exc), str(exc)
        return returns.shape, returns.tobytes()

    @settings(max_examples=600, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.one_of(st.tuples(st.integers(1, 3), st.text(FUZZ_ALPHABET, max_size=60)), near_valid_tables()),
           limit=st.sampled_from([None, 4, 16]))
    @example(case=(2, "date,r1,r2\n1,0.5,0.25,2\n3,0.125\n"), limit=None)  # a comma moved to the next line
    @example(case=(1, 'date,r1\n"x,1\n2",3\n'), limit=None)  # split, the quoted field reads as two numbers
    @example(case=(1, "date,r1\n2001-01-01,1\n"), limit=4)  # a field past the limit, no quote
    def test_same_values_or_same_error_as_row_by_row(self, tmp_path, case, limit):
        # a small field limit puts some lines past it, so the line-length guard is exercised too
        (q, text), p = case, tmp_path / "r.csv"
        p.write_text(text, encoding="utf-8", newline="")
        default = csv.field_size_limit()
        try:
            csv.field_size_limit(limit or default)
            fast = self.outcome(lambda: load_returns_csv(p, q))
            slow = self.outcome(lambda: _read_rows(p, _read_text(p, "returns"), q))
        finally:
            csv.field_size_limit(default)
        assert fast == slow

    def test_unquoted_field_past_the_size_limit(self, tmp_path):
        # one split of this line has no field limit; csv.reader's is the one the reader keeps
        p = tmp_path / "r.csv"
        p.write_text("date,r1\n" + "2" * (csv.field_size_limit() + 5) + ",0.5\n2001-01-02,0.25\n")
        with pytest.raises(ParseError) as err:
            load_returns_csv(p, 1)
        assert str(err.value) == f"{p}:2: field larger than field limit (131072)"

    def test_unquoted_crlf_files_never_reach_csv_reader(self, tmp_path, monkeypatch):
        returns = np.random.default_rng(5).standard_normal((40, 3)) * 0.01
        _bench_inputs().write_returns_csv(tmp_path / "bench.csv", returns)
        cli._write_text(tmp_path / "table.csv", cli._table_text(["t", "r1", "r2", "r3"], np.arange(40), *returns.T))
        quoted = tmp_path / "quoted.csv"
        with quoted.open("w", newline="") as fh:
            rows = [[f"day {t}", *map(repr, row)] for t, row in enumerate(returns.tolist())]
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows([["date", "r1", "r2", "r3"], *rows])

        def no_reader(*args, **kwargs):
            raise AssertionError("csv.reader ran")

        monkeypatch.setattr(cli.csv, "reader", no_reader)
        for name in ("bench.csv", "table.csv"):
            assert (tmp_path / name).read_bytes().count(b"\r\n") == 41
            assert load_returns_csv(tmp_path / name, 3).returns.tobytes() == returns.tobytes()
        with pytest.raises(AssertionError, match="csv.reader ran"):
            load_returns_csv(quoted, 3)
        monkeypatch.undo()
        assert load_returns_csv(quoted, 3).returns.tobytes() == returns.tobytes()


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

    @pytest.mark.parametrize("ridge", [np.nan, np.inf])
    def test_nonfinite_ridge(self, ridge):
        # a NaN ridge was dropped without a word, an infinite one reported as a singular average
        with pytest.raises(InvalidParameter, match="ridge must be finite"):
            d0_from_presample(ReturnsSeries(np.eye(2)), ridge=ridge)


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

    def test_matched_models_give_the_same_returns(self):
        # under matching the returns have one law, and simulate draws them
        # through the same steps, so no statistic of the data can tell
        # which model generated them
        ue = UEHyper(q=3, k=1, n=8.0, lam=0.9, d0=np.eye(3))
        s_ue, _ = simulate(ue, 200, seed=5)
        s_bb, _ = simulate(match_ue_to_bb(ue), 200, seed=5)
        assert s_ue.returns.tobytes() == s_bb.returns.tobytes()

    @pytest.mark.parametrize(
        "hyper",
        [
            UEHyper(q=2, k=1, n=5.0, lam=0.8, d0=np.eye(2)),
            match_ue_to_bb(UEHyper(q=2, k=1, n=5.0, lam=0.8, d0=np.eye(2))),
            BBHyper(q=2, k=1, beta=0.8, b=0.85, k0=12.0, d0=np.eye(2)),
        ],
        ids=["ue", "bb", "bb-unmatched"],
    )
    def test_true_path_is_a_smoothed_draw(self, hyper):
        # p(r) p(Phi | r) is the model's joint law: the path is one draw
        # of the model's own backward sampler given the simulated returns
        series, phis = simulate(hyper, 30, seed=7)
        f = backward_sample(forward_filter(series, hyper), substream(7, 1))
        np.testing.assert_array_equal(phis, gram(f))

    def test_matched_models_give_different_true_paths(self, tmp_path):
        # one law of the returns, two smoothed laws of the path: the
        # command writes the same returns.csv and different true paths
        cfg = {"q": 3, "n": 8.0, "lambda": 0.9, "T": 200, "seed": 5}
        out = {}
        for model in ("ue", "bb"):
            run_command("simulate", {**cfg, "model": model, "out": str(tmp_path / model)})
            out[model] = [(tmp_path / model / name).read_bytes() for name in ("returns.csv", "true_path.csv")]
        assert out["ue"][0] == out["bb"][0]
        assert out["ue"][1] != out["bb"][1]
        ue, bb = (np.loadtxt(tmp_path / m / "true_path.csv", delimiter=",", skiprows=1)[:, 1:] for m in ("ue", "bb"))
        # the matched filters agree, so Phi_T, drawn from the filtered
        # posterior with the same noise, is the same; every earlier Phi_t differs
        np.testing.assert_array_equal(ue[-1], bb[-1])
        assert (ue[:-1] != bb[:-1]).any(axis=1).all()

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

    @pytest.mark.parametrize("command, prefix", [("filter", "filtered"), ("smooth", "correlations"), ("ppc", "ppc")])
    @pytest.mark.parametrize("model", ["ue", "bb"])
    def test_single_model_matches_matched_run(self, returns_csv, tmp_path, command, prefix, model):
        # one model's run writes only its own table, the same bytes as in the matched run
        matched = self.base_cfg(returns_csv, tmp_path, draws=6, out=str(tmp_path / "matched"))
        run_command(command, matched)
        single = self.base_cfg(returns_csv, tmp_path, draws=6, model=model, out=str(tmp_path / model))
        summary = run_command(command, single)
        name = f"{prefix}_{model}.csv"
        assert sorted(p.name for p in (tmp_path / model).glob("*.csv")) == [name]
        assert (tmp_path / model / name).read_bytes() == (tmp_path / "matched" / name).read_bytes()
        results = json.loads((tmp_path / model / "results.json").read_text())
        assert list(summary["models"]) == list(results["models"]) == [model]

    @pytest.mark.parametrize("n", [10, 6.0])
    def test_matched_filter_tables_are_identical(self, returns_csv, tmp_path, n):
        # under matching beta k_{t-1} = n and k_t = n + 1 exactly, and k_t is a float under both models
        out = tmp_path / "out"
        for command, prefix in (("filter", "filtered"), ("ppc", "ppc")):
            run_command(command, self.base_cfg(returns_csv, tmp_path, n=n))
            assert (out / f"{prefix}_ue.csv").read_bytes() == (out / f"{prefix}_bb.csv").read_bytes()

    @pytest.mark.parametrize("command, prefix", [("filter", "filtered"), ("ppc", "ppc")])
    def test_matched_tables_on_df_paths_an_ulp_apart(self, returns_csv, tmp_path, command, prefix):
        # at q = 2, n = 3.32 matching leaves BB's prior df beta k_{t-1} one ulp off n: each model writes its own table
        ue = UEHyper(q=2, k=1, n=3.32, lam=0.8, d0=np.eye(2))
        df_ue, df_bb = _df_path(ue, 30)[2], _df_path(match_ue_to_bb(ue), 30)[2]
        assert not np.array_equal(df_ue, df_bb) and np.abs(df_ue - df_bb).max() <= np.spacing(3.32)
        run_command(command, self.base_cfg(returns_csv, tmp_path, n=3.32))
        run_command(command, self.base_cfg(returns_csv, tmp_path, n=3.32, model="bb", out=str(tmp_path / "bb")))
        matched = (tmp_path / "out" / f"{prefix}_bb.csv").read_bytes()
        assert matched != (tmp_path / "out" / f"{prefix}_ue.csv").read_bytes()
        assert matched == (tmp_path / "bb" / f"{prefix}_bb.csv").read_bytes()

    @pytest.mark.parametrize("command, n, calls", [
        # t, k_t and the three distinct d_ij of a symmetric D_t, shared by both tables, and
        # log_forecast, shared too; an ulp off n, each model's log_forecast is its own
        ("filter", 5.0, 6), ("filter", 3.32, 7),
        # t, two lengths and the coverage; an ulp off n, BB's lengths are its own
        ("ppc", 5.0, 4), ("ppc", 3.32, 6),
        # t, i and j, shared, and each model's three quantile columns
        ("smooth", 5.0, 9), ("smooth", 3.32, 9),
    ])
    def test_matched_pair_formats_a_coinciding_table_once(self, returns_csv, tmp_path, monkeypatch, command, n, calls):
        # a run's tables share one column cache: a column both models write is formatted once
        count = TestTableText.count_formats(monkeypatch)
        run_command(command, self.base_cfg(returns_csv, tmp_path, n=n, draws=4))
        assert len(count) == calls

    @pytest.mark.parametrize("command", ["filter", "ppc", "smooth"])
    def test_no_column_cache_outlives_a_run(self, returns_csv, tmp_path, monkeypatch, command):
        # a second identical run formats every column again and writes the same bytes
        count = TestTableText.count_formats(monkeypatch)
        cfg = self.base_cfg(returns_csv, tmp_path, draws=4)
        formats, tables = [], []
        for _ in range(2):
            run_command(command, cfg)
            formats.append(len(count) - sum(formats))
            tables.append({p.name: p.read_bytes() for p in (tmp_path / "out").glob("*.csv")})
        assert formats[0] == formats[1] > 0
        assert len(tables[0]) == 2 and tables[0] == tables[1]

    @pytest.mark.parametrize("command, model, calls", [
        *[(c, "matched", 1) for c in ("filter", "ppc", "smooth", "compare-plr")],
        *[(c, m, 1) for c in ("filter", "ppc", "smooth") for m in ("ue", "bb")],
        ("grid-search", "matched", 3),  # one per lambda
        ("simulate", "bb", 1),
        ("compare-mixture", "matched", 11),  # one filter for the matched pair, then two per later sweep
    ])
    def test_scale_recursion_runs_once_per_filter(self, returns_csv, tmp_path, monkeypatch, command, model, calls):
        # a matched pair shares UE's factor path; grid-search keeps only its
        # pivots, and runs no full factor path on finite data; a mixture sweep
        # calls _factor_path by compare's own name for it
        extra = {"grid-search": {"n_grid": [4, 6], "lambda_grid": [0.7, 0.8, 0.9]}, "simulate": {"T": 20},
                 "compare-mixture": {"draws": 6, "burn_in": 2, "batches": 2}}.get(command, {"draws": 4})
        counts = {"_factor_path": [], "_givens_pivots": []}
        for module, name in ((filtering, "_factor_path"), (compare, "_factor_path"), (filtering, "_givens_pivots")):
            run, count = getattr(module, name), counts[name]
            monkeypatch.setattr(module, name, lambda *args, run=run, count=count: count.append(1) or run(*args))
        run_command(command, self.base_cfg(returns_csv, tmp_path, model=model, **extra))
        pivots = calls if command == "grid-search" else 0
        assert (len(counts["_factor_path"]), len(counts["_givens_pivots"])) == (calls - pivots, pivots)

    @pytest.mark.parametrize("ridge", [None, 0.01])
    def test_d0_from_presample(self, returns_csv, tmp_path, ridge):
        # D_0 = (1/T0) sum r r' + ridge tr/q I is the filter's t = 0 table row
        pre = np.random.default_rng(2).standard_normal((7, 2))
        pre_csv = tmp_path / "pre.csv"
        write_returns(pre_csv, [[f"2023-12-{d + 1:02d}", *row] for d, row in enumerate(pre.tolist())])
        extra = {} if ridge is None else {"ridge": ridge}
        run_command("filter", self.base_cfg(returns_csv, tmp_path, presample_csv=str(pre_csv), **extra))
        expected = pre.T @ pre / len(pre)
        expected += (ridge or 0.0) * np.trace(expected) / 2 * np.eye(2)
        with (tmp_path / "out" / "filtered_ue.csv").open() as fh:
            row0 = list(csv.DictReader(fh))[0]
        d0 = np.array([[float(row0[f"d_{i}{j}"]) for j in (1, 2)] for i in (1, 2)])
        assert row0["t"] == "0"
        np.testing.assert_allclose(d0, expected, rtol=1e-12)

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


class TestTableText:
    # the column-wise table text against the row-by-row writer in consistency.py, byte for byte
    EDGE = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e16, 1e-5, 11.0, 0.1, 1.7976931348623157e308]

    @staticmethod
    def check(tmp_path, header, *columns):
        row_table(tmp_path / "rows.csv", header, *columns)
        cli._write_text(tmp_path / "cols.csv", cli._table_text(header, *columns))
        assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_edge_values(self, tmp_path):
        x = np.array(self.EDGE)
        ints = np.array([0, -1, 2**62, -(2**63), 7, 11, 3, 5, 9, 1, 2, 4])
        # a list column led by an empty field, and Python int, float and mixed list columns
        self.check(tmp_path, ["i", "x", "e", "pi", "pf", "mix"], ints, x, [""] + self.EDGE[1:],
                   list(range(-5, 7)), self.EDGE[::-1], [3, 0.6, 20, 0.99] * 3)

    def test_random_doubles_and_strided_views(self, tmp_path):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((40, 3, 3)) * 10.0 ** rng.integers(-300, 300, (40, 3, 3))
        self.check(tmp_path, [f"d{k}" for k in range(9)], *d.reshape(-1, 9).T)
        self.check(tmp_path, ["a", "b"], d[::-2, 0, 1], d[::2, :, 2].T[1])

    def test_zero_rows(self, tmp_path):
        # simulate at T = 0 writes only a header
        self.check(tmp_path, ["t", "r1", "r2"], np.arange(1, 1), *np.zeros((0, 2)).T)
        self.check(tmp_path, ["t", "f"], np.arange(0), [])

    def test_unequal_columns_raise(self):
        with pytest.raises(ValueError):
            cli._table_text(["a", "b"], np.arange(3), [""] + [1.0, 2.0, 3.0])

    @staticmethod
    def count_formats(monkeypatch):
        formatted, fields = [], cli._fields
        monkeypatch.setattr(cli, "_fields", lambda c: formatted.append(c.copy()) or fields(c))
        return formatted

    def test_mirrored_columns_differing_in_the_last_bit_are_formatted_apart(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        g = np.triu(rng.standard_normal((40, 5, 5)))
        d = g @ np.swapaxes(g, 1, 2)
        d = (d + np.swapaxes(d, 1, 2)) / 2  # bitwise symmetric: 15 distinct columns
        d[7, 1, 3] = np.nextafter(d[7, 3, 1], np.inf)
        d[:, 4, 0] = np.nextafter(d[:, 0, 4], -np.inf)
        formatted = self.count_formats(monkeypatch)
        self.check(tmp_path, cli._flat_header("d", 5), *d.reshape(-1, 25).T)
        assert len(formatted) == 17
        for col in (d[:, 1, 3], d[:, 3, 1], d[:, 0, 4], d[:, 4, 0]):
            assert sum(f.tobytes() == col.tobytes() for f in formatted) == 1
        fields = [line.split(",") for line in (tmp_path / "cols.csv").read_text().splitlines()[1:]]
        assert fields[7][8] != fields[7][16] and fields[7][4] != fields[7][20]

    def test_equal_bytes_of_another_dtype_are_formatted_apart(self, tmp_path, monkeypatch):
        # int64 and float64 zeros have the same bytes but print as 0 and 0.0
        x = np.arange(4.0)
        formatted = self.count_formats(monkeypatch)
        self.check(tmp_path, ["i", "f", "x", "y", "v"], np.zeros(4, int), np.zeros(4), x, x.copy(), x[::-1][::-1])
        assert [f.dtype.kind for f in formatted] == ["i", "f", "f"]


class TestWriteText:
    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        # a shorter rewrite cuts the old tail; an equal or longer one needs no cut
        path = tmp_path / "t.csv"
        cli._write_text(path, "t,x\r\n0,1.25\r\n1,-0.5\r\n")
        for text in ("t,x\r\n0,1\r\n", "t,y\r\n0,2\r\n", "t,x\r\n0,1.5e-300\r\n1,\u00b5\r\n"):
            cli._write_text(path, text)
            assert path.read_bytes() == text.encode()

    def test_long_file_rewritten_short_holds_the_new_bytes_in_the_same_inode(self, tmp_path):
        path = tmp_path / "t.csv"
        cli._write_text(path, "x" * 10_000 + "\r\n")
        inode = path.stat().st_ino
        cli._write_text(path, "a,b\r\n1,2\r\n")
        assert path.read_bytes() == b"a,b\r\n1,2\r\n"
        assert path.stat().st_ino == inode

    def test_no_write_opens_with_o_trunc(self, tmp_path, returns_csv, monkeypatch):
        flags, os_open = [], os.open
        monkeypatch.setattr(os, "open", lambda path, flag, *args: flags.append(flag) or os_open(path, flag, *args))
        cfg = {"q": 2, "n": 5.0, "lambda": 0.8, "data_csv": str(returns_csv), "out": str(tmp_path / "out")}
        for _ in range(2):  # a first write and an overwrite
            run_command("filter", cfg)
        assert len(flags) == 8  # filtered_ue.csv, filtered_bb.csv, results.json, meta.json, twice
        assert not any(f & os.O_TRUNC for f in flags)

    def test_output_symlinked_to_devnull_is_written(self, tmp_path):
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps({"model": "ue", "q": 2, "T": 5, "n": 5.0, "lambda": 0.9}))
        out = tmp_path / "d"
        out.mkdir()
        (out / "true_path.csv").symlink_to(os.devnull)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "true_path.csv").is_symlink()
        assert len((out / "returns.csv").read_text().splitlines()) == 6

    def test_rerun_with_a_smaller_grid_equals_a_fresh_run(self, returns_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))  # meta.json's wall time
        names = ("surface.csv", "results.json", "meta.json")
        out = tmp_path / "out"
        cfg = {"q": 2, "data_csv": str(returns_csv), "out": str(out)}
        # long grid values, so that every file, results.json's (n*, lambda*) included, is longer than the rerun's
        run_command("grid-search", {**cfg, "n_grid": [3.125, 4.0625, 5.03125, 6.015625],
                                    "lambda_grid": [0.6015625, 0.70703125, 0.80078125, 0.900390625]})
        first = [(out / name).stat().st_size for name in names]
        run_command("grid-search", {**cfg, "n_grid": [4, 6], "lambda_grid": [0.7, 0.8]})
        rerun = [(out / name).read_bytes() for name in names]
        assert all(len(new) < old for new, old in zip(rerun, first))
        for name in names:
            (out / name).unlink()
        run_command("grid-search", {**cfg, "n_grid": [4, 6], "lambda_grid": [0.7, 0.8]})
        assert rerun == [(out / name).read_bytes() for name in names]


class TestMain:
    def test_run_command_checks_config(self, returns_csv, tmp_path):
        # in-process callers get the command line's config check, before any output
        cfg = {"q": 2, "n": 5.0, "lambda": 0.8, "data_csv": str(returns_csv),
               "model": "xyz", "out": str(tmp_path / "run")}
        with pytest.raises(InvalidParameter, match="'model'"):
            run_command("filter", cfg)
        assert not (tmp_path / "run").exists()

    @staticmethod
    def fresh_import_loads(module: str) -> bool:
        """Whether ``import wishartsv.cli`` loads ``module`` in a fresh interpreter.

        The test modules import scipy themselves, so only a fresh interpreter can tell.
        The child sees the checkout's src, as pytest's pythonpath does here.
        """
        code = f"import sys, wishartsv.cli; print({module!r} in sys.modules)"
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        return out.stdout.strip() == "True"

    def test_import_leaves_scipy_signal_out(self):
        # scipy.signal adds about 4 MB to a bare interpreter's peak RSS
        assert not self.fresh_import_loads("scipy.signal")

    def test_import_leaves_scipy_stats_out(self):
        # importing scipy.stats takes longer than a CLI run on a q = 5, T = 500 series
        assert not self.fresh_import_loads("scipy.stats")

    @pytest.mark.parametrize("module", ["scipy.linalg", "scipy.optimize"])
    def test_import_leaves_more_of_scipy_out(self, module):
        # a kernel must not buy speed with start-up time; the benchmark imports
        # scipy.linalg before the package, so its runs would not show that cost
        assert not self.fresh_import_loads(module)

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
            # grid-search builds no hyperparameters, so grid_search checks d0
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
            # 40 draws keep 36 after the default burn-in of 4; the config never set batches, so the record names the default
            ("compare-mixture", '{"q": 2, "n": 5.0, "lambda": 0.9, "draws": 40, "data_csv": DATA}', "InvalidParameter",
             "batches defaults to 50, more than the 36 kept draws; set 'batches' or raise 'draws'"),
            # DATES stands for a CSV with only its timestamp column; q is checked with
            # the config, before any table is read or any D_0 is built
            ("grid-search", '{"q": 0, "data_csv": DATES}', "InvalidParameter", "'q'"),
            ("simulate", '{"q": -1, "n": 3.0, "lambda": 0.9, "T": 5}', "InvalidParameter", "'q'"),
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
            "model-unknown", "quantiles-empty", "batches-zero", "batches-above-kept", "batches-default-above-kept",
            "q-zero", "simulate-negative-q", "d0-and-presample", "ridge-without-presample",
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

    @pytest.mark.parametrize("command", ["filter", "grid-search", "compare-mixture"])
    def test_overflowing_returns_are_reported(self, tmp_path, capsys, command):
        # s_1 = |r_1|^2 = 2e400 overflows, although the log likelihood is
        # finite (-5992.81470722051, from a 900-digit mpmath run); a sampled
        # Phi_1 cannot resolve r_1's direction, so the mixture's first
        # likelihood term is reported instead
        data = tmp_path / "big.csv"
        write_returns(data, [["2024-01-01", 1e200, 1e200], ["2024-01-02", 1e200, -1e200]])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 5.0, "lambda": 0.9, "data_csv": str(data),
                                        "n_grid": [5.0], "lambda_grid": [0.9], "draws": 20, "batches": 2}))
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        if command == "compare-mixture":
            assert rc == 1 and err.count("\n") == 1
            record = json.loads(err)
            assert record["error"] == "InvalidParameter" and record["message"].endswith("at t=1")
            assert not list((tmp_path / "x").glob("*"))
            return
        assert rc == 0 and err == ""
        results = json.loads((tmp_path / "x" / "results.json").read_text())
        logliks = [m["loglik"] for m in results["models"].values()] if command == "filter" else [results["loglik_star"]]
        for loglik in logliks:
            assert loglik == pytest.approx(-5992.81470722051, rel=1e-12)

    @pytest.mark.parametrize("command", ["filter", "grid-search"])
    def test_zero_pivot_is_reported(self, tmp_path, capsys, command):
        # (G_t)_11 shrinks by sqrt(0.01) a step from 1e-155 and rounds to 0 at t=169
        data = tmp_path / "peg.csv"
        write_returns(data, [[t, 1e-150, 0.0] for t in range(400)])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 5.0, "lambda": 0.01, "d0": [[1e-310, 0.0], [0.0, 1e-310]],
                                        "data_csv": str(data), "n_grid": [5.0], "lambda_grid": [0.01]}))
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        assert json.loads(err) == {"error": "NotPositiveDefinite",
                                   "message": "zero pivot in rank-1 update at row 1 at t=169"}
        assert not list((tmp_path / "x").glob("*"))

    def test_simulate_zero_pivot_is_reported(self, tmp_path, capsys):
        # D_0 = 1e-300 I at lambda = 0.01: a pivot of the simulated scale's factor rounds to 0 at t=184
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 5.0, "lambda": 0.01, "d0": [[1e-300, 0.0], [0.0, 1e-300]],
                                        "T": 400, "seed": 0}))
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        assert json.loads(err) == {"error": "NotPositiveDefinite",
                                   "message": "simulated scale D_t has a zero pivot at t=184"}
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

    @pytest.mark.parametrize("command, key, size", [
        ("simulate", "T", 10**20),
        ("compare-mixture", "draws", 10**20),
        ("compare-mixture", "draws", 2**63),
        ("smooth", "draws", 10**20),
        ("compare-plr", "draws", 10**20),
    ])
    def test_size_past_any_array_index_is_reported(self, returns_csv, tmp_path, capsys, monkeypatch, command, key,
                                                   size):
        # no array of more than intp's maximum elements can be made, so each
        # command refuses before its first draw; smooth and compare-plr would
        # otherwise draw one noise substream after another until killed
        def no_draw(*args):
            raise AssertionError("a draw began")

        for module, name in ((filtering, "make_rng"), (compare, "make_rng"), (smoother, "substream")):
            monkeypatch.setattr(module, name, no_draw)
        data = {} if command == "simulate" else {"data_csv": str(returns_csv)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 5.0, "lambda": 0.9, **data, key: size}))
        start = time.perf_counter()
        rc = main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert rc == 1 and err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "InvalidParameter" and "more than an array can index" in record["message"]
        assert elapsed < 1.0
        assert not list((tmp_path / "x").glob("*"))

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

    @pytest.mark.parametrize("command", ["smooth", "compare-plr", "compare-mixture"])
    def test_scale_beyond_the_double_range_runs_clean(self, tmp_path, capsys, command):
        # r_t = 10^{e_t} z_t with e_t from -200 to 200: G's diagonal spans
        # 7.6e-152 to 9.3e199 over t, and the BB pass must still succeed
        data = tmp_path / "wide.csv"
        rows = 10.0 ** np.linspace(-200.0, 200.0, 400)[:, None] * np.random.default_rng(0).standard_normal((400, 2))
        write_returns(data, [[t, *row] for t, row in enumerate(rows.tolist())])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 6, "lambda": 0.9, "d0": [[1e-300, 0], [0, 1e-300]],
                                        "data_csv": str(data), "draws": 6, "burn_in": 2, "batches": 2}))
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, error, message",
        [
            (["filter", "--seed", "abc"], "ParseError", "--seed: invalid int value"),
            (["filter", "--draws", "x"], "ParseError", "--draws: invalid int value"),
            (["filter", "--seed"], "ParseError", "--seed: expected one argument"),
            (["filter", "--bogus", "1"], "ParseError", "unrecognized arguments: --bogus 1"),
            (["bogus"], "ParseError", "invalid choice: 'bogus'"),
            # --model is checked like the config key
            (["filter", "--model", "xyz"], "InvalidParameter",
             "config field 'model' must be one of 'ue', 'bb', 'matched', got 'xyz'"),
        ],
        ids=["seed-string", "draws-string", "seed-no-value", "unknown-flag", "unknown-command", "model-unknown"],
    )
    def test_bad_flag_is_reported(self, tmp_path, capsys, argv, error, message):
        rc = main(argv + ["--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == error and message in record["message"]
        assert not (tmp_path / "x").exists()

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

    @pytest.mark.parametrize("where", ["config", "data_csv", "presample_csv"])
    def test_non_utf8_input_is_reported(self, returns_csv, tmp_path, capsys, where):
        latin1 = tmp_path / "latin1"
        latin1.write_bytes("date,r1,r2\n2024-01-01,1,\u00e9\n".encode("latin-1"))
        cfg = {"q": 2, "n": 5.0, "lambda": 0.8, "data_csv": str(returns_csv)}
        if where != "config":
            cfg[where] = str(latin1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        config = latin1 if where == "config" else cfg_path
        rc = main(["filter", "--config", str(config), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ParseError" and record["message"].startswith(f"{latin1}: not UTF-8 text")

    def test_out_naming_a_file_is_reported(self, returns_csv, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"q": 2, "n": 5.0, "lambda": 0.8, "data_csv": str(returns_csv)}))
        rc = main(["filter", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "InvalidParameter" and "cannot create output directory" in record["message"]
        assert out.read_text() == "not a directory\n"

    @pytest.mark.parametrize("taken", ["returns.csv", "true_path.csv", "results.json", "meta.json"])
    def test_failed_output_write_is_reported(self, tmp_path, capsys, taken):
        cfg_path = tmp_path / "s.json"
        cfg_path.write_text(json.dumps({"model": "ue", "q": 2, "T": 5, "n": 5.0, "lambda": 0.9,
                                        "d0": [[1.0, 0.0], [0.0, 1.0]]}))
        out = tmp_path / "d"
        (out / taken).mkdir(parents=True)
        rc = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record == {"error": "InvalidParameter",
                          "message": f"{out / taken}: cannot write output file: Is a directory"}

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
