import json
import subprocess
import sys

import pytest
from numpy.testing import assert_allclose

from spherekern import (
    effective_dimension,
    experiments,
    gram,
    information_gain,
    make_kernel,
    regression,
    sample_sphere,
    variance_sum_check,
)
from spherekern import cli
from spherekern.cli import build_parser, main, resolve_config
from spherekern.errors import ConfigurationError
from test_acceptance import CLI_CASES
from test_regression import _LEDGER_FIELDS, _mp_ledger


def run_cli(*args, **kwargs):
    # Bytes capture keeps the CRLF row endings that text mode would fold.
    res = subprocess.run(
        [sys.executable, "-m", "spherekern", *map(str, args)],
        capture_output=True, **kwargs,
    )
    return subprocess.CompletedProcess(
        res.args, res.returncode, res.stdout.decode(), res.stderr.decode()
    )


SMALL_ERROR_RATE = (
    "error-rate", "--family", "nt", "--s", "1", "--d", "3",
    "--reps", "2", "--max-exp", "5", "--eval-sample", "500",
)


_LAM_RANGE = ("lam must be positive with lam^2 and 1/lam^2 normal floats "
              "(about 1.5e-154 <= lam <= 6.7e153), got ")


def payload_of(text):
    return json.loads(text)["payload"]


class TestExitCodes:
    def test_success_is_zero(self):
        res = run_cli("kernel-eval", "--family", "nt", "--s", "1", "--u", "0")
        assert res.returncode == 0

    def test_unsupported_smoothness_is_two(self):
        """s outside the closed-form range is a configuration error."""
        res = run_cli("kernel-eval", "--family", "rf", "--s", "5", "--u", "0")
        assert res.returncode == 2
        assert "unsupported" in res.stderr.lower()

    def test_missing_required_parameter_is_two(self):
        res = run_cli("kernel-eval", "--family", "nt", "--u", "0.5")
        assert res.returncode == 2
        assert "--s" in res.stderr

    def test_bad_flag_value_is_two(self):
        res = run_cli("spectrum", "--family", "nt", "--s", "1", "--format", "xml")
        assert res.returncode == 2

    def test_numerical_failure_is_three(self):
        """A fit over a fully suppressed parity class fails numerically."""
        res = run_cli("eigendecay", "--family", "nt", "--s", "1", "--d", "3",
                      "--max-degree", "24", "--parity", "odd",
                      "--degree-min", "9", "--degree-max", "23")
        assert res.returncode == 3
        assert "FitError" in res.stderr

    @pytest.mark.parametrize("d", [345, 346])
    def test_spectrum_at_large_d_keeps_every_degree(self, d):
        """N Gamma((d-2)/2) overflows at d = 345 and Gamma itself at d = 346;
        neither zeroes a degree nor ends the command."""
        res = run_cli("spectrum", "--family", "nt", "--s", "1", "--d", d,
                      "--max-degree", "2")
        assert res.returncode == 0 and res.stderr == ""
        assert all(v > 0.0 for v in payload_of(res.stdout)["eigenvalues"])

    @pytest.mark.parametrize("d, message", [
        (435, "eigenvalues at d=435 underflow to subnormal floats from degree 2"),
        (441, "addition-theorem constants at d=441 overflow the float range"),
    ])
    def test_spectrum_past_the_float_range_is_two(self, d, message):
        res = run_cli("spectrum", "--family", "nt", "--s", "1", "--d", d,
                      "--max-degree", "2")
        assert res.returncode == 2
        assert res.stderr == f"ParameterError: {message}\n"

    def test_nan_inner_product_is_two(self):
        """NaN is a domain error, not a value that reaches the JSON payload."""
        res = run_cli("kernel-eval", "--family", "nt", "--s", "1", "--u", "nan")
        assert res.returncode == 2
        assert "DomainError" in res.stderr and res.stdout == ""

    def test_error_message_is_single_line(self):
        res = run_cli("kernel-eval", "--family", "rf", "--s", "5", "--u", "0")
        assert res.stderr.strip().count("\n") == 0

    @pytest.mark.parametrize("argv, message", [
        (["infogain", "--family", "nt", "--s", "1", "--lam", "nan"],
         "lam must be finite and positive, got nan"),
        (["infogain", "--family", "nt", "--s", "1", "--lam", "inf"],
         "lam must be finite and positive, got inf"),
        (["error-rate", "--family", "nt", "--s", "1", "--d", "3", "--lam2", "-1"],
         "lam2 must be finite and positive, got -1.0"),
        (["error-rate", "--family", "nt", "--s", "1", "--d", "3", "--ridge", "0"],
         "ridge must be finite and positive, got 0.0"),
        (["error-rate", "--family", "nt", "--s", "1", "--d", "3", "--noise-scale", "-1"],
         "noise_scale must be finite and non-negative, got -1.0"),
        (["matern-compare", "--s", "1", "--nu", "nan"],
         "nu must be finite and positive, got nan"),
        (["matern-compare", "--s", "1", "--nu", "1.5", "--lengthscale", "-2"],
         "lengthscale must be finite and positive, got -2.0"),
        (["sample-greedy", "--family", "nt", "--s", "1", "--lam", "0"],
         "lam must be finite and positive, got 0.0"),
        (["eigendecay", "--family", "nt", "--s", "1", "--degree-min", "70"],
         "degree_min 70 is above degree_max 59"),
        (["eigendecay", "--family", "nt", "--s", "1", "--degree-max", "5"],
         "degree_min 9 is above degree_max 5"),
        (["matern-compare", "--s", "1", "--nu", "1.5", "--degree-min", "61",
          "--degree-max", "80"], "degree_min 61 is above max_degree 60"),
        (["matern-compare", "--s", "1", "--nu", "1.5", "--degree-min", "-3"],
         "degree_min must be a non-negative integer, got -3"),
        (["eigendecay", "--family", "nt", "--s", "1", "--degree-min", "-3"],
         "degree_min must be a non-negative integer, got -3"),
        (["eigendecay", "--family", "nt", "--s", "1", "--parity", "foo"],
         "parity must be 'even', 'odd' or 'all', got 'foo'"),
        (["matern-compare", "--s", "1", "--nu", "1.5", "--parity", "foo"],
         "parity must be 'even', 'odd' or 'all', got 'foo'"),
        (["infogain", "--family", "nt", "--s", "1", "--lam", "1e-200"],
         _LAM_RANGE + "1e-200"),
        (["sample-greedy", "--family", "nt", "--s", "1", "--lam", "1e-200"],
         _LAM_RANGE + "1e-200"),
        (["infogain", "--family", "nt", "--s", "1", "--lam", "1e-160"],
         _LAM_RANGE + "1e-160"),
        (["infogain", "--family", "nt", "--s", "1", "--lam", "1e200"],
         _LAM_RANGE + "1e+200"),
        (["infogain", "--family", "nt", "--s", "1", "--n", "8", "--lam", "1e154"],
         _LAM_RANGE + "1e+154"),
        (["sample-greedy", "--family", "nt", "--s", "1", "--lam", "1e154"],
         _LAM_RANGE + "1e+154"),
        (["error-rate", "--family", "nt", "--s", "1", "--d", "3", "--workers", "-3"],
         "need an integer workers >= 1, got -3"),
        (["spectrum", "--family", "nt", "--s", "1", "--workers", "0"],
         "need an integer workers >= 1, got 0"),
        (["infogain", "--family", "nt", "--s", "1", "--n", "8", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["spectrum", "--family", "nt", "--s", "1", "--max-degree", "8",
          "--out", "/nonexistent-dir/x.json"],
         "cannot write /nonexistent-dir/x.json: no directory /nonexistent-dir"),
        (["spectrum", "--family", "nt", "--s", "1", "--max-degree", "8", "--out", "."],
         "cannot write .: it is a directory"),
        (["spectrum", "--family", "nt", "--s", "1", "--emit-plot-data",
          "/nonexistent-dir/x.csv"],
         "cannot write /nonexistent-dir/x.csv: no directory /nonexistent-dir"),
        (["spectrum", "--family", "nt", "--s", "1", "--max-degree", "400", "--out", ""],
         "cannot write an empty path"),
        (["spectrum", "--family", "nt", "--s", "1", "--emit-plot-data", ""],
         "cannot write an empty path"),
    ])
    def test_out_of_range_value_is_two_before_any_work(self, argv, message, monkeypatch,
                                                       capsys):
        """An out-of-range value exits 2 with one line; the subcommand never starts."""
        def never(*args):
            raise AssertionError("the subcommand ran")

        monkeypatch.setitem(cli._HANDLERS, argv[0], never)
        monkeypatch.setattr(cli, "mercer_spectrum", never)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"ConfigurationError: {message}\n"

    def test_failed_write_is_two(self, tmp_path, monkeypatch, capsys):
        """A write that fails after the checks exits 2 with one line, no traceback."""
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        out = tmp_path / "x.json"
        monkeypatch.setattr(cli, "open", refuse, raising=False)
        assert main(["spectrum", "--family", "nt", "--s", "1", "--max-degree", "8",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"ConfigurationError: cannot write {out}: Permission denied\n"

    def test_out_of_range_config_value_is_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"family": "nt", "s": 1, "lam": NaN}')
        assert main(["infogain", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "ConfigurationError: lam must be finite and positive, got nan\n"

    @pytest.mark.parametrize("command, config", [
        ("spectrum", {"family": "nt", "s": 1, "max_degree": "60"}),
        ("infogain", {"family": "nt", "s": 1, "n": 10.5}),
        ("infogain", {"family": "nt", "s": 1, "lam": "1.0"}),
        ("kernel-eval", {"family": "nt", "s": 1, "u": ["0.5"]}),
    ])
    def test_wrong_config_value_type_is_two(self, command, config, tmp_path, capsys):
        """A config value of another type than its flag is a configuration error."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ConfigurationError: config value ")
        assert err.count("\n") == 1


class TestKernelEval:
    def test_orthogonal_nt_value_in_json(self):
        """kappa_NT,1(0) = 1/pi shows up verbatim in the JSON payload."""
        res = run_cli("kernel-eval", "--family", "nt", "--s", "1", "--u", "0")
        assert res.returncode == 0
        assert "0.3183098861837907" in res.stdout

    def test_csv_rows_and_float_width(self):
        res = run_cli("kernel-eval", "--family", "nt", "--s", "1", "--u", "0",
                      "--format", "csv")
        lines = res.stdout.split("\r\n")
        assert lines[0] == "u,value"
        assert lines[1] == "0,0.31830988618379069"

    def test_rf_at_one_prints_one(self):
        res = run_cli("kernel-eval", "--family", "rf", "--s", "2", "--u", "1",
                      "--format", "csv")
        assert res.stdout.split("\r\n")[1] == "1,1"

    def test_repeatable_u_flag(self):
        res = run_cli("kernel-eval", "--family", "rf", "--s", "1",
                      "--u", "-1", "--u", "0", "--u", "1", "--format", "csv")
        rows = [ln for ln in res.stdout.split("\r\n") if ln][1:]
        assert len(rows) == 3
        assert rows[0].startswith("-1,")
        assert rows[2] == "1,1"

    def test_pair_file_input(self, tmp_path):
        pair = tmp_path / "pairs.csv"
        pair.write_text("1,0,0,0,1,0\n1,0,0,1,0,0\n")
        res = run_cli("kernel-eval", "--family", "nt", "--s", "1",
                      "--pair-file", pair, "--format", "csv")
        rows = [ln for ln in res.stdout.split("\r\n") if ln][1:]
        assert rows[0] == "0,0.31830988618379069"
        assert rows[1] == "1,2"

    def test_pair_file_rejects_non_unit(self, tmp_path):
        pair = tmp_path / "pairs.csv"
        for row in ("2,0,0,0,1,0\n", "1,0,0,nan,1,0\n"):
            pair.write_text(row)
            res = run_cli("kernel-eval", "--family", "nt", "--s", "1",
                          "--pair-file", pair)
            assert res.returncode == 2

    @pytest.mark.parametrize("text", ["", "\n  \n", "# no pairs yet\n"])
    def test_pair_file_without_pairs(self, tmp_path, text):
        """One line of stderr that names the empty file, not numpy's loadtxt
        warning and a column count."""
        pair = tmp_path / "pairs.csv"
        pair.write_text(text)
        res = run_cli("kernel-eval", "--family", "nt", "--s", "1", "--pair-file", pair)
        assert res.returncode == 2
        assert res.stderr.strip() == f"ConfigurationError: pair file {pair} holds no pairs"

    def test_needs_some_input(self):
        res = run_cli("kernel-eval", "--family", "nt", "--s", "1")
        assert res.returncode == 2
        assert "pair-file" in res.stderr


class TestConfigResolution:
    def _resolve(self, argv, config=None, tmp_path=None):
        if config is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path)]
        parser = build_parser()
        return resolve_config(argv[0], parser.parse_args(argv))

    def test_defaults_fill_in(self):
        cfg = self._resolve(["spectrum", "--family", "nt", "--s", "1"])
        assert cfg["d"] == 3 and cfg["max_degree"] == 60 and cfg["l"] == 2
        assert cfg["seed"] == 0 and cfg["format"] == "json"

    def test_file_supplies_values(self, tmp_path):
        cfg = self._resolve(["spectrum"], {"family": "rf", "s": 2, "d": 4},
                            tmp_path=tmp_path)
        assert cfg["family"] == "rf" and cfg["s"] == 2 and cfg["d"] == 4

    def test_flags_override_file(self, tmp_path):
        """Explicit flags beat config-file values."""
        cfg = self._resolve(["spectrum", "--s", "3"],
                            {"family": "rf", "s": 2}, tmp_path=tmp_path)
        assert cfg["s"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            self._resolve(["spectrum", "--family", "nt", "--s", "1"],
                          {"bogus": 1}, tmp_path=tmp_path)

    def test_subcommand_mismatch_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="subcommand"):
            self._resolve(["spectrum", "--family", "nt", "--s", "1"],
                          {"subcommand": "eigendecay"}, tmp_path=tmp_path)

    def test_missing_required_raises(self):
        with pytest.raises(ConfigurationError, match="--family"):
            self._resolve(["spectrum", "--s", "1"])

    def test_full_scale_bumps_experiment_size(self):
        cfg = self._resolve(["error-rate", "--family", "nt", "--s", "1",
                             "--d", "3", "--full-scale"])
        assert cfg["reps"] == 20 and cfg["max_exp"] == 13

    def test_full_scale_respects_explicit_values(self):
        """An explicit flag survives --full-scale."""
        cfg = self._resolve(["error-rate", "--family", "nt", "--s", "1",
                             "--d", "3", "--full-scale", "--reps", "3"])
        assert cfg["reps"] == 3 and cfg["max_exp"] == 13

    def test_file_values_take_their_flag_types(self, tmp_path):
        """An integer stands for a float; null only where the default is null."""
        cfg = self._resolve(["infogain"],
                            {"family": "nt", "s": 1, "lam": 2, "workers": None},
                            tmp_path=tmp_path)
        assert cfg["lam"] == 2 and cfg["workers"] is None
        for bad in ({"seed": None}, {"full_scale": 1}, {"n": True}):
            with pytest.raises(ConfigurationError, match="is not of type"):
                self._resolve(["infogain", "--family", "nt", "--s", "1"], bad,
                              tmp_path=tmp_path)

    @pytest.mark.parametrize("flags, workers", [((), 3), (("--workers", "2"), 2)])
    def test_error_rate_workers_default_to_available_cpus(self, flags, workers,
                                                          monkeypatch):
        """Without --workers, error-rate starts one worker per CPU the process may
        run on (its affinity mask), not one per CPU of the host."""
        class Stop(Exception):
            pass

        def record(*args, workers, **kwargs):
            seen.append(workers)
            raise Stop

        seen = []
        monkeypatch.setattr(cli, "_available_cpus", lambda: 3)
        monkeypatch.setattr(experiments, "error_rate_experiment", record)
        cfg = self._resolve(["error-rate", "--family", "nt", "--s", "1", "--d", "3", *flags])
        with pytest.raises(Stop):
            cli.cmd_error_rate(cfg)
        assert seen == [workers]
        assert cfg["workers"] == (None if not flags else workers)

    def test_output_paths_never_echoed(self, tmp_path):
        cfg = self._resolve(["spectrum", "--family", "nt", "--s", "1"],
                            {"out": "x.json"}, tmp_path=tmp_path)
        assert "out" not in cfg and "emit_plot_data" not in cfg

    def test_every_subcommand_parses(self):
        parser = build_parser()
        for command in ("kernel-eval", "spectrum", "eigendecay", "matern-compare",
                        "infogain", "sample-greedy", "error-rate", "mig-growth"):
            args = parser.parse_args([command, "--seed", "7"])
            assert args.command == command and args.seed == 7

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["not-a-command"])
        assert exc.value.code == 2


class TestDeterminism:
    def test_error_rate_csv_bytes_identical(self):
        """Same seed, same bytes."""
        first = run_cli(*SMALL_ERROR_RATE, "--seed", "42", "--format", "csv")
        second = run_cli(*SMALL_ERROR_RATE, "--seed", "42", "--format", "csv")
        assert first.stdout == second.stdout
        assert first.stdout.startswith("n,rep,sup_error\r\n")

    def test_json_identical_modulo_timestamp(self):
        first = json.loads(run_cli(*SMALL_ERROR_RATE, "--seed", "42").stdout)
        second = json.loads(run_cli(*SMALL_ERROR_RATE, "--seed", "42").stdout)
        for doc in (first, second):
            assert doc["meta"].pop("timestamp")
        assert first == second

    def test_worker_count_does_not_change_payload(self):
        one = run_cli(*SMALL_ERROR_RATE, "--seed", "3", "--workers", "1",
                      "--format", "csv")
        two = run_cli(*SMALL_ERROR_RATE, "--seed", "3", "--workers", "2",
                      "--format", "csv")
        assert one.stdout == two.stdout

    def test_seed_changes_payload(self):
        a = run_cli(*SMALL_ERROR_RATE, "--seed", "1", "--format", "csv")
        b = run_cli(*SMALL_ERROR_RATE, "--seed", "2", "--format", "csv")
        assert a.stdout != b.stdout

    def test_sample_greedy_deterministic(self):
        args = ("sample-greedy", "--family", "rf", "--s", "1", "--n", "6",
                "--grid-size", "128", "--seed", "11", "--format", "csv")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestRoundTrip:
    @pytest.mark.parametrize("case", CLI_CASES, ids=lambda case: case[0])
    def test_embedded_config_reproduces_payload(self, case, tmp_path):
        """Feeding the echoed config back yields the identical payload."""
        doc = json.loads(run_cli(*case).stdout)
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(json.dumps(doc["config"]))
        redone = json.loads(run_cli(case[0], "--config", cfg_path).stdout)
        assert redone["payload"] == doc["payload"]
        assert redone["config"] == doc["config"]

    def test_round_trip_mig_growth(self, tmp_path):
        base = run_cli("mig-growth", "--family", "nt", "--s", "1",
                       "--grid-size", "128", "--max-exp", "6", "--seed", "5")
        doc = json.loads(base.stdout)
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(json.dumps(doc["config"]))
        redone = json.loads(run_cli("mig-growth", "--config", cfg_path).stdout)
        assert redone["payload"] == doc["payload"]


class TestReports:
    def test_json_report_embeds_version_and_config(self):
        doc = json.loads(run_cli("infogain", "--family", "nt", "--s", "1",
                                 "--n", "8").stdout)
        assert doc["meta"]["version"]
        assert doc["config"]["subcommand"] == "infogain"
        assert doc["config"]["n"] == 8

    def test_infogain_factors_once(self, monkeypatch, tmp_path):
        real = regression.cholesky
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(regression, "cholesky", counting)
        assert main(["infogain", "--family", "nt", "--s", "2", "--n", "40",
                     "--out", str(tmp_path / "report.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("case, header, first_row", [
        (CLI_CASES[4], "n,info_gain,effective_dim,sum_variance,bound_rhs",
         lambda p: [p[k] for k in ("n", "info_gain", "effective_dim", "sum_variance",
                                   "bound_rhs")]),
        (CLI_CASES[2], "slope,r_squared,parity,degree_min,degree_max",
         lambda p: [p[k] for k in ("slope", "r_squared", "parity", "degree_min",
                                   "degree_max")]),
        (CLI_CASES[3], "min_ratio,max_ratio,ratio_spread",
         lambda p: [p["min_ratio"], p["max_ratio"], p["ratio_spread"]]),
        (CLI_CASES[7], "n,info_gain", lambda p: [p["n_grid"][0], p["info_gain"][0]]),
    ], ids=["infogain", "eigendecay", "matern-compare", "mig-growth"])
    def test_csv_header_and_first_row(self, case, header, first_row, tmp_path):
        """The CSV header, and a first row holding the JSON payload's values:
        floats to 17 significant digits, integers and strings as they are."""
        csv_path, json_path = tmp_path / "report.csv", tmp_path / "report.json"
        assert main([*case, "--format", "csv", "--out", str(csv_path)]) == 0
        assert main([*case, "--out", str(json_path)]) == 0
        lines = csv_path.read_bytes().decode().split("\r\n")
        expected = [format(v, ".17g") if isinstance(v, float) else str(v)
                    for v in first_row(payload_of(json_path.read_text()))]
        assert lines[:2] == [header, ",".join(expected)]

    def test_infogain_payload_matches_public_functions(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["infogain", "--family", "nt", "--s", "2", "--d", "4",
                     "--n", "40", "--lam", "0.5", "--seed", "5",
                     "--out", str(out)]) == 0
        payload = payload_of(out.read_text())
        kernel = make_kernel("nt", 2, d=4)
        points = sample_sphere(4, 40, 5)
        lhs, rhs = variance_sum_check(kernel, points, 0.5)
        expected = {
            "info_gain": information_gain(kernel, points, 0.5),
            "effective_dim": effective_dimension(kernel, points, 0.5),
            "sum_variance": lhs,
            "bound_rhs": rhs,
        }
        for key, value in expected.items():
            assert_allclose(payload[key], value, rtol=1e-12, err_msg=key)

    @pytest.mark.parametrize("lam", ["1e7", "9e7", "1e8", "6e153"])
    def test_infogain_exact_at_large_lam(self, lam, tmp_path):
        """Every field within 1e-12 of its 60-digit value, where log det - n log lam
        and L_ii^2 - lam^2 would cancel; the variance sum stays below n kappa(1)."""
        out = tmp_path / "report.json"
        assert main(["infogain", "--family", "nt", "--s", "1", "--n", "8",
                     "--lam", lam, "--out", str(out)]) == 0
        payload = payload_of(out.read_text())
        kernel = make_kernel("nt", 1)
        K = gram(kernel, sample_sphere(3, 8, 0))
        for key, value in zip(_LEDGER_FIELDS, _mp_ledger(K, float(lam), kernel.kappa_one)):
            assert_allclose(payload[key], value, rtol=1e-12, err_msg=key)
        assert 0.0 < payload["info_gain"] and payload["sum_variance"] <= 16.0

    def test_out_writes_file_and_keeps_stdout_quiet(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("kernel-eval", "--family", "rf", "--s", "1", "--u", "0.5",
                      "--out", out)
        assert res.returncode == 0 and res.stdout == ""
        assert json.loads(out.read_text())["payload"]["u"] == [0.5]

    def test_emit_plot_data_writes_csv_sidecar(self, tmp_path):
        """--emit-plot-data produces the CSV payload even in JSON mode."""
        side = tmp_path / "plot.csv"
        res = run_cli("mig-growth", "--family", "nt", "--s", "1",
                      "--grid-size", "64", "--max-exp", "5",
                      "--emit-plot-data", side)
        assert res.returncode == 0
        assert side.read_bytes().startswith(b"n,info_gain\r\n")
        json.loads(res.stdout)

    def test_spectrum_csv_layout(self):
        res = run_cli("spectrum", "--family", "rf", "--s", "2",
                      "--max-degree", "6", "--format", "csv")
        lines = [ln for ln in res.stdout.split("\r\n") if ln]
        assert lines[0] == "degree,eigenvalue,multiplicity"
        assert len(lines) == 8

    def test_eigendecay_example_slope(self):
        """The two-layer NT decay fit lands on the cubic law."""
        res = run_cli("eigendecay", "--family", "nt", "--s", "1", "--d", "3",
                      "--max-degree", "60")
        slope = json.loads(res.stdout)["payload"]["slope"]
        assert -3.3 <= slope <= -2.7

    def test_matern_compare_reports_bounded_spread(self):
        res = run_cli("matern-compare", "--s", "1", "--d", "3", "--nu", "0.5",
                      "--degree-min", "6", "--degree-max", "58",
                      "--parity", "even")
        payload = json.loads(res.stdout)["payload"]
        assert 0 < payload["min_ratio"] <= payload["max_ratio"]
        assert payload["ratio_spread"] < 20


# Run in a fresh interpreter: imports the package and the CLI, runs the four
# subcommands that factor nothing, then checks which modules were loaded.
_COLD_START = """
import sys
import spherekern, spherekern.cli
out = sys.argv[1]
for argv in (
    ["kernel-eval", "--family", "nt", "--s", "1", "--u", "0.5"],
    ["spectrum", "--family", "nt", "--s", "1", "--max-degree", "8"],
    ["eigendecay", "--family", "nt", "--s", "1", "--max-degree", "30",
     "--degree-min", "9", "--degree-max", "29"],
    ["matern-compare", "--s", "1", "--nu", "0.5", "--max-degree", "30",
     "--degree-min", "6", "--degree-max", "28"],
):
    assert spherekern.cli.main(argv + ["--out", out]) == 0, argv
loaded = [m for m in sys.modules
          if m.split(".")[0] == "scipy" or m in ("spherekern.regression", "spherekern.experiments")]
assert not loaded, loaded

for name in spherekern.__all__[1:]:  # __version__ first, then classes and functions
    obj = getattr(spherekern, name)
    assert getattr(sys.modules[obj.__module__], name) is obj, name
    if name in spherekern._LAZY:
        assert obj.__module__ == "spherekern." + spherekern._LAZY[name], name
assert set(spherekern.__all__) <= set(dir(spherekern))
assert spherekern.experiments.cho_solve is spherekern.regression.cho_solve
assert spherekern.experiments.solve_triangular is spherekern.regression.solve_triangular
print("ok")
"""


def test_cold_start_loads_no_factorization_modules(tmp_path):
    """Subcommands that factor nothing never import regression, experiments or scipy."""
    res = subprocess.run([sys.executable, "-c", _COLD_START, str(tmp_path / "out.json")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "ok\n"


# Run in a fresh interpreter: two subcommands that factor, then the modules loaded.
_FITS_WITHOUT_SCIPY = """
import sys
import spherekern.cli
out = sys.argv[1]
for argv in (
    ["infogain", "--family", "nt", "--s", "2", "--n", "64"],
    [*%r, "--workers", "1"],
):
    assert spherekern.cli.main(argv + ["--out", out]) == 0, argv
assert "spherekern.experiments" in sys.modules
loaded = [m for m in sys.modules
          if m.split(".")[0] == "scipy" or m == "concurrent.futures.process"]
assert not loaded, loaded
print("ok")
""" % (SMALL_ERROR_RATE,)


def test_fitting_subcommands_load_no_scipy(tmp_path):
    """Cholesky factors and triangular solves take numpy alone: infogain and
    error-rate never import scipy, and error-rate on one worker makes no
    process pool."""
    res = subprocess.run([sys.executable, "-c", _FITS_WITHOUT_SCIPY, str(tmp_path / "out.json")],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "ok\n"
