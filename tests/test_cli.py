"""End-to-end tests of the command-line surface (in-process)."""

import dataclasses
import itertools
import json
import warnings
from xml.dom.minidom import parseString

import numpy as np
import pytest

from anovafit import (
    BandwidthProfile,
    BasisKind,
    SolverConfig,
    analyze,
    fit,
    load_csv,
    load_model,
    load_termset,
    predict,
    save_model,
    save_termset,
    superposition_terms,
)
from anovafit import errors, operators
from anovafit.bench import REAL_PRESETS, RealPreset, Stage
from anovafit.cli import build_parser, main
from anovafit.plots import HEIGHT, MARGIN_BOTTOM, MARGIN_TOP, svg_bar_chart

from conftest import NoDraws


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def friedman2_model(tmp_path, capsys):
    path = tmp_path / "model.json"
    code, out, _ = run_cli(
        capsys,
        "fit",
        "--friedman", "2",
        "--ds", "2",
        "--bandwidths", "4,2",
        "--lambda", "0",
        "--seed", "1",
        "--out", str(path),
    )
    assert code == 0
    return path, json.loads(out)


class TestFit:
    def test_friedman1_initial_model_has_76_coefficients(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        code, out, _ = run_cli(
            capsys,
            "fit", "--friedman", "1", "--ds", "2", "--bandwidths", "4,2",
            "--lambda", "3", "--seed", "0", "--out", str(path),
        )
        assert code == 0
        metrics = json.loads(out)
        assert metrics["coefficients"] == 76
        assert metrics["train_size"] == 200
        assert metrics["test_size"] == 1000
        model_obj = read_json(path)
        assert len(model_obj["coefficients"]) == 76
        assert model_obj["basis"] == "cos"

    def test_csv_fit_small_term_set(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        rows = ["a,b,y"] + [
            f"{x:.6f},{z:.6f},{x + z:.6f}"
            for x, z in rng.uniform(size=(30, 2))
        ]
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "model.json"
        code, out, _ = run_cli(
            capsys,
            "fit", "--csv", str(csv_path), "--target", "y",
            "--ds", "1", "--bandwidths", "2",
            "--split", "0.8", "--out", str(model_path),
        )
        assert code == 0
        assert json.loads(out)["coefficients"] == 3

    def test_low_oversampling_warns_but_proceeds(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        with pytest.warns(UserWarning, match="oversampling"):
            code, out, _ = run_cli(
                capsys,
                "fit", "--friedman", "2", "--ds", "2", "--bandwidths", "8,4",
                "--split", "40:50", "--seed", "0", "--out", str(model_path),
            )
        assert code == 0
        assert json.loads(out)["oversampling"] < 1.0

    def test_byte_identical_reruns(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        args = [
            "fit", "--friedman", "3", "--ds", "2", "--bandwidths", "4,2",
            "--lambda", "2", "--seed", "7", "--out", str(path),
        ]
        _, out_a, _ = run_cli(capsys, *args)
        bytes_a = path.read_bytes()
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b
        assert bytes_a == path.read_bytes()

    def test_config_errors_exit_2(self, capsys, tmp_path):
        out_path = str(tmp_path / "m.json")
        # the parser rejects no data source, both sources and missing bandwidths
        for argv in (["--ds", "1", "--bandwidths", "2"],
                     ["--friedman", "1", "--csv", "x.csv", "--target", "y", "--ds", "1",
                      "--bandwidths", "2"],
                     ["--friedman", "1", "--ds", "1"]):
            with pytest.raises(SystemExit) as exc:
                main(["fit", *argv, "--out", out_path])
            assert exc.value.code == 2
        # malformed bandwidths
        assert run_cli(capsys, "fit", "--friedman", "1", "--ds", "1",
                       "--bandwidths", "4,x", "--out", out_path)[0] == 2
        # an empty item, inside the list or trailing, is not skipped
        for text in ("6,,4", "6,4,", ""):
            code, _, err = run_cli(capsys, "fit", "--friedman", "2", "--ds", "2",
                                   "--bandwidths", text, "--out", out_path)
            assert code == 2
            assert "--bandwidths has an empty item" in err
        # a negative seed
        code, _, err = run_cli(capsys, "fit", "--friedman", "1", "--ds", "1",
                               "--bandwidths", "4", "--seed", "-1", "--out", out_path)
        assert code == 2
        assert "non-negative" in err
        assert not (tmp_path / "m.json").exists()

    def test_bandwidth_beyond_int64_exits_2(self, capsys, tmp_path):
        # 10**24 >= 2**63 is rejected before any grid is allocated
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--friedman", "1", "--ds", "2",
                                 "--bandwidths", f"{10**24},2", "--out", str(out_path))
        assert code == 2
        assert "64-bit frequency range" in err
        assert out == "" and not out_path.exists()

    def test_table_beyond_physical_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        # d=10, 200 training rows: 999 frequencies of 10 variables take 16 MB, against 1 MiB
        def unreachable(*args):
            raise AssertionError("eval_1d_table was reached")

        monkeypatch.setattr(errors, "physical_memory", lambda: 2**20)
        monkeypatch.setattr(operators, "eval_1d_table", unreachable)
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--friedman", "1", "--ds", "2",
                                 "--bandwidths", "1000,2", "--out", str(out_path))
        assert code == 2
        assert "configuration error: a basis table of 15984000 bytes exceeds" in err
        assert out == "" and not out_path.exists()

    def test_sample_beyond_physical_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        # 1e11 Friedman-1 rows take 8.8e12 bytes: refused before the generator draws
        monkeypatch.setattr("anovafit.bench.rng_stream",
                            lambda *args: NoDraws(np.random.PCG64(0)))
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--friedman", "1", "--ds", "1",
                                 "--bandwidths", "2", "--split", "100000000000:1",
                                 "--out", str(out_path))
        assert code == 2
        assert err.startswith("configuration error: a sample of 100000000000 rows of "
                              "8800000000000 bytes exceeds") and err.count("\n") == 1
        assert out == "" and not out_path.exists()

    def test_coefficient_vector_beyond_physical_memory_exits_2(self, capsys, tmp_path,
                                                               monkeypatch):
        # 6e10 coefficients take 4.8e11 bytes, but the order-2 apply's B of (n v)^2 =
        # 399996**2 entries (1.3e12 bytes) is refused first, with the 6.4-MB table of 2 rows
        def unreachable(*args):
            raise AssertionError("the solve was reached")

        monkeypatch.setattr("anovafit.model._solve", unreachable)
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--friedman", "2", "--ds", "2",
                                 "--bandwidths", "4,100000", "--split", "2:1",
                                 "--out", str(out_path))
        assert code == 2
        assert err.startswith("configuration error: a basis table and one apply's scratch of "
                              "1279987200000 bytes exceeds") and err.count("\n") == 1
        assert out == "" and not out_path.exists()

    def test_order_2_apply_beyond_physical_memory_exits_2(self, capsys, tmp_path, monkeypatch):
        # 200 rows at N_2 = 10000: a 64-MB table and 4.8-GB coefficient vectors would pass a
        # one-vector rule against 6e9 bytes, but the apply's B alone takes 12.8 GB
        def unreachable(*args):
            raise AssertionError("eval_1d_table was reached")

        monkeypatch.setattr(errors, "physical_memory", lambda: 6 * 10**9)
        monkeypatch.setattr(operators, "eval_1d_table", unreachable)
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--friedman", "2", "--ds", "2",
                                 "--bandwidths", "4,10000", "--out", str(out_path))
        assert code == 2
        assert err.startswith("configuration error: a basis table and one apply's scratch of "
                              "12925427328 bytes exceeds") and err.count("\n") == 1
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("command", ["fit", "bench-real"])
    def test_term_set_beyond_physical_memory_exits_2(self, capsys, tmp_path, no_enumeration,
                                                     command):
        # 40 columns at --ds 20: 6.19e11 terms, refused before any is listed
        csv_path = tmp_path / "wide.csv"
        rows = np.random.default_rng(0).random((10, 41))
        csv_path.write_text(",".join(f"x{i}" for i in range(1, 41)) + ",y\n"
                            + "".join(",".join(map(str, row.tolist())) + "\n" for row in rows))
        out_path = tmp_path / "o.json"
        argv = {"fit": ["fit", "--csv", str(csv_path), "--target", "y", "--bandwidths", "4"],
                "bench-real": ["bench-real", "custom", "--csv", str(csv_path), "--target", "y",
                               "--split", "0.7"]}[command]
        code, out, err = run_cli(capsys, *argv, "--ds", "20", "--out", str(out_path))
        assert code == 2
        assert err.startswith("configuration error: a term set of ") and err.count("\n") == 1
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--bandwidths", "1000000000,2", "a basis table of "),
        ("--bandwidths", "3,2", "bandwidth for order 1 must be even and >= 2, got 3"),
        ("--bandwidths", "6.5,2", "--bandwidths expects comma-separated integers"),
        ("--bandwidths", ",2", "--bandwidths has an empty item"),
        ("--bandwidths", "6", "no bandwidth configured for term order 2"),
        ("--bandwidths", f"{2**63},2", f"bandwidth for order 1 {2**63} exceeds the 64-bit"),
        ("--ds", "0", "superposition threshold 0 out of range"),
        ("--ds", "11", "superposition threshold 11 out of range"),
        ("--split", "0:10", "train_size and test_size must both be >= 1"),
        ("--split", "1.5", "train_fraction must lie in (0, 1)"),
    ])
    def test_hostile_flags_exit_2(self, capsys, tmp_path, small_grids_only, flag, value,
                                  message):
        # no grid above bandwidth 64 may be built: a huge bandwidth meets the table guard first
        argv = {"--ds": "2", "--bandwidths": "4,2", flag: value}
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", "--friedman", "1", *itertools.chain(*argv.items()),
                                 "--out", str(out_path))
        assert code == 2
        assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1
        assert out == "" and not out_path.exists()

    def test_negative_bandwidth_is_an_argparse_error(self, capsys, tmp_path):
        # "-2,2" reads as a flag, so --bandwidths has no value
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--friedman", "1", "--ds", "2", "--bandwidths", "-2,2",
                  "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--friedman", "1", "--ds", "1", "--lambda", "inf"],
         "regularization must be finite and >= 0"),
        (["--csv", "{csv}", "--ds", "1"], "--csv needs --target"),
        (["--friedman", "2", "--terms", "{terms}"],
         "term set is over 3 variables but the data has 4"),
    ])
    def test_bad_settings_exit_2(self, capsys, tmp_path, flags, message):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,y\n0.1,1.0\n0.3,2.0\n0.5,3.0\n")
        terms_path = tmp_path / "t.json"
        save_termset(superposition_terms(3, 1), terms_path)
        flags = [f.format(csv=csv_path, terms=terms_path) for f in flags]
        out_path = tmp_path / "m.json"
        code, out, err = run_cli(capsys, "fit", *flags, "--bandwidths", "4",
                                 "--out", str(out_path))
        assert code == 2
        assert message in err
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("source, split, message", [
        ("friedman", "0.7", "fraction splits need a concrete dataset"),
        ("csv", "20:10", "size-based splits only apply to synthetic generators"),
        ("csv", "abc", "--split expects a fraction or M_train:M_test, got 'abc'"),
    ])
    def test_split_mode_must_match_the_source(self, capsys, tmp_path, source, split, message):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,y\n0.1,1.0\n0.3,2.0\n0.5,3.0\n")
        data = ["--friedman", "1"] if source == "friedman" else ["--csv", str(csv_path),
                                                                 "--target", "y"]
        out_path = tmp_path / "m.json"
        code, _, err = run_cli(capsys, "fit", *data, "--ds", "1", "--bandwidths", "4",
                               "--split", split, "--out", str(out_path))
        assert code == 2
        assert message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("flags", [["--normalize"], ["--normalize-target"],
                                       ["--normalize", "--normalize-target"]])
    def test_normalize_with_friedman_exits_2(self, capsys, tmp_path, flags):
        out_path = tmp_path / "m.json"
        code, _, err = run_cli(capsys, "fit", "--friedman", "2", "--ds", "2",
                               "--bandwidths", "4,2", *flags, "--out", str(out_path))
        assert code == 2
        assert "--csv" in err
        assert not out_path.exists()

    def test_missing_csv_exits_3(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "fit", "--csv", str(tmp_path / "nope.csv"), "--target", "y",
            "--ds", "1", "--bandwidths", "2", "--out", str(tmp_path / "m.json"),
        )
        assert code == 3


class TestRankRefineRoundTrip:
    def test_rank_report(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "rank", "--model", str(model_path), "--out", str(report_path)
        )
        assert code == 0
        report = read_json(report_path)
        assert set(report) == {"variance", "gsi", "ranking"}
        assert len(report["ranking"]) == 4
        np.testing.assert_allclose(sum(report["ranking"]), 1.0, atol=1e-10)
        rhos = [entry["rho"] for entry in report["gsi"]]
        assert rhos == sorted(rhos, reverse=True)
        assert "ranking" in err  # aligned table on stderr

    def test_gsi_threshold_recovers_published_active_set(
        self, friedman2_model, tmp_path, capsys
    ):
        model_path, _ = friedman2_model
        terms_path = tmp_path / "terms.json"
        code, out, _ = run_cli(
            capsys,
            "refine", "--model", str(model_path),
            "--gsi-threshold", "0.02", "--out", str(terms_path),
        )
        assert code == 0
        refined = load_termset(terms_path)
        assert refined.terms == ((), (2,), (3,), (2, 3))
        diff = json.loads(out)
        assert diff["kept"] == 4
        assert [2, 3] not in diff["removed"]

    def test_refit_with_refined_terms(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        terms_path = tmp_path / "terms.json"
        run_cli(capsys, "refine", "--model", str(model_path),
                "--gsi-threshold", "0.02", "--out", str(terms_path))
        final_path = tmp_path / "final.json"
        code, out, _ = run_cli(
            capsys,
            "fit", "--friedman", "2", "--terms", str(terms_path),
            "--bandwidths", "4,2", "--lambda", "0", "--seed", "1",
            "--out", str(final_path),
        )
        assert code == 0
        assert json.loads(out)["coefficients"] == 8  # 1 + 2*3 + 1

    def test_refine_requires_an_action(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        code, _, err = run_cli(
            capsys, "refine", "--model", str(model_path),
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 2
        assert "nothing to do" in err

    def test_no_threshold_crossing_leaves_set_unchanged(
        self, friedman2_model, tmp_path, capsys
    ):
        model_path, _ = friedman2_model
        terms_path = tmp_path / "terms.json"
        code, out, err = run_cli(
            capsys, "refine", "--model", str(model_path),
            "--drop-below", "0.9", "--out", str(terms_path),
        )
        assert code == 0
        assert "notice" in err
        refined = load_termset(terms_path)
        assert len(refined) == 11  # order-2 truncation over 4 variables
        diff = json.loads(out)
        assert diff["added"] == [] and diff["removed"] == []

    def test_empty_threshold_item_exits_2(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        out_path = tmp_path / "terms.json"
        for text in ("0.01,", "0.01,,0.02"):
            code, _, err = run_cli(capsys, "refine", "--model", str(model_path),
                                   "--gsi-threshold", text, "--out", str(out_path))
            assert code == 2
            assert "--gsi-threshold has an empty item" in err
        assert not out_path.exists()

    def test_surplus_thresholds_exit_2(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert run_cli(capsys, "fit", "--friedman", "1", "--ds", "2", "--bandwidths", "4,2",
                       "--lambda", "3", "--out", str(model_path))[0] == 0
        out_path = tmp_path / "terms.json"
        code, out, err = run_cli(capsys, "refine", "--model", str(model_path),
                                 "--gsi-threshold", "0.01,0.02,0.5,0.9",
                                 "--out", str(out_path))
        assert code == 2
        assert "up to 2, got 4" in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("value", ["-1", "1.5", "nan"])
    def test_drop_below_out_of_range_exits_2(self, friedman2_model, tmp_path, capsys, value):
        model_path, _ = friedman2_model
        out_path = tmp_path / "terms.json"
        code, out, err = run_cli(capsys, "refine", "--model", str(model_path),
                                 "--drop-below", value, "--out", str(out_path))
        assert code == 2
        assert "[0, 1)" in err
        assert out == ""
        assert not out_path.exists()

    def test_expand_needs_theta(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        code, _, err = run_cli(
            capsys, "refine", "--model", str(model_path), "--expand", "3",
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 2
        assert "--theta" in err

    def test_expand_adds_interactions_of_ranked_variables(self, friedman2_model, tmp_path,
                                                           capsys):
        model_path, _ = friedman2_model
        pool = analyze(load_model(model_path)).ranked_above(0.006)
        assert len(pool) >= 3
        terms_path = tmp_path / "terms.json"
        code, out, _ = run_cli(capsys, "refine", "--model", str(model_path),
                               "--expand", "3", "--theta", "0.006", "--out", str(terms_path))
        assert code == 0
        diff = json.loads(out)
        assert diff["added"] == [list(u) for u in itertools.combinations(pool, 3)]
        assert diff["removed"] == []
        assert load_termset(terms_path).superposition_threshold == 3

    def test_expand_at_theta_zero_pools_every_ranked_variable(self, friedman2_model, tmp_path,
                                                               capsys):
        # --theta reads the ranking threshold rule of --drop-below: [0, 1)
        model_path, _ = friedman2_model
        pool = analyze(load_model(model_path)).ranked_above(0.0)
        code, out, _ = run_cli(capsys, "refine", "--model", str(model_path),
                               "--expand", "3", "--theta", "0", "--out",
                               str(tmp_path / "terms.json"))
        assert code == 0
        assert json.loads(out)["added"] == [list(u) for u in itertools.combinations(pool, 3)]

    def test_drop_below_keeps_friedman1_informative_variables(self, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        run_cli(
            capsys,
            "fit", "--friedman", "1", "--ds", "2", "--bandwidths", "4,2",
            "--lambda", "3", "--seed", "0", "--out", str(model_path),
        )
        terms_path = tmp_path / "terms.json"
        code, _, _ = run_cli(
            capsys, "refine", "--model", str(model_path),
            "--drop-below", "0.02", "--out", str(terms_path),
        )
        assert code == 0
        reduced = load_termset(terms_path)
        assert tuple(sorted({i for u in reduced for i in u})) == (1, 2, 3, 4, 5)
        assert len(reduced) == 16

    def test_zero_variance_model_exits_4(self, tmp_path, capsys):
        model_obj = {
            "basis": "cos",
            "dimension": 2,
            "superposition_threshold": 1,
            "terms": [[], [1], [2]],
            "bandwidths": {"1": 2},
            "lambda": 0.0,
            "coefficients": [5.0, 0.0, 0.0],
            "real_output": True,
            "diagnostics": {"iterations": 0, "relative_residual": 0.0,
                            "stop_reason": "direct", "oversampling": 1.0},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_obj))
        code, _, err = run_cli(capsys, "rank", "--model", str(path))
        assert code == 4
        assert "variance" in err

    def test_rank_of_a_model_over_a_huge_dimension_exits_3(self, friedman2_model, tmp_path,
                                                          capsys):
        # one score per variable would take 8e15 bytes: refused before it is allocated
        model_path, _ = friedman2_model
        obj = read_json(model_path) | {
            "dimension": 10**15, "superposition_threshold": 1, "terms": [[], [10**15]],
            "bandwidths": {"1": 2}, "coefficients": [0.0, 1.0],
        }
        huge_path = tmp_path / "huge.json"
        huge_path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "rank", "--model", str(huge_path))
        assert code == 3
        assert out == ""
        assert "a ranking of 1000000000000000 variables" in err
        assert "Traceback" not in err

    def test_expansion_beyond_physical_memory_exits_2(self, friedman2_model, tmp_path,
                                                      capsys, no_enumeration):
        # all 40 variables rank above 0: orders 3 to 20 hold 6.2e11 subsets
        model_path, _ = friedman2_model
        obj = read_json(model_path) | {
            "dimension": 40, "superposition_threshold": 2,
            "terms": [[]] + [[i] for i in range(1, 41)],
            "bandwidths": {"1": 2}, "coefficients": [0.0] + [1.0] * 40,
        }
        wide_path = tmp_path / "wide.json"
        wide_path.write_text(json.dumps(obj))
        out_path = tmp_path / "t.json"
        code, out, err = run_cli(capsys, "refine", "--model", str(wide_path), "--expand", "20",
                                 "--theta", "0", "--out", str(out_path))
        assert code == 2
        assert err.startswith("configuration error: an expansion of ") and err.count("\n") == 1
        assert out == "" and not out_path.exists()


class TestPredict:
    def test_predictions_with_metrics(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        rng = np.random.default_rng(5)
        rows = ["x1,x2,x3,x4,y"]
        for x in rng.uniform(size=(20, 4)):
            rows.append(",".join(f"{v:.6f}" for v in x) + ",1.0")
        csv_path = tmp_path / "new.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "predict", "--model", str(model_path),
            "--csv", str(csv_path), "--target", "y",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["predictions"]) == 20
        assert "mse" in payload["metrics"]

    def test_normalization_stats_travel_with_the_model(self, tmp_path, capsys):
        # raw features live in [5, 10]; the model records the training
        # extrema and predict re-applies them to raw inputs
        rng = np.random.default_rng(3)
        rows = ["a,b,y"]
        for x, z in rng.uniform(5.0, 10.0, size=(40, 2)):
            rows.append(f"{x:.6f},{z:.6f},{x - z:.6f}")
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys,
            "fit", "--csv", str(csv_path), "--target", "y", "--ds", "1",
            "--bandwidths", "4", "--split", "0.8", "--normalize",
            "--out", str(model_path),
        )
        assert code == 0
        assert "normalization" in read_json(model_path)
        code, out, _ = run_cli(
            capsys, "predict", "--model", str(model_path),
            "--csv", str(csv_path), "--target", "y",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["predictions"]) == 40
        assert payload["metrics"]["rmse"] < 1.0

    @pytest.mark.parametrize(
        "flags", [("--normalize",), ("--normalize", "--normalize-target")]
    )
    def test_normalization_survives_load_and_save(self, flags, tmp_path, capsys):
        rng = np.random.default_rng(8)
        rows = ["a,b,y"]
        for x, z in rng.uniform(5.0, 10.0, size=(60, 2)):
            rows.append(f"{x:.6f},{z:.6f},{np.sin(x) + z:.6f}")
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys,
            "fit", "--csv", str(csv_path), "--target", "y", "--basis", "per",
            "--ds", "2", "--bandwidths", "6,2", "--split", "0.8", *flags,
            "--out", str(model_path),
        )
        assert code == 0
        model = load_model(model_path)
        block = read_json(model_path)["normalization"]
        assert model.normalization.feature_min.tolist() == block["feature_min"]
        assert model.normalization.target_max == block["target_max"]
        resaved = tmp_path / "resaved.json"
        save_model(model, resaved)
        assert resaved.read_bytes() == model_path.read_bytes()
        outputs = []
        for path in (model_path, resaved):
            code, out, _ = run_cli(
                capsys, "predict", "--model", str(path),
                "--csv", str(csv_path), "--target", "y",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_predictions_without_target(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        csv_path = tmp_path / "new.csv"
        csv_path.write_text("x1,x2,x3,x4\n0.1,0.2,0.3,0.4\n")
        code, out, _ = run_cli(
            capsys, "predict", "--model", str(model_path), "--csv", str(csv_path)
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["predictions"]) == 1
        assert "metrics" not in payload

    def test_complex_output_model_writes_re_im_pairs(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        nodes = rng.uniform(-0.5, 0.5, size=(40, 2))
        values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        model = fit(nodes, values, superposition_terms(2, 1),
                    BandwidthProfile.from_list([4]), BasisKind.EXPONENTIAL)
        assert not model.real_output
        model_path = tmp_path / "model.json"
        save_model(model, model_path)
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a,b\n" + "".join(f"{x:.6f},{z:.6f}\n" for x, z in nodes[:5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a dropped imaginary part warns
            code, out, _ = run_cli(
                capsys, "predict", "--model", str(model_path), "--csv", str(csv_path)
            )
        assert code == 0
        expected = predict(load_model(model_path), load_csv(csv_path, None).nodes)
        assert np.all(np.abs(expected.imag) > 0.0)
        assert json.loads(out)["predictions"] == [[v.real, v.imag] for v in expected]

    def test_feature_count_mismatch_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        rows = ["a,b,y"]
        for x, z in rng.uniform(size=(30, 2)):
            rows.append(f"{x:.6f},{z:.6f},{x * z:.6f}")
        train_path = tmp_path / "train.csv"
        train_path.write_text("\n".join(rows) + "\n")
        model_path = tmp_path / "model.json"
        code, _, _ = run_cli(
            capsys,
            "fit", "--csv", str(train_path), "--target", "y", "--ds", "1",
            "--bandwidths", "4", "--split", "0.8", "--normalize",
            "--out", str(model_path),
        )
        assert code == 0
        wide_path = tmp_path / "wide.csv"
        wide_path.write_text("a,b,c,y\n0.1,0.2,0.3,1.0\n0.4,0.5,0.6,2.0\n")
        code, out, err = run_cli(
            capsys, "predict", "--model", str(model_path),
            "--csv", str(wide_path), "--target", "y",
        )
        assert code == 3
        assert out == ""
        assert "3 feature columns" in err and "over 2 variables" in err

    def test_model_over_a_huge_variable_index_predict_exits_3(self, friedman2_model, tmp_path,
                                                              capsys):
        # the model loads without a variable-sized allocation; the CSV then has too few columns
        model_path, _ = friedman2_model
        obj = read_json(model_path) | {
            "dimension": 10**15, "superposition_threshold": 1, "terms": [[], [10**15]],
            "bandwidths": {"1": 2}, "coefficients": [0.0, 1.0],
        }
        huge_path = tmp_path / "huge.json"
        huge_path.write_text(json.dumps(obj))
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a,b\n0.1,0.2\n")
        code, out, err = run_cli(capsys, "predict", "--model", str(huge_path),
                                 "--csv", str(csv_path))
        assert code == 3
        assert out == ""
        assert "2 feature columns, but the model is over 1000000000000000 variables" in err


class TestPlots:
    def test_svg_outputs_deterministic(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        a = tmp_path / "rank_a.svg"
        b = tmp_path / "rank_b.svg"
        g = tmp_path / "gsi.svg"
        run_cli(capsys, "rank", "--model", str(model_path),
                "--out", str(tmp_path / "r1.json"),
                "--plot-ranking", str(a), "--plot-gsi", str(g))
        run_cli(capsys, "rank", "--model", str(model_path),
                "--out", str(tmp_path / "r2.json"),
                "--plot-ranking", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert g.read_text().startswith("<svg")

    def test_threshold_line_sits_at_the_threshold(self):
        def dashed(svg):
            lines = parseString(svg).getElementsByTagName("line")
            return [line for line in lines if line.getAttribute("stroke-dasharray")]

        assert dashed(svg_bar_chart(["a", "b"], [1.0, 0.5])) == []
        [line] = dashed(svg_bar_chart(["a", "b"], [1.0, 0.5], threshold=0.25))
        # the axis tops out 10% above the largest bar
        y = MARGIN_TOP + (HEIGHT - MARGIN_TOP - MARGIN_BOTTOM) * (1.0 - 0.25 / 1.1)
        assert line.getAttribute("y1") == line.getAttribute("y2") == f"{y:.1f}"


class TestBench:
    def test_bench_friedman_smoke(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code, _, err = run_cli(
            capsys, "bench-friedman", "2", "--reps", "3", "--seed", "0",
            "--out", str(out_path),
        )
        assert code == 0
        result = read_json(out_path)
        assert result["repetitions"] == 3
        assert result["reference_median_mse"] == 17.21e3
        assert set(result["reference_baselines"]) == {"svm", "lm", "mnet", "rForst"}
        assert "median MSE" in err

    def test_bench_friedman_negative_seed_exits_2(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code, _, err = run_cli(capsys, "bench-friedman", "2", "--seed", "-3",
                               "--out", str(out_path))
        assert code == 2
        assert "non-negative" in err
        assert not out_path.exists()

    def test_bench_real_on_synthetic_table(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        rows = ["a,b,c,y"]
        for x in rng.uniform(size=(120, 3)):
            y = 2.0 * x[0] + np.sin(3 * x[1]) + 0.1 * rng.standard_normal()
            rows.append(",".join(f"{v:.6f}" for v in x) + f",{y:.6f}")
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys,
            "bench-real", "custom", "--csv", str(csv_path), "--target", "y",
            "--split", "0.7", "--ds", "2", "--bandwidths", "4,2",
            "--gsi-threshold", "0.001", "--reps", "5", "--seed", "0",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["repetitions"] == 5
        assert summary["metric"] == "rmse"
        assert summary["median"] < 0.5

    def test_bench_real_default_target_from_quoted_header(self, tmp_path, capsys):
        rng = np.random.default_rng(13)
        rows = ['"a","b","y"']
        for x, z in rng.uniform(size=(40, 2)):
            rows.append(f"{x:.6f},{z:.6f},{x + z * z:.6f}")
        csv_path = tmp_path / "quoted.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys, "bench-real", "custom", "--csv", str(csv_path),
            "--split", "0.7", "--reps", "2",
        )
        assert code == 0, err
        assert json.loads(out)["target"] == "y"

    def test_bench_real_split_error_exits_3(self, tmp_path, capsys):
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("a,b,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n0.5,0.6,3.0\n")
        code, out, err = run_cli(
            capsys, "bench-real", "custom", "--csv", str(csv_path),
            "--target", "y", "--split", "0.1", "--reps", "3",
        )
        assert code == 3
        assert out == ""
        assert "fraction 0.1 leaves an empty side for 3 rows" in err

    @pytest.mark.parametrize("flag, text", [("--keep", "1,,2"), ("--keep", "1,"),
                                            ("--bandwidths", "4,,2")])
    def test_bench_real_empty_list_item_exits_2(self, tmp_path, capsys, flag, text):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b,y\n0.1,0.2,0.3\n")
        code, _, err = run_cli(capsys, "bench-real", "custom", "--csv", str(csv_path),
                               "--split", "0.7", flag, text)
        assert code == 2
        assert f"{flag} has an empty item" in err

    def test_bench_real_keep_outside_the_table_exits_2_before_any_fit(self, tmp_path, capsys,
                                                                      monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a fit was reached")

        monkeypatch.setattr("anovafit.bench.fit", unreachable)
        csv_path = tmp_path / "t.csv"
        rows = np.random.default_rng(0).random((6, 5))
        csv_path.write_text("a,b,c,d,y\n" + "".join(",".join(map(str, row)) + "\n"
                                                   for row in rows.tolist()))
        out_path = tmp_path / "o.json"
        code, out, err = run_cli(capsys, "bench-real", "custom", "--csv", str(csv_path),
                                 "--split", "0.5", "--keep", "0", "--out", str(out_path))
        assert code == 2
        assert err == ("configuration error: keep set must be nonempty integers within 1..4, "
                       "got (0,)\n")
        assert out == "" and not out_path.exists()

    @pytest.mark.parametrize("name, flags, expected", [
        ("enc", [], REAL_PRESETS["enc"]),
        ("custom", ["--split", "0.6", "--ds", "3", "--bandwidths", "4,2,2", "--lambda", "0.5",
                    "--gsi-threshold", "0.01", "--metric", "mse", "--normalize-target",
                    "--keep", "1,3"],
         RealPreset(0.6, (Stage(3, (4, 2, 2), 0.5, gsi=0.01), Stage(3, (4, 2, 2), 0.5)),
                    "mse", True, (1, 3))),
        ("ch", ["--ds", "1", "--keep", "2"], dataclasses.replace(
            REAL_PRESETS["ch"], recipe=(Stage(1, (4, 2), 0.0, gsi=0.001), Stage(1, (4, 2), 0.0)),
            keep=(2,))),
        ("enh", ["--lambda", "2", "--gsi-threshold", "0.05"], dataclasses.replace(
            REAL_PRESETS["enh"], recipe=(Stage(2, (4, 2), 2.0, gsi=0.05), Stage(2, (4, 2), 2.0)))),
    ])
    def test_bench_real_flags_set_their_config_fields(self, tmp_path, capsys, monkeypatch,
                                                      name, flags, expected):
        seen = []

        def record(ds, config, repetitions, seed):
            seen.append((config, repetitions, seed))
            return {"median": 0.0, "failures": 0}

        monkeypatch.setattr("anovafit.bench.run_real_benchmark", record)
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b,c,y\n0.1,0.2,0.3,0.4\n")
        code, _, err = run_cli(capsys, "bench-real", name, "--csv", str(csv_path),
                               "--reps", "7", "--seed", "4", *flags)
        assert code == 0, err
        assert seen == [(expected, 7, 4)]
        preset, default = seen[0][0], RealPreset(0.7)
        # a stage flag sets its field on every stage, and --gsi-threshold only on
        # the stage that selects by it: the refit's gsi stays None
        assert len({dataclasses.replace(stage, gsi=None) for stage in preset.recipe}) == 1
        assert preset.recipe[-1].gsi is None
        if name == "custom":  # every field is set by its flag, none left at its default
            assert all(getattr(preset, f.name) != getattr(default, f.name)
                       for f in dataclasses.fields(RealPreset))
            assert all(getattr(stage, f.name) != getattr(default.recipe[0], f.name)
                       for stage in preset.recipe for f in dataclasses.fields(Stage)
                       if f.name not in ("rank", "gsi"))
            assert preset.recipe[0].gsi != default.recipe[0].gsi

    def test_bench_real_bad_bandwidths_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        rows = ["a,b,y", *(",".join(f"{v:.6f}" for v in x) for x in rng.uniform(size=(60, 3)))]
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(capsys, "bench-real", "custom", "--csv", str(csv_path),
                                 "--split", "0.7", "--reps", "3", "--bandwidths", "3,2")
        assert code == 2
        assert out == ""
        assert "configuration error: bandwidth for order 1 must be even" in err

    def test_bench_real_unknown_name_without_split_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "t.csv"
        csv_path.write_text("a,b,y\n0.1,0.2,0.3\n")
        code, _, err = run_cli(capsys, "bench-real", "custom", "--csv", str(csv_path))
        assert code == 2
        assert "unknown dataset 'custom': give --split" in err

    @pytest.mark.parametrize("present", [True, False])
    def test_bench_real_reads_the_data_dir(self, tmp_path, capsys, monkeypatch, present):
        seen = []

        def record(ds, config, repetitions, seed):
            seen.append(ds.size)
            return {"median": 0.0, "failures": 0}

        monkeypatch.setattr("anovafit.bench.run_real_benchmark", record)
        monkeypatch.setenv("ANOVA_DATA_DIR", str(tmp_path))
        if present:
            (tmp_path / "enc.csv").write_text("a,b,y\n0.1,0.2,0.3\n0.4,0.5,0.6\n")
        code, _, err = run_cli(capsys, "bench-real", "enc", "--reps", "2")
        assert code == (0 if present else 3)
        assert seen == ([2] if present else [])
        if not present:
            assert "data error:" in err and str(tmp_path / "enc.csv") in err

    def test_bench_real_without_data_dir_exits_3(self, capsys, monkeypatch):
        monkeypatch.delenv("ANOVA_DATA_DIR", raising=False)
        code, _, err = run_cli(capsys, "bench-real", "asn", "--reps", "2")
        assert code == 3
        assert "ANOVA_DATA_DIR" in err


class TestErrorBoundary:
    def test_bare_value_error_propagates(self, friedman2_model, monkeypatch, capsys):
        model_path, _ = friedman2_model

        def broken(model):
            raise ValueError("a bug, not a user error")

        monkeypatch.setattr("anovafit.cli.analyze", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["rank", "--model", str(model_path)])

    def test_bench_real_non_numeric_split_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("a,b,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["bench-real", "custom", "--csv", str(csv_path), "--split", "abc"])
        assert exc.value.code == 2
        assert "invalid float value" in capsys.readouterr().err

    def test_malformed_split_sizes_quote_the_input(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "fit", "--friedman", "1", "--ds", "1", "--bandwidths", "4",
            "--split", "20.5:10", "--out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "M_train:M_test" in err and "'20.5:10'" in err

    @pytest.mark.parametrize("key, value", [("basis", "wavelet"), ("bandwidths", {"1": 3}),
                                            ("coefficients", [float("nan")] * 19),
                                            # checked against the closed-form union size,
                                            # so no frequency grid of this size is built
                                            ("bandwidths", {"1": 10**6, "2": 2}),
                                            ("bandwidths", {"1": 10**30, "2": 2}),
                                            ("real_output", "false"), ("lambda", "1.5"),
                                            ("lambda", -1), ("lambda", True)])
    def test_bad_model_settings_exit_3(self, friedman2_model, tmp_path, capsys, key, value):
        model_path, _ = friedman2_model
        obj = read_json(model_path)
        obj[key] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(obj))
        code, out, err = run_cli(capsys, "rank", "--model", str(bad_path))
        assert code == 3
        assert out == ""
        assert "malformed model object" in err

    @pytest.mark.parametrize("command, flags", [
        ("rank", []),
        ("predict", ["--csv", "{csv}"]),
        ("refine", ["--gsi-threshold", "0.02", "--out", "{out}"]),
    ])
    def test_scalar_coefficients_exit_3(self, friedman2_model, tmp_path, capsys, command, flags):
        model_path, _ = friedman2_model
        obj = read_json(model_path)
        obj["coefficients"] = 5.0
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(obj))
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a,b,c,d\n0.1,0.2,0.3,0.4\n")
        flags = [f.format(csv=csv_path, out=tmp_path / "t.json") for f in flags]
        code, out, err = run_cli(capsys, command, "--model", str(bad_path), *flags)
        assert code == 3
        assert out == ""
        assert "coefficients of shape ()" in err

    def test_non_finite_coefficient_predict_exits_3(self, friedman2_model, tmp_path, capsys):
        model_path, _ = friedman2_model
        obj = read_json(model_path)
        obj["coefficients"][3] = float("inf")
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(obj))
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a,b,c,d\n0.1,0.2,0.3,0.4\n")
        code, out, err = run_cli(capsys, "predict", "--model", str(bad_path),
                                 "--csv", str(csv_path))
        assert code == 3
        assert out == ""
        assert "non-finite coefficient" in err

    @pytest.mark.parametrize("lo, hi", [([1, 1, 1, 1], [0, 0, 0, 0]),
                                        ([float("nan"), 0, 0, 0], [1, 1, 1, 1]),
                                        ([0, 0, 0], [1, 1, 1])])
    def test_malformed_normalization_extrema_predict_exits_3(self, friedman2_model,
                                                             tmp_path, capsys, lo, hi):
        model_path, _ = friedman2_model
        obj = read_json(model_path)
        obj["normalization"] = {"feature_min": lo, "feature_max": hi,
                                "target_min": None, "target_max": None}
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(obj))  # json writes and reads NaN
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a,b,c,d\n0.1,0.2,0.3,0.4\n")
        code, out, err = run_cli(capsys, "predict", "--model", str(bad_path),
                                 "--csv", str(csv_path))
        assert code == 3
        assert out == ""
        assert "normalization extrema" in err

    def test_model_file_not_json_exits_3(self, tmp_path, capsys):
        bad_path = tmp_path / "model.json"
        bad_path.write_text("not json\n")
        code, _, err = run_cli(capsys, "rank", "--model", str(bad_path))
        assert code == 3
        assert "not a JSON file" in err

    def test_term_file_not_json_exits_3(self, tmp_path, capsys):
        bad_path = tmp_path / "terms.json"
        bad_path.write_bytes(b"[1")
        code, _, err = run_cli(
            capsys, "fit", "--friedman", "2", "--terms", str(bad_path),
            "--bandwidths", "4", "--out", str(tmp_path / "m.json"),
        )
        assert code == 3
        assert "malformed term set file" in err

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"\xffa,b,y\n" + b"0.1,0.2,1.0\n" * 4, "not UTF-8 text"),
            # past the first block the reader decodes: reported by line and column
            (b"a,b,y\n" + b"0.1,0.2,1.0\n" * 2000 + b"0.1,\xff,1.0\n",
             ":2002: column 'b': non-numeric cell"),
        ],
        ids=["header", "late-cell"],
    )
    def test_csv_not_utf8_exits_3(self, friedman2_model, tmp_path, capsys, body, message):
        model_path, _ = friedman2_model
        csv_path = tmp_path / "latin.csv"
        csv_path.write_bytes(body)
        code, _, err = run_cli(capsys, "predict", "--model", str(model_path),
                               "--csv", str(csv_path))
        assert code == 3
        assert message in err
        code, _, err = run_cli(capsys, "bench-real", "custom", "--csv", str(csv_path),
                               "--split", "0.5", "--reps", "1")
        assert code == 3
        assert message in err

    @pytest.mark.parametrize("command, flags", [
        ("rank", ["--model", "{deep}"]),
        ("refine", ["--model", "{deep}", "--gsi-threshold", "0.02", "--out", "{out}"]),
        ("predict", ["--model", "{deep}", "--csv", "{csv}"]),
        ("fit", ["--csv", "{csv}", "--target", "y", "--terms", "{deep}",
                 "--bandwidths", "4", "--out", "{out}"]),
    ])
    def test_deeply_nested_json_exits_3(self, tmp_path, capsys, command, flags):
        # json.load raises RecursionError on nesting this deep
        deep_path = tmp_path / "deep.json"
        deep_path.write_text("[" * 200000 + "]" * 200000)
        csv_path = tmp_path / "x.csv"
        csv_path.write_text("a,b,y\n0.1,0.2,1.0\n0.3,0.4,2.0\n0.5,0.6,3.0\n")
        flags = [f.format(deep=deep_path, csv=csv_path, out=tmp_path / "o.json") for f in flags]
        code, out, err = run_cli(capsys, command, *flags)
        assert code == 3
        assert out == ""
        assert "data error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("header, row, line", [
        ("a," + "b" * 131073 + ",y", "0.1,0.2,1.0", 1),
        ("a,b,y", "0.1," + "c" * 131073 + ",1.0", 3),
    ], ids=["header", "body"])
    def test_csv_cell_beyond_the_field_limit_exits_3(self, tmp_path, capsys, header, row, line):
        # 131073 characters: one more than the csv module's default field limit
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text(f"{header}\n0.1,0.2,1.0\n{row}\n")
        code, out, err = run_cli(capsys, "fit", "--csv", str(csv_path), "--target", "y",
                                 "--ds", "1", "--bandwidths", "4",
                                 "--out", str(tmp_path / "m.json"))
        assert code == 3
        assert out == ""
        assert f"data error: {csv_path}:{line}: field larger than field limit" in err
        assert "Traceback" not in err


class TestParser:
    def test_no_subcommand_prints_help(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 2
        assert "usage" in err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--bogus"])
        assert exc.value.code == 2

    def test_bad_basis_token_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--friedman", "1", "--basis", "wavelet"])
        assert exc.value.code == 2

    def test_fit_defaults_are_the_solver_config_defaults(self, capsys, monkeypatch):
        args = build_parser().parse_args(["fit", "--friedman", "1", "--ds", "1",
                                          "--bandwidths", "4", "--out", "m.json"])
        config = SolverConfig()
        assert (args.lam, args.max_iter, args.tol) == (
            config.regularization, config.max_iterations, config.tolerance
        )
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit):
            main(["fit", "--help"])
        text = capsys.readouterr().out
        assert "(default 0.0)" in text and "(default 1e-06)" in text

    # one number flag each: its command line with {v}, a value that succeeds, and
    # the same value with a digit that is not ASCII or with "_"
    NUMBER_FLAGS = [
        ("fit --friedman {v} --ds 1 --bandwidths 4", "1", "١"),
        ("fit --friedman 1 --ds {v} --bandwidths 4", "1", "١"),
        ("fit --friedman 1 --ds 2 --bandwidths {v}", "4,2", "٤,2"),
        ("fit --friedman 1 --ds 1 --bandwidths 4 --seed {v}", "10", "1_0"),
        ("fit --friedman 1 --ds 1 --bandwidths 4 --lambda {v}", "1", "١"),
        ("fit --friedman 1 --ds 1 --bandwidths 4 --max-iter {v}", "10", "1_0"),
        ("fit --friedman 1 --ds 1 --bandwidths 4 --tol {v}", "1e-3", "１e-3"),
        ("fit --friedman 1 --ds 1 --bandwidths 4 --split {v}", "200:100", "2_00:100"),
        ("fit --csv {csv} --target y --ds 1 --bandwidths 4 --split {v}", "0.5", "0.٥"),
        ("refine --model {model} --gsi-threshold {v}", "0.01", "0.0١"),
        ("refine --model {model} --drop-below {v}", "0.1", "0.١"),
        ("refine --model {model} --expand {v} --theta 0.05", "3", "٣"),
        ("refine --model {model} --expand 3 --theta {v}", "0.05", "0.0_5"),
        ("bench-friedman {v} --reps 1", "1", "١"),
        ("bench-friedman 1 --reps {v}", "1", "١"),
        ("bench-friedman 1 --reps 1 --seed {v}", "10", "1_0"),
        ("bench-real custom --csv {csv} --split 0.7 --reps {v}", "2", "٢"),
        ("bench-real custom --csv {csv} --split 0.7 --reps 2 --seed {v}", "10", "1_0"),
        ("bench-real custom --csv {csv} --reps 2 --split {v}", "0.7", "0.٧"),
        ("bench-real custom --csv {csv} --split 0.7 --reps 2 --ds {v}", "2", "٢"),
        ("bench-real custom --csv {csv} --split 0.7 --reps 2 --lambda {v}", "0.5", "٠.5"),
        ("bench-real custom --csv {csv} --split 0.7 --reps 2 --gsi-threshold {v}", "0.01",
         "0.0١"),
        ("bench-real custom --csv {csv} --split 0.7 --reps 2 --bandwidths {v}", "4,2", "4,٢"),
        ("bench-real custom --csv {csv} --split 0.7 --reps 2 --keep {v}", "1,2", "1,٢"),
    ]

    @pytest.mark.parametrize("template, good, bad", NUMBER_FLAGS,
                             ids=[f"{t.split()[0]}:{t.split('{v}')[0].split()[-1]}"
                                  for t, _, _ in NUMBER_FLAGS])
    def test_number_flags_follow_the_csv_cell_rule(self, tmp_path, capsys, friedman2_model,
                                                   template, good, bad):
        csv_path = tmp_path / "t.csv"
        rows = np.random.default_rng(3).uniform(size=(40, 5))
        csv_path.write_text("a,b,c,d,y\n" + "".join(",".join(f"{v:.6f}" for v in row) + "\n"
                                                    for row in rows))
        paths = {"csv": csv_path, "model": friedman2_model[0]}

        def run(value):
            argv = template.format(v=value, **paths).split() + ["--out", str(tmp_path / "o")]
            if argv[0] == "fit":
                argv += ["--metrics-out", str(tmp_path / "metrics.json")]
            try:
                return run_cli(capsys, *argv)
            except SystemExit as exc:  # argparse's type check: usage, then the error line
                return exc.code, "", capsys.readouterr().err

        assert run(good)[0] == 0
        code, out, err = run(bad)
        assert code == 2 and out == ""
        assert repr(bad) in err.splitlines()[-1]
        assert err.startswith("configuration error: ") and err.count("\n") == 1 or (
            err.startswith("usage: ") and ": error: argument " in err)
