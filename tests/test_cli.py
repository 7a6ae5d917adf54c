"""End-to-end CLI tests driven through main(argv)."""

import json

import numpy as np
import pytest

from gammadep.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    main,
    parse_columns,
    read_csv,
    report_to_dict,
    run_oracle_suite,
)
from gammadep import (
    CombinedResult,
    GammaResult,
    GammaSet,
    GammadepError,
    JackknifeEstimate,
    KernelPairSpec,
    PermutationPlan,
    StatTriple,
    gamma_label,
    permutation_test,
    validate_sample,
)


@pytest.fixture()
def csv_file(tmp_path):
    rng = np.random.default_rng(101)
    data = rng.standard_normal((100, 10))
    path = tmp_path / "data.csv"
    header = ",".join(f"g{i}" for i in range(10))
    rows = "\n".join(",".join(f"{v!r}" for v in row) for row in data.tolist())
    path.write_text(header + "\n" + rows + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def const_y_csv(tmp_path):
    rng = np.random.default_rng(102)
    x = rng.standard_normal((40, 2))
    path = tmp_path / "const.csv"
    lines = ["a,b,c"]
    for row in x.tolist():
        lines.append(f"{row[0]!r},{row[1]!r},1.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestCsvIngestion:
    def test_read_preserves_row_order(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n", encoding="utf-8")
        header, data = read_csv(str(p))
        assert header == ["a", "b"]
        assert np.array_equal(data, [[1, 2], [3, 4], [5, 6]])

    def test_parse_error_reports_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n1,oops\n", encoding="utf-8")
        with pytest.raises(GammadepError) as exc:
            read_csv(str(p))
        assert exc.value.code == "PARSE"
        assert ":3:" in str(exc.value)

    def test_underscore_digit_grouping_is_a_data_error(self, tmp_path, capsys):
        # float() accepts "1_000"; the CSV reader must not
        p = tmp_path / "t.csv"
        rows = [f"{i}.5,{(i * 7) % 11}.25" for i in range(12)]
        rows[4] = " 1_000 , 2.0"
        p.write_text("a,b\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(["test", "--input", str(p), "--x-cols", "a", "--y-cols", "b", "--B", "9", "--seed", "1"])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "PARSE" in err and ":6:" in err and "1_000" in err

    def test_surrounding_whitespace_is_allowed(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n 1.5 ,2\n3,\t4e1\n", encoding="utf-8")
        _, data = read_csv(str(p))
        assert np.array_equal(data, [[1.5, 2.0], [3.0, 40.0]])

    def test_column_range(self):
        assert parse_columns("0..3", ["a", "b", "c", "d"]) == [0, 1, 2]

    def test_column_names(self):
        assert parse_columns("c,a", ["a", "b", "c"]) == [2, 0]

    def test_column_indices(self):
        assert parse_columns("2,0", ["a", "b", "c"]) == [2, 0]

    def test_column_not_found(self):
        with pytest.raises(GammadepError) as exc:
            parse_columns("zz", ["a", "b"])
        assert exc.value.code == "COLUMN_NOT_FOUND"


class TestTestCommand:
    def test_json_shape(self, csv_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "test",
                "--input", csv_file,
                "--x-cols", "0..5",
                "--y-cols", "5..10",
                "--gamma", "1,2,3,4,5,6,inf",
                "--B", "200",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert len(doc["per_gamma"]) == 7
        assert len(doc["combined"]) == 3
        assert doc["seed"] == 7
        assert doc["gammas"][-1] == "inf"
        assert "generated_at" in doc

    def test_reproducible_runs_are_byte_identical(self, csv_file, tmp_path):
        args = [
            "test", "--input", csv_file, "--x-cols", "0..5", "--y-cols", "5..10",
            "--B", "60", "--seed", "3", "--reproducible",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_thread_count_does_not_change_output(self, csv_file, tmp_path):
        args = [
            "test", "--input", csv_file, "--x-cols", "0..5", "--y-cols", "5..10",
            "--B", "60", "--seed", "3", "--reproducible",
        ]
        a = tmp_path / "t1.json"
        b = tmp_path / "t4.json"
        assert main(args + ["--threads", "1", "--out", str(a)]) == EXIT_OK
        assert main(args + ["--threads", "4", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_threads_env_var_fallback(self, csv_file, tmp_path, monkeypatch):
        args = [
            "test", "--input", csv_file, "--x-cols", "0..3", "--y-cols", "3..6",
            "--B", "40", "--seed", "8", "--reproducible",
        ]
        a = tmp_path / "noenv.json"
        b = tmp_path / "env.json"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        monkeypatch.setenv("GAMMADEP_THREADS", "3")
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_constant_y_degenerate_report(self, const_y_csv, tmp_path):
        out = tmp_path / "deg.json"
        code = main(
            [
                "test", "--input", const_y_csv, "--x-cols", "a,b", "--y-cols", "c",
                "--B", "50", "--seed", "2", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        st = doc["stat_triple"]
        assert (st["s1"], st["s2"], st["s3"]) == (0.0, 0.0, 0.0)
        for entry in doc["per_gamma"].values():
            assert entry["scaled_stat"] == 0.0
            assert entry["p_perm"] == 1.0
        for entry in doc["combined"].values():
            assert entry["p_perm"] == 1.0

    def test_column_not_found_is_data_error(self, csv_file, capsys):
        code = main(
            ["test", "--input", csv_file, "--x-cols", "nope", "--y-cols", "0..2", "--seed", "1"]
        )
        assert code == EXIT_DATA
        assert "COLUMN_NOT_FOUND" in capsys.readouterr().err

    @staticmethod
    def _scaled_csv(tmp_path, scale):
        data = np.random.default_rng(7).standard_normal((40, 4)) * scale
        p = tmp_path / "big.csv"
        rows = "\n".join(",".join(f"{v!r}" for v in row) for row in data.tolist())
        p.write_text("a,b,c,d\n" + rows + "\n", encoding="utf-8")
        return str(p)

    def test_overflowing_default_gammas_is_data_error(self, tmp_path, capsys):
        # u ~ 1e60, so u^6 is inf: a coded error, not a JSON ValueError
        path = self._scaled_csv(tmp_path, 1e30)
        code = main(
            ["test", "--input", path, "--x-cols", "0..2", "--y-cols", "2..4", "--B", "19", "--seed", "1"]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "NONFINITE" in err and "gamma 6" in err

    def test_overflowing_pow_is_data_error(self, tmp_path, capsys):
        # u ~ 1e35, so float u**10 raises OverflowError inside aggregate
        path = self._scaled_csv(tmp_path, 1e18)
        code = main(
            ["test", "--input", path, "--x-cols", "0..2", "--y-cols", "2..4", "--B", "19",
             "--seed", "1", "--gamma", "10"]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "NONFINITE" in err and "u^10" in err

    def test_missing_file_is_data_error(self, capsys):
        code = main(
            ["test", "--input", "/nonexistent.csv", "--x-cols", "0..1", "--y-cols", "1..2", "--seed", "1"]
        )
        assert code == EXIT_DATA

    def test_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_text_format(self, csv_file, capsys):
        code = main(
            [
                "test", "--input", csv_file, "--x-cols", "0..2", "--y-cols", "2..4",
                "--B", "30", "--seed", "5", "--format", "text",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "gamma" in out and "fisher" in out

    def test_ghsic_kernel_roundtrip(self, csv_file, tmp_path):
        out = tmp_path / "g.json"
        code = main(
            [
                "test", "--input", csv_file, "--x-cols", "0..3", "--y-cols", "3..6",
                "--kernel", "ghsic", "--B", "40", "--seed", "9", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kernel"]["id"] == "ghsic"
        assert len(doc["kernel"]["bandwidths"]) == 2


class TestReportRoundTrip:
    def test_serialize_parse_equality(self):
        # every field of the JSON document, after a trip through json, equals
        # the TestReport's own value
        rng = np.random.default_rng(103)
        sample = validate_sample(rng.standard_normal((25, 2)), rng.standard_normal((25, 3)))
        kernels = ((KernelPairSpec.dcov(), None), (KernelPairSpec.ghsic(0.7, 1.3), [0.7, 1.3]))
        for spec, bandwidths in kernels:
            report = permutation_test(sample, spec, GammaSet.default(), PermutationPlan(40, 77))
            doc = json.loads(json.dumps(report_to_dict(report)))
            t = report.triple
            assert doc["stat_triple"] == {"s1": t.s1, "s2": t.s2, "s3": t.s3}
            assert doc["sigma0_sq"] == report.sigma0_sq
            assert {g: GammaResult(**r) for g, r in doc["per_gamma"].items()} == {
                gamma_label(g): r for g, r in report.per_gamma.items()
            }
            assert {c: CombinedResult(**r) for c, r in doc["combined"].items()} == report.combined
            meta = report.meta
            assert doc["kernel"] == {"id": spec.id, "m": spec.m, "bandwidths": bandwidths}
            assert doc["gammas"] == [gamma_label(g) for g in meta["gammas"]]
            assert doc["combiners"] == list(meta["combiners"])
            for key in ("b_count", "seed", "n", "d1", "d2", "tie_mode"):
                assert doc[key] == meta[key]


class TestSimulateCommand:
    def test_table_written(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = main(
            [
                "simulate", "--model", "m1", "--n", "30", "--d", "2", "--kappa", "0",
                "--reps", "100", "--B", "40", "--gamma", "1,2", "--seed", "12",
                "--out", str(out), "--reproducible",
            ]
        )
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "T1" in text
        doc = json.loads(out.read_text())
        rows = {r["method"]: r for r in doc["rows"]}
        assert rows["T1"]["rate"] == 1.0  # noiseless linear model
        assert doc["seed"] == 12


class TestOracleCheckCommand:
    def test_default_suite_passes(self, capsys):
        code = main(["oracle-check", "--seeds", "12", "--seed", "1", "--n-max", "10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "dcov: PASS" in out and "ghsic: PASS" in out

    def test_pcov_reports_skipped(self, capsys):
        code = main(["oracle-check", "--kernel", "pcov", "--seeds", "3", "--seed", "1"])
        assert code == EXIT_OK
        assert "pcov: SKIPPED" in capsys.readouterr().out

    def test_injected_fault_fails_with_diagnostics(self):
        def broken_triple(mats):
            t = StatTriple(0.0, 0.0, 0.0, mats.n, mats.spec)
            real = __import__("gammadep").fast_triple_pair(mats)
            # perturb the collision-correction coefficient path
            return StatTriple(real.s1, real.s2 + 1e-6, real.s3, mats.n, mats.spec)

        doc = run_oracle_suite(seeds=6, kernels=("dcov",), triple_fn=broken_triple)
        assert doc["status"] == "FAIL"
        assert doc["max_error"] >= 1e-7

    def test_broken_jackknife_detected(self):
        def broken_jack(mats):
            real = __import__("gammadep").jackknife_fast(mats)
            return JackknifeEstimate(real.sigma0_sq * 1.001, real.n, "fast")

        doc = run_oracle_suite(seeds=6, kernels=("ghsic",), jack_fn=broken_jack)
        assert doc["status"] == "FAIL"


class TestPopulationCommand:
    def test_population_json(self, tmp_path):
        out = tmp_path / "pop.json"
        code = main(
            [
                "population", "--model", "m1", "--d", "3", "--n-mc", "20000",
                "--seed", "4", "--out", str(out), "--reproducible",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["sum"] == doc["u"] + doc["v"]
        assert doc["n_mc"] == 20000
        assert doc["kappa"] == 1.5  # m1 normal default

    def test_population_text(self, capsys):
        code = main(
            [
                "population", "--model", "m3", "--d", "2", "--n-mc", "5000",
                "--seed", "4", "--format", "text",
            ]
        )
        assert code == EXIT_OK
        assert "sum" in capsys.readouterr().out
