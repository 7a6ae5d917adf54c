"""End-to-end CLI tests driven through main(argv)."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from gammadep import kernels
from gammadep.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_USAGE,
    build_parser,
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

    def test_equals_a_float_per_cell_reference(self, tmp_path):
        text = (
            "a, b ,c\r\n"
            "-1.5,+2,3e-3\r\n"
            "\r\n"
            ".5,5.,-.25E+2\r\n"
            '"7","-0.0", 1e308\r\n'
            "\t4\t, 6 ,-9.999999999999999e-309\r\n"
            "   \r\n"
            "0.1,0.2,0.30000000000000004\r\n"
        )
        p = tmp_path / "t.csv"
        p.write_bytes(text.encode("utf-8"))
        header, data = read_csv(str(p))
        with open(p, encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if any(v.strip() for v in r)]
        expected = np.array([[float(v) for v in r] for r in rows[1:]], dtype=np.float64)
        assert header == ["a", "b", "c"]
        assert data.dtype == np.float64 and data.shape == (5, 3)
        assert data.tobytes() == expected.tobytes()

    def test_nonfinite_values_parse_and_are_refused_by_the_sample(self, tmp_path, capsys):
        p = tmp_path / "t.csv"
        rows = [f"{i}.5,{(i * 7) % 11}.25" for i in range(12)]
        rows[3] = "inf, nan"
        p.write_text("a,b\n" + "\n".join(rows) + "\n", encoding="utf-8")
        _, data = read_csv(str(p))
        assert data[3, 0] == np.inf and np.isnan(data[3, 1])
        code = main(["test", "--input", str(p), "--x-cols", "a", "--y-cols", "b", "--B", "9", "--seed", "1"])
        assert code == EXIT_DATA
        assert "NONFINITE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body, line, message",
        [
            ("1,2\n\n3,x\n", 4, "could not convert"),
            ("1,2\n\n\n3,4,5\n", 5, "expected 2 fields, got 3"),
            ("1,2\n\n3,1_0\n", 4, "underscore"),
        ],
    )
    def test_parse_errors_name_the_file_line(self, tmp_path, body, line, message):
        # blank lines are skipped but still counted
        p = tmp_path / "t.csv"
        p.write_text("a,b\n" + body, encoding="utf-8")
        with pytest.raises(GammadepError) as exc:
            read_csv(str(p))
        assert exc.value.code == "PARSE"
        assert f"t.csv:{line}:" in str(exc.value) and message in str(exc.value)

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n\n \n", encoding="utf-8")
        with pytest.raises(GammadepError) as exc:
            read_csv(str(p))
        assert exc.value.code == "EMPTY"

    def test_holds_the_table_once(self, tmp_path):
        # one float64 per cell plus buffer slack; a Python float per cell
        # would peak at about 5x the table
        rng = np.random.default_rng(7)
        p = tmp_path / "wide.csv"
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(",".join(f"c{i}" for i in range(50)) + "\n")
            np.savetxt(fh, rng.standard_normal((2000, 50)), delimiter=",", fmt="%.17g")
        tracemalloc.start()
        try:
            _, data = read_csv(str(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.shape == (2000, 50)
        assert peak <= 3 * data.nbytes

    def test_utf8_bom_is_dropped(self, tmp_path, capsys):
        # Excel's "CSV UTF-8" starts with a byte order mark
        p = tmp_path / "bom.csv"
        rows = [f"{i}.5,{(i * 7) % 11}.25" for i in range(12)]
        p.write_bytes(("a,b\n" + "\n".join(rows) + "\n").encode("utf-8-sig"))
        header, _ = read_csv(str(p))
        assert header == ["a", "b"]
        code = main(["test", "--input", str(p), "--x-cols", "a", "--y-cols", "b", "--B", "9", "--seed", "1"])
        assert code == EXIT_OK, capsys.readouterr().err

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

    def test_duplicate_name_is_refused(self):
        header = ["a", "a", "b"]
        for selector in ("a", "b,a"):
            with pytest.raises(GammadepError) as exc:
                parse_columns(selector, header)
            assert exc.value.code == "AMBIGUOUS_COLUMN"
        # a unique name, indices and ranges still select on such a header
        assert parse_columns("b", header) == [2]
        assert parse_columns("1,0", header) == [1, 0]
        assert parse_columns("0..2", header) == [0, 1]


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

    @pytest.mark.parametrize("flag, env", [("0", None), ("-3", None), (None, "0"), (None, "-1")])
    def test_threads_below_one_are_refused(self, flag, env, csv_file, capsys, monkeypatch):
        argv = ["test", "--input", csv_file, "--x-cols", "0..2", "--y-cols", "2..4", "--B", "9", "--seed", "1"]
        if env is not None:
            monkeypatch.setenv("GAMMADEP_THREADS", env)
        assert main(argv + (["--threads", flag] if flag else [])) == EXIT_DATA
        captured = capsys.readouterr()
        assert "BAD_THREADS" in captured.err and captured.out == ""

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

    def test_killed_permutation_worker_is_data_error(self, tmp_path, capsys, monkeypatch):
        # B n^2 = 61 x 400^2 forks one child for b = 31..61, which kills itself
        import signal

        data = np.random.default_rng(12).standard_normal((400, 4))
        path = tmp_path / "big.csv"
        rows = "\n".join(",".join(f"{v!r}" for v in row) for row in data.tolist())
        path.write_text("a,b,c,d\n" + rows + "\n", encoding="utf-8")
        parent, real = os.getpid(), PermutationPlan.permutation

        def permutation(self, b, n):
            if b == 45 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(self, b, n)

        monkeypatch.setattr(PermutationPlan, "permutation", permutation)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        argv = ["test", "--input", str(path), "--x-cols", "0..2", "--y-cols", "2..4", "--B", "61", "--seed", "1"]
        assert main(argv + ["--threads", "2"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert "WORKER_FAILED" in captured.err and "killed by signal 9" in captured.err
        assert captured.out == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_duplicate_header_name_is_data_error(self, tmp_path, capsys):
        data = np.random.default_rng(11).standard_normal((20, 3))
        path = tmp_path / "dup.csv"
        rows = "\n".join(",".join(f"{v!r}" for v in row) for row in data.tolist())
        path.write_text("a,a,b\n" + rows + "\n", encoding="utf-8")
        base = ["test", "--input", str(path), "--B", "9", "--seed", "1", "--reproducible"]
        code = main(base + ["--x-cols", "a", "--y-cols", "b"])
        captured = capsys.readouterr()
        assert code == EXIT_DATA
        assert "AMBIGUOUS_COLUMN" in captured.err and captured.out == ""
        assert main(base + ["--x-cols", "1", "--y-cols", "2"]) == EXIT_OK

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
        # u ~ 1e35, so u^10 (a product of 10 factors) is inf inside aggregate
        path = self._scaled_csv(tmp_path, 1e18)
        code = main(
            ["test", "--input", path, "--x-cols", "0..2", "--y-cols", "2..4", "--B", "19",
             "--seed", "1", "--gamma", "10"]
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "NONFINITE" in err and "u^10" in err

    @pytest.mark.parametrize("kernel", ["dcov", "ghsic"])
    def test_memory_guard_exit_code(self, csv_file, tmp_path, monkeypatch, capsys, kernel):
        # 1 MB available is below two 100 x 100 matrices plus the fixed
        # tile and gather blocks; a missing meminfo skips the check
        args = ["test", "--input", csv_file, "--x-cols", "0..3", "--y-cols", "3..6",
                "--B", "9", "--seed", "1", "--kernel", kernel, "--reproducible"]
        assert main(args) == EXIT_OK
        expected = capsys.readouterr().out
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal: 4096 kB\nMemAvailable: 1024 kB\n", encoding="ascii")
        monkeypatch.setattr(kernels, "_MEMINFO", str(meminfo))
        assert main(args) == EXIT_DATA
        assert "TOO_LARGE" in capsys.readouterr().err
        monkeypatch.setattr(kernels, "_MEMINFO", str(tmp_path / "absent"))
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == expected

    @staticmethod
    def _small_csv(tmp_path, rows):
        path = tmp_path / f"small{rows}.csv"
        data = np.random.default_rng(rows).standard_normal((rows, 4))
        np.savetxt(path, data, delimiter=",", header="x1,x2,y1,y2", comments="")
        return str(path)

    def test_pcov_memory_guard_exit_code(self, tmp_path, monkeypatch, capsys):
        # 1 MB available is below the tuple columns of a 12-row pcov test
        # (95,040 ordered 5-tuples); a missing meminfo skips the check
        args = ["test", "--input", self._small_csv(tmp_path, 12), "--x-cols", "0..2", "--y-cols", "2..4",
                "--B", "19", "--seed", "0", "--kernel", "pcov", "--reproducible"]
        assert main(args) == EXIT_OK
        expected = capsys.readouterr().out
        meminfo = tmp_path / "meminfo"
        meminfo.write_text("MemTotal: 4096 kB\nMemAvailable: 1024 kB\n", encoding="ascii")
        monkeypatch.setattr(kernels, "_MEMINFO", str(meminfo))
        assert main(args) == EXIT_DATA
        assert "TOO_LARGE" in capsys.readouterr().err
        monkeypatch.setattr(kernels, "_MEMINFO", str(tmp_path / "absent"))
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == expected

    def test_pcov_past_the_tuple_ceiling(self, tmp_path, capsys):
        # 28 rows have 11,793,600 ordered 5-tuples, past the 1e7 ceiling
        args = ["test", "--input", self._small_csv(tmp_path, 28), "--x-cols", "0..2", "--y-cols", "2..4",
                "--B", "19", "--seed", "0", "--kernel", "pcov"]
        assert main(args) == EXIT_DATA
        captured = capsys.readouterr()
        assert "TOO_LARGE" in captured.err and "ceiling" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--x-cols", "0..2", "--y-cols", "2..4", "--B", "2000000000"],
            ["simulate", "--model", "null-a", "--n", "20", "--d", "2", "--reps", "100", "--B", "300000000"],
        ],
        ids=["test", "simulate"],
    )
    def test_oversized_pool_exit_code(self, argv, tmp_path, monkeypatch, capsys):
        # the pool's byte model (mu_hat alone is 104 GiB at B = 2e9 and 15.6
        # GiB at 3e8 with seven exponents) is refused before its first
        # allocation, on any host: 64 GiB are set as available
        meminfo = tmp_path / "meminfo"
        meminfo.write_text(f"MemTotal: {2**26} kB\nMemAvailable: {2**26} kB\n", encoding="ascii")
        monkeypatch.setattr(kernels, "_MEMINFO", str(meminfo))
        if argv[0] == "test":
            argv = argv + ["--input", self._small_csv(tmp_path, 12)]
        assert main(argv + ["--seed", "1"]) == EXIT_DATA
        captured = capsys.readouterr()
        assert "TOO_LARGE" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

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

    def test_json_format_stdout_is_one_document(self, capsys):
        code = main(
            [
                "simulate", "--model", "m1", "--n", "30", "--d", "2", "--kappa", "0",
                "--reps", "100", "--B", "40", "--gamma", "1,2", "--seed", "12",
                "--format", "json", "--reproducible",
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "simulate"
        assert {r["method"] for r in doc["rows"]} == {"T1", "T2", "fisher", "min", "cauchy"}


class TestOracleCheckCommand:
    def test_default_suite_passes(self, capsys):
        code = main(["oracle-check", "--seeds", "12", "--seed", "1", "--n-max", "10"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "dcov: PASS" in out and "ghsic: PASS" in out

    def test_json_format_stdout_is_one_document(self, capsys):
        code = main(["oracle-check", "--seeds", "4", "--seed", "1", "--n-max", "8", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "oracle-check"
        assert doc["status"] == "PASS"

    def test_pcov_is_refused(self, capsys):
        # pcov has no fast path to compare, so a pcov entry would check nothing
        code = main(["oracle-check", "--kernel", "pcov", "--seeds", "3", "--seed", "1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_injected_fault_fails_with_diagnostics(self):
        def broken_triple(mats):
            t = StatTriple(0.0, 0.0, 0.0)
            real = __import__("gammadep").fast_triple_pair(mats)
            # perturb the collision-correction coefficient path
            return StatTriple(real.s1, real.s2 + 1e-6, real.s3)

        doc = run_oracle_suite(seeds=6, kernels=("dcov",), triple_fn=broken_triple)
        assert doc["status"] == "FAIL"
        assert doc["max_error"] >= 1e-7

    def test_broken_jackknife_detected(self):
        def broken_jack(mats):
            return __import__("gammadep").jackknife_fast(mats) * 1.001

        doc = run_oracle_suite(seeds=6, kernels=("ghsic",), jack_fn=broken_jack)
        assert doc["status"] == "FAIL"

    def test_seed_is_used_and_echoed(self, tmp_path):
        outs = []
        for k, seed in enumerate(("5", "5", "6")):
            out = tmp_path / f"oracle{k}.json"
            argv = ["oracle-check", "--seeds", "4", "--seed", seed, "--n-max", "8", "--out", str(out), "--reproducible"]
            assert main(argv) == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        docs = [json.loads(b) for b in outs]
        assert [d["seed"] for d in docs] == [5, 5, 6]
        direct = run_oracle_suite(seeds=4, n_range=(6, 8), seed=5)
        assert docs[0]["entries"] == direct["entries"]

    def test_seed_selects_the_instances(self):
        def drawn(seed):
            sums = []

            def spy(mats):
                sums.append(mats.a_total)
                return __import__("gammadep").fast_triple_pair(mats)

            run_oracle_suite(seeds=4, kernels=("dcov",), triple_fn=spy, seed=seed)
            return sums

        assert drawn(7) == drawn(7)
        assert drawn(7) != drawn(8)
        # the default keeps the instances criterion 1 has always checked
        assert run_oracle_suite(seeds=1, kernels=("dcov",))["seed"] == 424242

    @pytest.mark.parametrize(
        "args, code",
        [
            (["--seeds", "0"], "BAD_SEEDS"),
            (["--seeds", "-2"], "BAD_SEEDS"),
            (["--n-min", "7", "--n-max", "6"], "BAD_N_RANGE"),
            (["--tol", "nan"], "BAD_TOL"),
            (["--tol", "inf"], "BAD_TOL"),
            (["--tol=-1e-10"], "BAD_TOL"),
            (["--n-min", "3"], "BAD_N_RANGE"),
            (["--n-min", "-1"], "BAD_N_RANGE"),
        ],
    )
    def test_bad_suite_options_are_refused(self, args, code, capsys):
        # an empty suite would print PASS with no instance checked, and a
        # nan tolerance FAIL (or a JSON ValueError) whatever the errors
        assert main(["oracle-check", "--seed", "1", *args]) == EXIT_DATA
        captured = capsys.readouterr()
        assert code in captured.err and "Traceback" not in captured.err
        assert "PASS" not in captured.out


class TestOutOfRangeFloats:
    @pytest.mark.parametrize("alpha", ["nan", "7", "0", "1", "-0.5", "inf"])
    def test_test_alpha(self, alpha, csv_file, capsys):
        # test reports no decision at a level, so it takes no --alpha at all
        argv = ["test", "--input", csv_file, "--x-cols", "0..2", "--y-cols", "2..4",
                "--B", "9", "--seed", "1", "--alpha", alpha]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "unrecognized arguments: --alpha" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kappa", ["nan", "inf", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "population"])
    def test_kappa(self, command, kappa, capsys):
        argv = [command, "--model", "m1", "--d", "2", "--kappa", kappa, "--seed", "1"]
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert "BAD_KAPPA" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


class TestNonpositiveDimension:
    @pytest.mark.parametrize("command", ["simulate", "population"])
    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_exits_with_bad_dim(self, command, d, capsys):
        code = main([command, "--model", "null-a", "--d", d, "--seed", "1"])
        assert code == EXIT_DATA
        assert "BAD_DIM" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", ["simulate", "population"])
    def test_null_b_echoes_the_t3_noise_it_draws(self, command, tmp_path):
        base = [command, "--model", "null-b", "--d", "2", "--seed", "4", "--reproducible"]
        if command == "simulate":
            base += ["--n", "12", "--reps", "100", "--B", "9", "--gamma", "2"]
        else:
            base += ["--n-mc", "500"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--out", str(a)]) == EXIT_OK
        assert main(base + ["--error", "t3", "--out", str(b)]) == EXIT_OK
        assert json.loads(a.read_text())["error"] == "t3"
        assert a.read_bytes() == b.read_bytes()

    def test_population_text(self, capsys):
        code = main(
            [
                "population", "--model", "m3", "--d", "2", "--n-mc", "5000",
                "--seed", "4", "--format", "text",
            ]
        )
        assert code == EXIT_OK
        assert "sum" in capsys.readouterr().out


class TestRefusedInputs:
    """An input that could not change the result is refused, not dropped."""

    @staticmethod
    def refused(argv, message, capsys):
        assert main(argv) == EXIT_DATA
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("kernel", ["dcov", "pcov"])
    def test_test_bandwidths_are_for_ghsic_only(self, kernel, csv_file, capsys):
        argv = ["test", "--input", csv_file, "--x-cols", "0..2", "--y-cols", "2..4", "--kernel", kernel,
                "--sigma-x", "1", "--sigma-y", "1", "--B", "9", "--seed", "1"]
        self.refused(argv, f"BAD_KERNEL: {kernel} takes no bandwidths", capsys)

    @pytest.mark.parametrize("kernel", ["dcov", "pcov"])
    def test_population_bandwidths_are_for_ghsic_only(self, kernel, capsys):
        argv = ["population", "--model", "m1", "--d", "2", "--kernel", kernel,
                "--sigma-x", "1", "--sigma-y", "1", "--n-mc", "100", "--seed", "1"]
        self.refused(argv, f"BAD_KERNEL: {kernel} takes no bandwidths", capsys)

    @pytest.mark.parametrize("sigmas", [[], ["--sigma-x", "1"], ["--sigma-y", "1"]])
    def test_population_ghsic_needs_both_bandwidths(self, sigmas, capsys):
        argv = ["population", "--model", "m1", "--d", "2", "--kernel", "ghsic", "--n-mc", "100", "--seed", "1"]
        self.refused(argv + sigmas, "BAD_BANDWIDTH", capsys)

    @pytest.mark.parametrize("n", ["-1", "0"])
    def test_simulate_nonpositive_n(self, n, capsys):
        self.refused(["simulate", "--model", "null-a", "--n", n, "--seed", "1"], "TOO_SMALL", capsys)

    @pytest.mark.parametrize("command", ["simulate", "population"])
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--model", "null-a", "--error", "t3"], "BAD_ERROR: null-a draws normal noise"),
            (["--model", "null-b", "--error", "normal"], "BAD_ERROR: null-b draws t3 noise"),
            (["--model", "null-a", "--kappa", "0.7"], "BAD_KAPPA: null-a takes no kappa"),
        ],
    )
    def test_null_design_noise_comes_from_the_design(self, command, flags, message, capsys):
        self.refused([command, *flags, "--d", "2", "--seed", "1"], message, capsys)

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--x-cols", "0..2", "--y-cols", "2..4", "--B", "9"],
            ["simulate", "--model", "null-a", "--n", "20", "--d", "2", "--reps", "100", "--B", "9"],
            ["population", "--model", "m1", "--d", "2", "--n-mc", "100"],
            ["oracle-check", "--seeds", "1"],
        ],
    )
    def test_seed_outside_64_bits(self, argv, seed, csv_file, capsys):
        # 2^64 would alias seed 0, which the streams are keyed by
        argv = argv + (["--input", csv_file] if argv[0] == "test" else [])
        self.refused(argv + ["--seed", seed], "SEED_RANGE", capsys)

    def test_population_overflowing_kappa(self, capsys):
        argv = ["population", "--model", "m1", "--d", "2", "--kappa", "1e154", "--n-mc", "100", "--seed", "1"]
        with np.errstate(over="ignore", invalid="ignore"):
            self.refused(argv, "NONFINITE", capsys)

    def test_empty_out_path(self, capsys):
        argv = ["population", "--model", "m1", "--d", "2", "--n-mc", "100", "--seed", "1", "--out", ""]
        self.refused(argv, "IO", capsys)

    def test_test_duplicate_combiner(self, csv_file, capsys):
        argv = ["test", "--input", csv_file, "--x-cols", "0..2", "--y-cols", "2..4",
                "--combiners", "fisher,fisher", "--B", "9", "--seed", "1"]
        self.refused(argv, "BAD_PLAN: duplicate combiner", capsys)

    def test_simulate_duplicate_combiner(self, capsys):
        argv = ["simulate", "--model", "null-a", "--n", "20", "--d", "2", "--reps", "100", "--B", "9",
                "--combiners", "fisher,min,fisher", "--seed", "1"]
        self.refused(argv, "BAD_PLAN: duplicate combiner", capsys)


def _options(command):
    """The option actions the parser declares for one subcommand."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return [a for a in sub.choices[command]._actions if a.option_strings and a.dest != "help"]


class TestInputContract:
    """Every flag of every subcommand, at edge values: the exit code is 0, 2
    or 3 (4 for a failed oracle), nothing escapes as an exception, traceback
    or warning, and an accepted value that differs from the base run changes
    the document beyond the fields that echo that flag."""

    # cheap valid runs; "{csv}" is the 14-row contract table
    BASES = {
        "test": ["--input", "{csv}", "--x-cols", "0..2", "--y-cols", "2..4", "--kernel", "ghsic",
                 "--sigma-x", "1", "--sigma-y", "1", "--B", "9", "--seed", "1", "--reproducible"],
        "simulate": ["--model", "m1", "--n", "6", "--d", "1", "--reps", "100", "--B", "19", "--alpha", "0.3",
                     "--gamma", "2", "--combiners", "min", "--seed", "1", "--format", "json", "--reproducible"],
        "oracle-check": ["--seeds", "2", "--n-min", "4", "--n-max", "5", "--seed", "1", "--format", "json",
                         "--reproducible"],
        "population": ["--model", "m1", "--d", "1", "--kernel", "ghsic", "--sigma-x", "1", "--sigma-y", "1",
                       "--n-mc", "200", "--seed", "1", "--reproducible"],
    }
    EDGE_VALUES = ("0", "-1", "nan", "inf", "1e308", "")
    # document fields that echo a flag under another name than its dest
    ECHOES = {
        "B": ("b_count",), "gamma": ("gammas",), "d": ("d1", "d2"), "tol": ("tolerance",),
        "n_min": ("n_range",), "n_max": ("n_range",), "sigma_x": ("kernel",), "sigma_y": ("kernel",),
    }
    # accepted values of these flags leave the result as it is, by design
    RESULT_INVARIANT = {
        "--threads": "a worker cap: every report is identical across thread counts (c9)",
        "--tol": "the oracle's pass bound: at 1 or 1e308 these instances pass as they do at 1e-10",
        "--out": "names the file the document goes to, not what the document says",
    }
    # these scale the work, so every edge value must be refused
    WORK_SCALING = {"--B", "--reps", "--n", "--n-mc", "--seeds", "--threads"}

    CASES = [(command, action.option_strings[0]) for command in BASES for action in _options(command)]

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        rng = np.random.default_rng(103)
        path = tmp_path_factory.mktemp("contract") / "contract.csv"
        rows = "\n".join(",".join(f"{v!r}" for v in row) for row in rng.standard_normal((14, 4)).tolist())
        path.write_text("a,b,c,d\n" + rows + "\n", encoding="utf-8")
        return str(path)

    @pytest.fixture(scope="class")
    def base_runs(self):
        return {}

    @staticmethod
    def _run(argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    @staticmethod
    def _with(base, option, values):
        """``base`` without ``option``, then ``option`` given as ``values``."""
        argv, i = [], 0
        while i < len(base):
            takes_value = i + 1 < len(base) and not base[i + 1].startswith("--")
            if base[i] != option:
                argv += base[i : i + 1 + takes_value]
            i += 1 + takes_value
        return argv + values

    def test_every_flag_is_covered(self):
        flags = {command: {a.option_strings[0] for a in _options(command)} for command in self.BASES}
        for command, base in self.BASES.items():
            assert {f for f in base if f.startswith("--")} <= flags[command]
        assert set(self.RESULT_INVARIANT) | self.WORK_SCALING <= set().union(*flags.values())
        # --threads only where a worker count is read; test reports no decision at an alpha
        assert [c for c in flags if "--threads" in flags[c]] == ["test", "simulate"]
        assert [c for c in flags if "--alpha" in flags[c]] == ["simulate"]
        kernel = next(a for a in _options("oracle-check") if a.dest == "kernel")
        assert tuple(kernel.choices) == ("dcov", "ghsic", "all")

    @pytest.mark.parametrize("command, option", CASES)
    def test_flag(self, command, option, table, base_runs, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # --out values land here
        monkeypatch.delenv("GAMMADEP_THREADS", raising=False)
        parser = build_parser()
        action = next(a for a in _options(command) if option in a.option_strings)
        base = [command] + [a.replace("{csv}", table) for a in self.BASES[command]]
        if command not in base_runs:
            base_runs[command] = self._run(base, capsys)
        base_code, base_out, base_err = base_runs[command]
        assert base_code == EXIT_OK, base_err
        base_ns = parser.parse_args(base)

        if action.nargs == 0:
            cases = [[option], [option, option]]
        else:
            again = base[base.index(option) + 1] if option in base else "1"
            cases = [[option, v] for v in self.EDGE_VALUES] + [[option, again, option, again]]
        allowed = {EXIT_OK, EXIT_USAGE, EXIT_DATA} | ({EXIT_ORACLE} if command == "oracle-check" else set())
        for values in cases:
            argv = self._with(base, option, values)
            code, out, err = self._run(argv, capsys)
            assert code in allowed, (argv, code, err)
            assert "Traceback" not in err, argv
            if code == EXIT_DATA:
                assert err.startswith("error: "), (argv, err)
            if option in self.WORK_SCALING and len(values) == 2:
                assert code != EXIT_OK, argv
            if code != EXIT_OK or option in self.RESULT_INVARIANT:
                continue
            ns = parser.parse_args(argv)
            if getattr(ns, action.dest) == getattr(base_ns, action.dest):
                continue
            echoes = {action.dest, *self.ECHOES.get(action.dest, ())}
            doc = {k: v for k, v in json.loads(out).items() if k not in echoes}
            base_doc = {k: v for k, v in json.loads(base_out).items() if k not in echoes}
            assert doc != base_doc, f"{argv} changed only the echo of {option}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--model", "m1", "--n", "6", "--d", "1", "--kappa", "1e308", "--seed", "1"],
            ["population", "--model", "m1", "--d", "1", "--kappa", "1e308", "--seed", "1"],
            ["population", "--model", "m1", "--d", "1", "--kernel", "dcov", "--kappa", "1e160", "--seed", "1"],
            ["simulate", "--model", "m3", "--d", "2", "--kappa", "1e200", "--kernel", "ghsic", "--n", "20",
             "--reps", "100", "--B", "9", "--seed", "1"],
        ],
        ids=["simulate-draw", "population-draw", "population-dcov-value", "simulate-ghsic-median"],
    )
    def test_overflow_is_refused_without_a_warning(self, argv, capsys):
        # kappa * eps, a distance between the draws, or the ghsic median
        # distance, past float range
        code, out, err = self._run(argv, capsys)
        assert code == EXIT_DATA, err
        assert err.startswith("error: NONFINITE"), err
        assert out == ""


class TestFlagDeclarations:
    COMMANDS = ("test", "simulate", "oracle-check", "population")
    # by design the default --format is each command's natural output and the
    # --kernel choices are the kernels a command runs; oracle-check's --kernel
    # also offers, and defaults to, "all"
    VARIES = {"--format": ("default",), "--kernel": ("choices", "default")}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_option_has_help(self, command):
        assert [a.option_strings[0] for a in _options(command) if not (a.help or "").strip()] == []

    def test_a_shared_flag_means_the_same_in_each_subcommand(self):
        uses = {}
        for command in self.COMMANDS:
            for a in _options(command):
                flag = a.option_strings[0]
                keys = [k for k in ("type", "default", "help", "choices") if k not in self.VARIES.get(flag, ())]
                uses.setdefault(flag, []).append((command, {k: getattr(a, k) for k in keys}))
        shared = {flag: u for flag, u in uses.items() if len(u) > 1}
        assert {"--gamma", "--combiners", "--model", "--kernel", "--sigma-y"} <= set(shared)
        for flag, u in shared.items():
            for command, fields in u[1:]:
                assert fields == u[0][1], (flag, u[0][0], command)


class TestModuleEntryPoint:
    def test_python_dash_m_help(self):
        import gammadep

        src = os.path.dirname(os.path.dirname(os.path.abspath(gammadep.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "gammadep", "--help"], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout.startswith("usage: gammadep")


class TestBlasThreadCount:
    """Reports depend only on the data, the flags and the seed, not on how
    many threads the BLAS library runs. Each case runs in fresh interpreters,
    since a BLAS library reads its thread count once, when it loads."""

    @staticmethod
    def _run(args, threads):
        import gammadep

        src = os.path.dirname(os.path.dirname(os.path.abspath(gammadep.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        done = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=300)
        assert done.returncode == EXIT_OK, done.stderr.decode()
        return done.stdout

    @pytest.mark.parametrize("n, kernel", [(700, "ghsic"), (1500, "dcov")])
    def test_report_is_the_same_under_one_and_two_blas_threads(self, n, kernel, tmp_path):
        # at this seed a dense B~ r split across two BLAS threads moves the
        # last digit of sigma0_sq in both cases
        rng = np.random.default_rng(4)
        x = rng.standard_normal((n, 3))
        data = np.column_stack([x, 0.5 * x[:, :2] + rng.standard_normal((n, 2))])
        path = tmp_path / "data.csv"
        rows = "\n".join(",".join(f"{v!r}" for v in row) for row in data.tolist())
        path.write_text("x0,x1,x2,y0,y1\n" + rows + "\n", encoding="utf-8")
        args = ["-m", "gammadep", "test", "--input", str(path), "--x-cols", "0..3", "--y-cols", "3..5"]
        args += ["--kernel", kernel, "--B", "19", "--seed", "5", "--reproducible"]
        one = self._run(args, 1)
        assert b"sigma0_sq" in one
        assert self._run(args, 2) == one

    def test_normal_draws_are_the_same_under_one_and_two_blas_threads(self):
        # from d = 300 a matrix-product draw, split across two BLAS threads,
        # changed in its last bits on a 2-core host
        script = (
            "import hashlib\n"
            "from gammadep import SimConfig, gen_model\n"
            "s = gen_model(SimConfig('null-a', n=1500, d1=300, d2=300))\n"
            "print(hashlib.sha1(s.x.tobytes() + s.y.tobytes()).hexdigest())\n"
        )
        assert self._run(["-c", script], 1) == self._run(["-c", script], 2)

    def test_pair_sums_are_the_same_under_one_and_two_blas_threads(self):
        # n = 701: p and q are taken over 12 walk blocks
        script = (
            "import sys, numpy as np\n"
            "from gammadep import build_pair_matrices, resolve_kernel_spec, validate_sample\n"
            "rng = np.random.default_rng(701)\n"
            "x = rng.standard_normal((701, 3))\n"
            "s = validate_sample(x, 0.5 * x[:, :2] + rng.standard_normal((701, 2)))\n"
            "mats = build_pair_matrices(s, resolve_kernel_spec('ghsic', s))\n"
            "sys.stdout.buffer.write(mats.p.tobytes() + mats.q.tobytes())\n"
        )
        one = self._run(["-c", script], 1)
        assert len(one) == 2 * 701 * 8
        assert self._run(["-c", script], 2) == one
