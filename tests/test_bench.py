"""Benchmark harness: case plans, reports, CLI."""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from obtree import EvalConfig, EvalStats, Evaluator, FeatureMatrix, Layout, LeafStrategy, SyntheticSpec, native
import obtree.bench as bench
from obtree.bench import (
    BenchCase,
    BenchReport,
    CaseResult,
    _parse_batch,
    _verify,
    build_cases,
    format_json,
    main,
    run_matrix,
)
from obtree.synthetic import generate_synthetic_model

TINY = SyntheticSpec(n_features=4, borders_per_feature=5, n_trees=6, depth=3, seed=77)


def strict_json(text: str):
    """``json.loads`` that refuses NaN and infinity."""
    def refuse(constant):
        raise ValueError(f"{constant} in the record")
    return json.loads(text, parse_constant=refuse)


def tiny_case(strategy=LeafStrategy.NAIVE, batch=40, reps=3, layout=Layout.OBJECT_MAJOR):
    return BenchCase(EvalConfig(strategy), layout=layout, batch_size=batch, repetitions=reps)


class TestRunMatrix:
    def test_baseline_d_is_zero_and_rows_match_cases(self):
        model = generate_synthetic_model(TINY)
        cases = [
            tiny_case(),
            tiny_case(strategy=LeafStrategy.PERMUTE64),
            tiny_case(strategy=LeafStrategy.PERMUTE16),
        ]
        report = run_matrix(model, cases, data_seed=5)
        assert len(report.rows) == len(cases)
        assert report.baseline_id == cases[0].case_id
        assert report.rows[0].d == 0.0
        assert report.all_verified

    def test_identical_cases_self_compare_near_zero(self):
        # The same case twice measures the same work; d between the copies
        # is timing noise around zero.
        model = generate_synthetic_model(TINY)
        report = run_matrix(model, [tiny_case(), tiny_case()], data_seed=5)
        assert report.rows[0].d == 0.0
        assert abs(report.rows[1].d) < 0.5

    def test_only_feature_major_cases_make_a_transposed_copy(self, monkeypatch):
        model = generate_synthetic_model(TINY)
        assert run_matrix(model, [tiny_case(layout=Layout.FEATURE_MAJOR)]).all_verified

        def refuse(matrix):
            raise AssertionError("an object-major case made a transposed copy")

        monkeypatch.setattr(FeatureMatrix, "transposed", refuse)
        assert run_matrix(model, [tiny_case(), tiny_case(batch=7)]).all_verified

    def test_every_case_is_verified_before_any_is_timed(self, monkeypatch):
        # A case timed before later cases have first run reads high, and the
        # first case is the default baseline of every d.
        events = []

        def recording(name, fn):
            def wrapped(*args):
                events.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(bench, "_verify", recording("verify", bench._verify))
        monkeypatch.setattr(bench, "_time_case", recording("time", bench._time_case))
        model = generate_synthetic_model(TINY)
        cases = [tiny_case(), tiny_case(batch=7), tiny_case(layout=Layout.FEATURE_MAJOR)]
        assert run_matrix(model, cases).all_verified
        assert events == ["verify"] * 3 + ["time"] * 3

    def test_repetitions_run_round_robin(self, monkeypatch):
        # One sample of every case per round: a slower host for part of the
        # run slows every case alike.
        order = []
        calibrate = bench._time_case

        def recording(evaluator, matrix):
            inner, sample = calibrate(evaluator, matrix)

            def logged():
                order.append(matrix.n_objects)
                return sample()

            return inner, logged

        monkeypatch.setattr(bench, "_time_case", recording)
        model = generate_synthetic_model(TINY)
        report = run_matrix(model, [tiny_case(batch=40), tiny_case(batch=7, reps=4)])
        assert report.all_verified
        assert order == [40, 7, 40, 7, 40, 7, 7]
        assert all(row.inner >= 1 and row.std_s >= 0.0 for row in report.rows)

    def test_metadata_names_the_backend_and_the_cpu_flags_checked(self, monkeypatch):
        model = generate_synthetic_model(TINY)
        report = run_matrix(model, [tiny_case()])
        assert report.metadata["backend"] == Evaluator(model).backend
        assert report.metadata["cpu_flags_checked"] == "avx512f,avx512bw,f16c,avx512vbmi,gfni"
        assert report.metadata["block_size"] == EvalConfig.block_size == 128
        clock = time.get_clock_info("process_time")
        assert report.metadata["clock"] == (
            f"process_time via {clock.implementation}, resolution {clock.resolution:g} s"
        )
        isa = report.metadata["cpu_isa_flags"]
        assert isa == bench._cpu_isa_flags()
        if isa != "unreadable" and report.metadata["machine"] == "x86_64":
            assert "sse2" in isa.split(",")  # every x86-64 CPU reports it
        monkeypatch.setattr(native, "kernels", lambda: None)
        assert run_matrix(model, [tiny_case()]).metadata["backend"] == "numpy"

    def test_cpu_isa_flags_read_from_cpuinfo(self, tmp_path):
        cpuinfo = tmp_path / "cpuinfo"
        cpuinfo.write_text(
            "processor\t: 0\nflags\t\t: fpu sse sse2 ssse3 sse4_2 fma f16c avx avx2 bmi2 "
            "avx512f avx512_fp16 gfni aes\nflags\t\t: avx512bw\n"
        )
        assert bench._cpu_isa_flags(str(cpuinfo)) == (
            "sse,sse2,ssse3,sse4_2,fma,f16c,avx,avx2,bmi2,avx512f,avx512_fp16,gfni"
        )
        assert bench._cpu_isa_flags(str(tmp_path / "missing")) == "unreadable"

    def test_src_lines_count_the_c_source_too(self):
        package = Path(bench.__file__).parent
        py_lines = sum(len(p.read_text().splitlines()) for p in package.glob("*.py"))
        c_lines = len((package / "native.c").read_text().splitlines())
        assert c_lines > 0
        assert bench._host_metadata()["src_lines"] == py_lines + c_lines

    def test_git_rev_is_the_checkouts_head_or_none(self, tmp_path, monkeypatch):
        # git must not find a checkout that happens to hold the temporary directory.
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
        assert bench._git_rev(tmp_path) is None  # not a checkout
        if shutil.which("git") is None:
            assert bench._host_metadata()["git_rev"] is None
            return
        env = dict(os.environ, GIT_AUTHOR_NAME="a", GIT_AUTHOR_EMAIL="a@example.com",
                   GIT_COMMITTER_NAME="a", GIT_COMMITTER_EMAIL="a@example.com",
                   GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_NOSYSTEM="1")
        for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "one"]):
            subprocess.run(["git", "-C", str(tmp_path), *args], check=True, env=env)
        head = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True, env=env).stdout.strip()
        assert len(head) == 40
        assert bench._git_rev(tmp_path) == head
        (tmp_path / "sub").mkdir()
        assert bench._git_rev(tmp_path / "sub") == head
        package = Path(bench.__file__).parent
        assert bench._host_metadata()["git_rev"] == bench._git_rev(package)

    def test_verification_is_bit_exact(self):
        oracle = np.array([1.0, -2.5, 0.0])
        assert _verify(oracle.copy(), oracle)
        assert not _verify(np.nextafter(oracle, np.inf), oracle)  # one ulp off
        assert not _verify(np.array([1.0, -2.5, np.nan]), oracle)
        assert not _verify(np.array([1.0, -2.5, -0.0]), oracle)

    def test_unknown_baseline_rejected(self):
        model = generate_synthetic_model(TINY)
        with pytest.raises(ValueError, match="baseline"):
            run_matrix(model, [tiny_case()], baseline="nope")

    def test_repetition_floor(self):
        with pytest.raises(ValueError, match="at least 3"):
            tiny_case(reps=2)

    def test_report_formats_cover_all_rows(self):
        model = generate_synthetic_model(TINY)
        report = run_matrix(model, [tiny_case(), tiny_case(layout=Layout.FEATURE_MAJOR)])
        record = strict_json(format_json(report))
        assert [case["case_id"] for case in record["cases"]] == [
            row.case.case_id for row in report.rows]
        assert record["baseline"] == report.baseline_id

    def test_stage_columns_come_from_untimed_calls_after_the_rounds(self, monkeypatch):
        events = []
        sample_of = bench._time_case

        def recording_time(evaluator, matrix):
            inner, sample = sample_of(evaluator, matrix)
            return inner, lambda: events.append("sample") or sample()

        stage_columns = bench._stage_columns

        def recording_stages(evaluator, matrix):
            events.append("stages")
            return stage_columns(evaluator, matrix)

        monkeypatch.setattr(bench, "_time_case", recording_time)
        monkeypatch.setattr(bench, "_stage_columns", recording_stages)
        model = generate_synthetic_model(TINY)
        report = run_matrix(model, [tiny_case(), tiny_case(strategy=LeafStrategy.PERMUTE16)])
        assert events == ["sample"] * 6 + ["stages"] * 2
        for row in report.rows:
            assert row.stage1_s >= 0 and row.fold_s >= 0 and row.scratch_bytes >= 0
            assert row.stage1_s + row.fold_s > 0
            assert row.call_s >= row.stage1_s + row.fold_s

    def test_record_states_each_calls_glue_and_the_host_speed(self, capsys):
        """``call_ms``, the median wall time of the stats calls, is at least
        their stages' medians together: ``call_ms - stage1_ms - fold_ms`` is
        the call's glue.  ``host_probe_us`` is the median probe of the
        case's samples, in the unit of a single probe."""
        code = main(["--synthetic", "4,5,6,3,77", "--batch", "1,64", "--reps", "5",
                     "--strategy", "naive", "--layout", "both", "--quiet"])
        assert code == 0
        cases = strict_json(capsys.readouterr().out)["cases"]
        assert len(cases) == 4
        for case in cases:
            assert case["call_ms"] >= case["stage1_ms"] + case["fold_ms"] > 0, case
            assert 0 < case["host_probe_us"] < 1e6, case

    def test_host_probe_times_its_fixed_loop(self):
        readings = [bench.host_probe() for _ in range(5)]
        assert bench.PROBE_LOOPS == 5_000
        assert all(0 < reading < 1.0 for reading in readings)

    def test_stage_columns_are_medians_of_calls_with_stats(self):
        calls = []

        class Recording:
            def predict(self, matrix, stats=None):
                calls.append(stats)
                k = len(calls)
                stats.stage1_s, stats.fold_s, stats.scratch_bytes = k * 1.0, 10.0 - k, 100 * k
                stats.fold_groups = 16

        middle = (bench.STAGE_CALLS + 1) // 2
        *stages, call_s = bench._stage_columns(Recording(), None)
        assert stages == [middle, 10.0 - middle, 100 * middle, 16]
        assert call_s > 0
        assert len(calls) == bench.STAGE_CALLS == 31
        assert all(isinstance(stats, EvalStats) for stats in calls)


class TestFormat:
    def test_renderings_are_fixed(self):
        case = BenchCase(EvalConfig(LeafStrategy.PERMUTE16), Layout.FEATURE_MAJOR, 40, 3)
        report = BenchReport(
            case.case_id,
            [
                CaseResult(case, True, mean_s=0.0021, std_s=0.0001, d=0.0, inner=2,
                           stage1_s=0.0005, fold_s=0.00125, scratch_bytes=4096, fold_groups=16,
                           call_s=0.002, host_probe_s=0.00025),
                CaseResult(BenchCase(EvalConfig(), Layout.OBJECT_MAJOR, 100, 3), False),
            ],
            {"baseline": case.case_id},
        )
        assert format_json(report) == (
            '{\n "baseline": "permute16-fm-n40",\n "cases": [\n  {\n'
            '   "case_id": "permute16-fm-n40",\n   "strategy": "permute16",\n'
            '   "layout": "feature-major",\n   "batch": 40,\n   "reps": 3,\n   "inner": 2,\n'
            '   "mean_ms": 2.1,\n   "std_ms": 0.1,\n   "d": 0.0,\n   "stage1_ms": 0.5,\n'
            '   "fold_ms": 1.25,\n   "scratch_bytes": 4096,\n   "fold_groups": 16,\n'
            '   "call_ms": 2.0,\n   "host_probe_us": 250.0,\n'
            '   "verified": true\n  },\n  {\n'
            '   "case_id": "naive-om-n100",\n   "strategy": "naive",\n'
            '   "layout": "object-major",\n   "batch": 100,\n   "reps": 3,\n   "inner": 0,\n'
            '   "mean_ms": null,\n   "std_ms": null,\n   "d": null,\n   "stage1_ms": null,\n'
            '   "fold_ms": null,\n   "scratch_bytes": null,\n   "fold_groups": null,\n'
            '   "call_ms": null,\n   "host_probe_us": null,\n'
            '   "verified": false\n  }\n ]\n}\n'
        )

    def test_a_record_with_nan_is_refused(self):
        case = BenchCase(EvalConfig(), Layout.OBJECT_MAJOR, 8, 3)
        report = BenchReport(case.case_id, [CaseResult(case, True, d=math.nan)], {})
        with pytest.raises(ValueError, match="JSON compliant"):
            format_json(report)


class TestSweep:
    def test_row_count_matches_batches(self):
        model = generate_synthetic_model(TINY)
        batches = [1, 17, 40, 64, 100]
        report = run_matrix(model, [tiny_case(batch=b) for b in batches], data_seed=5)
        assert [r.case.batch_size for r in report.rows] == batches
        assert report.all_verified
        cases = strict_json(format_json(report))["cases"]
        assert [case["batch"] for case in cases] == batches


class _Args:
    def __init__(self, **kw):
        self.__dict__.update(kw)


class TestCaseBuilder:
    def test_default_matrix_shape(self):
        args = _Args(layout="both", strategy="all", batch=[1024], reps=5)
        cases = build_cases(args)
        # 3 strategies x 2 layouts
        assert len(cases) == 6
        assert len({c.case_id for c in cases}) == 6

    def test_batch_is_the_innermost_axis(self):
        args = _Args(layout="object-major", strategy="all", batch=[1, 17, 33], reps=3)
        cases = build_cases(args)
        assert [(c.config.strategy, c.batch_size) for c in cases] == [
            (strategy, batch) for strategy in LeafStrategy for batch in (1, 17, 33)
        ]
        assert len({c.case_id for c in cases}) == 9

    def test_repetition_floor_applies_to_every_case(self):
        args = _Args(layout="both", strategy="naive", batch=[8], reps=2)
        with pytest.raises(ValueError, match="at least 3"):
            build_cases(args)


class TestParseBatch:
    @pytest.mark.parametrize(
        "text, sizes",
        [("1", [1]), ("1024", [1024]), ("1..4", [1, 2, 3, 4]), ("1..33:16", [1, 17, 33]),
         ("5..5", [5]), ("1..1024:7", list(range(1, 1025, 7))), ("1,8,64", [1, 8, 64]),
         ("1..3,1024", [1, 2, 3, 1024])],
    )
    def test_accepted(self, text, sizes):
        assert _parse_batch(text) == sizes

    @pytest.mark.parametrize("text", ["0", "0..4", "4..1", "1..4:0", "-1", "1..", "x", "1:2",
                                      "1,", ",1", "1,,2", "1,0"])
    def test_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_batch(text)


class TestCli:
    def test_matrix_to_csv_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "--synthetic", "4,5,6,3,77", "--batch", "40", "--reps", "3",
            "--strategy", "naive", "--layout", "object-major",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert capsys.readouterr().out == ""
        record = strict_json(out.read_text())
        assert [case["case_id"] for case in record["cases"]] == ["naive-om-n40"]
        assert record["src_lines"] == bench._host_metadata()["src_lines"]

    def test_help_offers_no_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "--format" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "4,5,6,3,77", "--format", "json", "--quiet"])
        assert exc.value.code == 2

    def test_sweep_gives_one_verified_row_per_batch(self, capsys):
        code = main([
            "--synthetic", "4,5,6,3,77", "--batch", "1..33:16", "--reps", "3",
            "--strategy", "naive", "--layout", "object-major", "--quiet",
        ])
        assert code == 0
        cases = strict_json(capsys.readouterr().out)["cases"]
        assert [(case["batch"], case["verified"]) for case in cases] == [
            (1, True), (17, True), (33, True)]

    def test_bad_synthetic_spec(self):
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "4,5", "--quiet"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [(["--synthetic", "4,3,5,3,-1"], "seed must be non-negative, got -1"),
         (["--synthetic", "4,3,5,3,1", "--data-seed", "-1"],
          "--data-seed must be non-negative, got -1")],
    )
    def test_negative_seed_is_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*flags, "--batch", "8", "--reps", "3", "--quiet"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_model_file_source(self, tmp_path):
        from obtree import save_model

        model = generate_synthetic_model(TINY)
        path = tmp_path / "tiny.json"
        save_model(model, str(path))
        out = tmp_path / "report.json"
        code = main([
            "--model", str(path), "--batch", "16", "--reps", "3",
            "--strategy", "naive", "--layout", "object-major",
            "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert strict_json(out.read_text())["model"] == f"file:{path}"

    def test_list_form_model_file_is_a_usage_error(self, tmp_path, capsys):
        from obtree import save_model

        path = tmp_path / "tiny.json"
        save_model(generate_synthetic_model(TINY), str(path))
        doc = json.loads(path.read_text())
        doc["trees"][0]["leaves_hex"] = [doc["trees"][0]["leaves_hex"][:16]]
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["--model", str(path), "--batch", "16", "--reps", "3", "--quiet"])
        assert exc.value.code == 2
        assert "trees[0].leaves_hex: expected str" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["file", "synthetic"])
    def test_report_states_the_load_time(self, source, tmp_path):
        from obtree import save_model

        if source == "file":
            save_model(generate_synthetic_model(TINY), str(tmp_path / "tiny.json"))
            flags = ["--model", str(tmp_path / "tiny.json")]
        else:
            flags = ["--synthetic", "4,5,6,3,77"]
        out = tmp_path / "report.json"
        assert main([*flags, "--batch", "8", "--reps", "3", "--strategy", "naive",
                     "--layout", "object-major", "--out", str(out), "--quiet"]) == 0
        assert strict_json(out.read_text())["load_s"] > 0

    def test_json_record_parses_back_and_names_every_case(self, capsys):
        code = main([
            "--synthetic", "4,5,6,3,77", "--batch", "8..24:16", "--reps", "3",
            "--strategy", "all", "--layout", "both", "--quiet",
        ])
        assert code == 0
        record = strict_json(capsys.readouterr().out)
        expected = [c.case_id for c in build_cases(
            bench._build_parser().parse_args(["--batch", "8..24:16", "--reps", "3"]))]
        assert [case["case_id"] for case in record["cases"]] == expected
        assert len(expected) == 2 * len(LeafStrategy) * 2
        for key in ("block_size", "backend", "src_lines", "load_s", "cpu_isa_flags", "clock",
                    "numpy", "python", "model", "git_rev"):
            assert key in record, key
        assert record["git_rev"] == bench._git_rev(Path(bench.__file__).parent)
        assert record["block_size"] == EvalConfig.block_size and record["load_s"] > 0
        for case in record["cases"]:
            assert set(case) == {"case_id", "strategy", "layout", "batch", "reps", "inner",
                                 "mean_ms", "std_ms", "d", "stage1_ms", "fold_ms",
                                 "scratch_bytes", "fold_groups", "call_ms", "host_probe_us",
                                 "verified"}
            assert case["verified"] is True and case["mean_ms"] > 0 and case["reps"] == 3
            assert case["stage1_ms"] >= 0 and case["fold_ms"] >= 0 and case["scratch_bytes"] >= 0
            assert case["fold_groups"] in (EvalConfig.block_size // 64, 16)
            assert case["case_id"].startswith(case["strategy"] + "-")
        assert record["cases"][0]["d"] == 0.0

    def test_json_record_of_a_failed_case_holds_no_timing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(bench, "_verify", lambda preds, oracle: False)
        out = tmp_path / "report.json"
        code = main(["--synthetic", "4,5,6,3,77", "--batch", "8", "--reps", "3",
                     "--strategy", "naive", "--layout", "object-major",
                     "--out", str(out), "--quiet"])
        assert code == 1
        (case,) = strict_json(out.read_text())["cases"]
        assert case["verified"] is False
        assert [case[key] for key in ("mean_ms", "std_ms", "d", "stage1_ms", "fold_ms",
                                      "scratch_bytes", "fold_groups", "call_ms",
                                      "host_probe_us")] == [None] * 9

    def test_failed_baseline_leaves_every_d_null(self, monkeypatch, capsys):
        # A verified case once kept d at NaN, which json.dumps wrote as NaN.
        verdicts = iter([False, True])
        monkeypatch.setattr(bench, "_verify", lambda preds, oracle: next(verdicts))
        code = main(["--synthetic", "4,5,6,3,77", "--batch", "8", "--reps", "3",
                     "--strategy", "naive", "--layout", "both", "--quiet"])
        assert code == 1
        failed, passed = strict_json(capsys.readouterr().out)["cases"]
        assert (failed["verified"], failed["mean_ms"], failed["d"]) == (False, None, None)
        assert (passed["verified"], passed["d"]) == (True, None)
        assert passed["mean_ms"] > 0 and passed["stage1_ms"] >= 0

    @pytest.mark.parametrize("strategy", ["gather", "naive16"])
    def test_folded_strategy_is_usage_error(self, strategy, capsys):
        # gather ran naive's program and naive16 permute16's; neither is offered.
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "4,5,6,3,77", "--strategy", strategy, "--quiet"])
        assert exc.value.code == 2
        assert "--strategy" in capsys.readouterr().err

    def test_missing_model_file_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--model", "/no/such/model.json", "--quiet"])
        assert exc.value.code == 2

    def test_malformed_model_file_is_usage_error(self, tmp_path, capsys):
        # Hex digits split by a space once reached struct.unpack and crashed
        # the CLI with a traceback; the error must name the field instead.
        from obtree import serialize_model

        doc = json.loads(serialize_model(generate_synthetic_model(TINY)))
        feature = doc["float_features"][0]
        feature["borders_hex"] = "3f 0000 " + feature["borders_hex"][8:]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["--model", str(path), "--quiet"])
        assert exc.value.code == 2
        assert "float_features[0].borders_hex[0]" in capsys.readouterr().err

    def test_verification_failure_sets_exit_code(self, monkeypatch, tmp_path):
        monkeypatch.setattr("obtree.bench._verify", lambda *a: False)
        code = main([
            "--synthetic", "4,5,6,3,77", "--batch", "16", "--reps", "3",
            "--strategy", "naive", "--layout", "object-major",
            "--out", str(tmp_path / "r.json"), "--quiet",
        ])
        assert code == 1

    def test_structure_is_deterministic(self):
        args = _Args(layout="both", strategy="all", batch=[16], reps=3)
        ids_a = [c.case_id for c in build_cases(args)]
        ids_b = [c.case_id for c in build_cases(args)]
        assert ids_a == ids_b

    @pytest.mark.parametrize(
        "flags, message",
        [(["--reps", "2"], "at least 3"), (["--batch", "0"], "--batch"),
         (["--batch", "1..33:0"], "--batch")],
    )
    def test_bad_reps_or_batch_is_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "4,5,6,3,77", *flags, "--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_unwritable_out_fails_before_any_case_runs(self, monkeypatch, tmp_path, capsys):
        def no_model(args):
            raise AssertionError("model built before --out was opened")

        monkeypatch.setattr("obtree.bench._resolve_model", no_model)
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "4,5,6,3,77", "--out", str(tmp_path / "no" / "r.json")])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
