"""Benchmark harness: case plans, reports, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from obtree import EvalConfig, Layout, LeafStrategy, SyntheticSpec, TailPolicy
from obtree.bench import (
    BenchCase,
    BenchReport,
    CaseResult,
    SweepReport,
    SweepRow,
    _verify,
    build_cases,
    format_matrix,
    format_sweep,
    format_sweep_tsv,
    main,
    run_batch_sweep,
    run_matrix,
    sweep_plan_columns,
)
from obtree.synthetic import generate_synthetic_model

TINY = SyntheticSpec(n_features=4, borders_per_feature=5, n_trees=6, depth=3, seed=77)


def tiny_case(strategy=LeafStrategy.NAIVE, tail=TailPolicy.SCALAR_TAIL, batch=40, reps=3,
              layout=Layout.OBJECT_MAJOR, block=64):
    config = EvalConfig(block, strategy, tail)
    return BenchCase(config=config, layout=layout, batch_size=batch, repetitions=reps)


class TestPlans:
    def test_padded_sweep_is_a_step_function_on_group_boundaries(self):
        config = EvalConfig(64, LeafStrategy.PERMUTE16, TailPolicy.PADDED_GROUP)
        groups = [sweep_plan_columns(config, n)[1] for n in range(1, 65)]
        # ceil(n / 32) for one block: constant within a group, +1 at each boundary
        assert groups == [1] * 32 + [2] * 32

    def test_scalar_sweep_remainder_varies(self):
        config = EvalConfig(64, LeafStrategy.PERMUTE16, TailPolicy.SCALAR_TAIL)
        tails = [sweep_plan_columns(config, n)[2] for n in range(1, 65)]
        assert tails == list(range(1, 32)) + [0] + list(range(1, 32)) + [0]

    def test_block_counts(self):
        config = EvalConfig(128, LeafStrategy.NAIVE, TailPolicy.SCALAR_TAIL)
        assert sweep_plan_columns(config, 128)[0] == 1
        assert sweep_plan_columns(config, 256)[0] == 2


class TestRunMatrix:
    def test_baseline_d_is_zero_and_rows_match_cases(self):
        model = generate_synthetic_model(TINY)
        cases = [
            tiny_case(),
            tiny_case(strategy=LeafStrategy.GATHER),
            tiny_case(strategy=LeafStrategy.NAIVE16),
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
        csv = format_matrix(report, "csv")
        md = format_matrix(report, "md")
        assert csv.count("\n") >= 3
        for row in report.rows:
            assert row.case.case_id in csv
            assert row.case.case_id in md


class TestFormat:
    def test_renderings_are_fixed(self):
        config = EvalConfig(64, LeafStrategy.PERMUTE16, TailPolicy.SCALAR_TAIL)
        sweep = SweepReport(
            config,
            Layout.OBJECT_MAJOR,
            [
                SweepRow(1, 0.0012345, 0.0000456, 1, 0, 1, True),
                SweepRow(100, float("nan"), float("nan"), 2, 3, 4, False),
            ],
            {"config": config.describe(), "layout": "object-major"},
        )
        meta = "# config: permute16-b64-scalar\n# layout: object-major\n"
        assert format_sweep(sweep, "md") == meta + (
            "| batch | mean_ms | std_ms | blocks | vector_groups | tail_objects | verified |\n"
            "|-------|---------|--------|--------|---------------|--------------|----------|\n"
            "| 1     | 1.234   | 0.046  | 1      | 0             | 1            | ok       |\n"
            "| 100   |         |        | 2      | 3             | 4            | FAIL     |\n"
        )
        assert format_sweep(sweep, "csv") == meta + (
            "batch,mean_ms,std_ms,blocks,vector_groups,tail_objects,verified\n"
            "1,1.234,0.046,1,0,1,ok\n"
            "100,,,2,3,4,FAIL\n"
        )
        case = BenchCase(config, Layout.FEATURE_MAJOR, 40, 3)
        matrix = BenchReport(
            case.case_id,
            [
                CaseResult(case, True, mean_s=0.0021, std_s=0.0001, d=0.0, inner=2),
                CaseResult(BenchCase(EvalConfig(), Layout.OBJECT_MAJOR, 40, 3), False),
            ],
            {"baseline": case.case_id},
        )
        assert format_matrix(matrix, "csv") == (
            "# baseline: permute16-b64-fm-st-n40\n"
            "case_id,strategy,block,layout,tail,batch,reps,inner,mean_ms,std_ms,"
            "d_vs_baseline,verified\n"
            "permute16-b64-fm-st-n40,permute16,64,feature-major,scalar,40,3,2,"
            "2.100,0.100,+0.0%,ok\n"
            "naive-b128-om-st-n40,naive,128,object-major,scalar,40,3,,,,,FAIL\n"
        )


class TestSweep:
    def test_row_count_matches_batches(self):
        model = generate_synthetic_model(TINY)
        config = EvalConfig(64, LeafStrategy.NAIVE, TailPolicy.SCALAR_TAIL)
        batches = [1, 17, 40, 64, 100]
        report = run_batch_sweep(model, config, Layout.OBJECT_MAJOR, batches, repetitions=3)
        assert [r.batch_size for r in report.rows] == batches
        assert report.all_verified
        tsv = format_sweep_tsv(report)
        assert len(tsv.strip().splitlines()) == len(batches)

    def test_plan_columns_reflect_blocks(self):
        model = generate_synthetic_model(TINY)
        config = EvalConfig(128, LeafStrategy.NAIVE, TailPolicy.SCALAR_TAIL)
        report = run_batch_sweep(model, config, Layout.OBJECT_MAJOR, [128, 256], repetitions=3)
        assert report.rows[0].n_blocks == 1
        assert report.rows[1].n_blocks == 2

    def test_tail_structure_note_reported_not_asserted(self):
        model = generate_synthetic_model(TINY)
        config = EvalConfig(64, LeafStrategy.NAIVE, TailPolicy.SCALAR_TAIL)
        report = run_batch_sweep(model, config, Layout.OBJECT_MAJOR, [60, 64], repetitions=3)
        note = report.metadata.get("note", "")
        assert "non-multiple batch sizes" in note


class _Args:
    def __init__(self, **kw):
        self.__dict__.update(kw)


class TestCaseBuilder:
    def test_default_matrix_shape(self):
        args = _Args(layout="both", block="all", strategy="all",
                     tail="scalar", batch=1024, reps=5)
        cases = build_cases(args)
        # 5 strategies x 4 blocks x 2 layouts
        assert len(cases) == 40
        assert len({c.case_id for c in cases}) == 40


class TestCli:
    def test_matrix_to_csv_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main([
            "--synthetic", "4,5,6,3,77", "--batch", "40", "--reps", "3",
            "--strategy", "naive", "--block", "64", "--layout", "object-major",
            "--format", "csv", "--out", str(out), "--quiet",
        ])
        assert code == 0
        text = out.read_text()
        assert "case_id" in text
        assert "naive-b64-om-st-n40" in text

    def test_sweep_tsv_stdout(self, capsys):
        code = main([
            "--synthetic", "4,5,6,3,77", "--sweep", "1..33:16", "--reps", "3",
            "--strategy", "naive", "--block", "64",
            "--layout", "object-major", "--format", "tsv", "--quiet",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # batches 1, 17, 33

    def test_sweep_tsv_requires_single_layout(self):
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "4,5,6,3,77", "--sweep", "1..2", "--format", "tsv",
                  "--strategy", "naive", "--block", "64", "--quiet"])
        assert exc.value.code == 2

    def test_matrix_rejects_tsv(self):
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "4,5,6,3,77", "--format", "tsv", "--quiet"])
        assert exc.value.code == 2

    def test_bad_synthetic_spec(self):
        with pytest.raises(SystemExit) as exc:
            main(["--synthetic", "4,5", "--quiet"])
        assert exc.value.code == 2

    def test_model_file_source(self, tmp_path):
        from obtree import save_model

        model = generate_synthetic_model(TINY)
        path = tmp_path / "tiny.json"
        save_model(model, str(path))
        out = tmp_path / "report.csv"
        code = main([
            "--model", str(path), "--batch", "16", "--reps", "3",
            "--strategy", "naive", "--block", "64", "--layout", "object-major",
            "--format", "csv", "--out", str(out), "--quiet",
        ])
        assert code == 0
        assert "file:" in out.read_text()

    def test_missing_model_file_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--model", "/no/such/model.json", "--quiet"])
        assert exc.value.code == 2

    def test_malformed_model_file_is_usage_error(self, tmp_path, capsys):
        # Hex digits split by a space once reached struct.unpack and crashed
        # the CLI with a traceback; the error must name the field instead.
        from obtree import serialize_model

        doc = json.loads(serialize_model(generate_synthetic_model(TINY)))
        doc["float_features"][0]["borders_hex"][0] = "3f 0000 "
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
            "--strategy", "naive", "--block", "64", "--layout", "object-major",
            "--out", str(tmp_path / "r.md"), "--quiet",
        ])
        assert code == 1

    def test_structure_is_deterministic(self):
        args = _Args(layout="both", block="64", strategy="all",
                     tail="scalar", batch=16, reps=3)
        ids_a = [c.case_id for c in build_cases(args)]
        ids_b = [c.case_id for c in build_cases(args)]
        assert ids_a == ids_b
