"""Command-line behaviors: files written, exit codes, reproducibility."""

import json
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner

from graphcrew.cli import main

STUB_CONFIG = """\
kind: stub
prices:
  input_per_million: "0.15"
  output_per_million: "0.60"
"""


@pytest.fixture()
def runner():
    return CliRunner()


def _generate(runner, out, extra=()):
    result = runner.invoke(
        main,
        ["generate", "--sizes", "8-9", "--per-size", "2", "--out", str(out), *extra],
    )
    assert result.exit_code == 0, result.output
    return result


def _write_stub_config(directory: Path) -> Path:
    path = directory / "stub.yaml"
    path.write_text(STUB_CONFIG)
    return path


class TestGenerate:
    def test_writes_files_and_manifest(self, runner, tmp_path):
        out = tmp_path / "ds"
        result = _generate(runner, out)
        for name in ("tsp", "graph_coloring", "vertex_cover", "shortest_path"):
            assert (out / f"{name}.jsonl").exists()
            assert (out / f"{name}.text.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["datasets"]) == 4
        entry = manifest["datasets"][0]
        assert entry["instance_count"] == 4
        assert entry["sha256"] in result.output

    def test_type_flag_narrows_generation(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "cycle_detection"])
        assert (out / "cycle_detection.jsonl").exists()
        assert not (out / "tsp.jsonl").exists()

    def test_single_size_form(self, runner, tmp_path):
        out = tmp_path / "ds"
        result = runner.invoke(
            main,
            ["generate", "--sizes", "8", "--per-size", "1", "--type", "tsp",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "tsp.jsonl").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_bad_sizes_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["generate", "--sizes", "8-9-10", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code == 2

    def test_past_exact_limit_is_config_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["generate", "--sizes", "26", "--per-size", "1", "--type", "tsp",
             "--out", str(tmp_path / "x")],
        )
        assert result.exit_code == 2
        assert "no exact tsp route" in result.output

    def test_regeneration_is_byte_identical(self, runner, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        _generate(runner, a, extra=["--type", "vertex_cover"])
        _generate(runner, b, extra=["--type", "vertex_cover"])
        assert (a / "vertex_cover.jsonl").read_bytes() == (b / "vertex_cover.jsonl").read_bytes()


class TestSolve:
    def test_stub_solves_everything(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "tsp"])
        config = _write_stub_config(tmp_path)
        results = tmp_path / "results.jsonl"
        result = runner.invoke(
            main,
            ["solve", "--dataset", str(out / "tsp.jsonl"),
             "--backend-config", str(config), "--out", str(results)],
        )
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert len(records) == 4
        assert all(r["status"] == "ok" for r in records)
        assert all(r["usage"] for r in records)
        assert records[0]["solution"]["kind"] == "tour"

    def test_solve_is_byte_reproducible(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "graph_coloring"])
        config = _write_stub_config(tmp_path)
        first = tmp_path / "r1.jsonl"
        second = tmp_path / "r2.jsonl"
        for path in (first, second):
            result = runner.invoke(
                main,
                ["solve", "--dataset", str(out / "graph_coloring.jsonl"),
                 "--backend-config", str(config), "--out", str(path)],
            )
            assert result.exit_code == 0, result.output
        assert first.read_bytes() == second.read_bytes()

    def test_dead_backend_yields_exit_one_and_failure_records(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "tsp"])
        fixtures = tmp_path / "empty.jsonl"
        fixtures.write_text("")
        config = tmp_path / "replay.yaml"
        config.write_text(f"kind: replay\nfixtures: {fixtures}\n")
        results = tmp_path / "results.jsonl"
        result = runner.invoke(
            main,
            ["solve", "--dataset", str(out / "tsp.jsonl"),
             "--backend-config", str(config), "--out", str(results)],
        )
        assert result.exit_code == 1
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert all(r["status"] == "failed" for r in records)
        assert all("failure" in r for r in records)

    def test_bad_backend_kind_is_config_error(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "tsp"])
        config = tmp_path / "bad.yaml"
        config.write_text("kind: imaginary\n")
        result = runner.invoke(
            main,
            ["solve", "--dataset", str(out / "tsp.jsonl"),
             "--backend-config", str(config)],
        )
        assert result.exit_code == 2
        assert "configuration error" in result.output

    def test_missing_dataset_is_config_error(self, runner, tmp_path):
        config = _write_stub_config(tmp_path)
        result = runner.invoke(
            main,
            ["solve", "--dataset", str(tmp_path / "nope.jsonl"),
             "--backend-config", str(config)],
        )
        assert result.exit_code == 2

    def test_stub_needs_hidden_data(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "tsp"])
        config = _write_stub_config(tmp_path)
        result = runner.invoke(
            main,
            ["solve", "--dataset", str(out / "tsp.text.jsonl"),
             "--backend-config", str(config)],
        )
        assert result.exit_code == 2


class TestEvaluate:
    def _solve(self, runner, tmp_path, ptype="tsp"):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", ptype])
        config = _write_stub_config(tmp_path)
        results = tmp_path / "results.jsonl"
        result = runner.invoke(
            main,
            ["solve", "--dataset", str(out / f"{ptype}.jsonl"),
             "--backend-config", str(config), "--out", str(results)],
        )
        assert result.exit_code == 0, result.output
        return out / f"{ptype}.jsonl", config, results

    def test_reports_written_and_perfect_accuracy(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path)
        report_dir = tmp_path / "report"
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(results), "--dataset", str(dataset),
             "--backend-config", str(config), "--out", str(report_dir)],
        )
        assert result.exit_code == 0, result.output
        assert "100.0%" in result.output
        report = (report_dir / "report.txt").read_text()
        assert "acc_all" in report and "price" in report
        scores = [json.loads(l) for l in (report_dir / "scores.jsonl").read_text().splitlines()]
        assert all(s["acc_all"] == "1" for s in scores)

    def test_evaluation_is_byte_reproducible(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path, "graph_coloring")
        dirs = (tmp_path / "rep1", tmp_path / "rep2")
        for directory in dirs:
            result = runner.invoke(
                main,
                ["evaluate", "--results", str(results), "--dataset", str(dataset),
                 "--backend-config", str(config), "--out", str(directory)],
            )
            assert result.exit_code == 0, result.output
        assert (dirs[0] / "scores.jsonl").read_bytes() == (dirs[1] / "scores.jsonl").read_bytes()
        assert (dirs[0] / "report.txt").read_bytes() == (dirs[1] / "report.txt").read_bytes()

    def test_text_only_dataset_is_schema_error(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path)
        public = dataset.with_suffix("").parent / "tsp.text.jsonl"
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(results), "--dataset", str(public)],
        )
        assert result.exit_code == 2
        assert "ground truth" in result.output

    def test_unknown_result_id_is_schema_error(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path)
        rogue = tmp_path / "rogue.jsonl"
        rogue.write_text('{"id": "tsp-n99-i99", "status": "ok", "solution": {}}\n')
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(rogue), "--dataset", str(dataset)],
        )
        assert result.exit_code == 2


class TestSolveDirect:
    @pytest.mark.parametrize("mode", ["direct", "cot"])
    def test_modes_answer_and_score_perfectly(self, runner, tmp_path, mode):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        config = _write_stub_config(tmp_path)
        results = tmp_path / f"direct_{mode}.jsonl"
        result = runner.invoke(
            main,
            ["solve-direct", "--dataset", str(out / "vertex_cover.jsonl"),
             "--backend-config", str(config), "--mode", mode, "--out", str(results)],
        )
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert all(r["status"] == "ok" and r["mode"] == mode for r in records)

        report_dir = tmp_path / f"rep_{mode}"
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(results),
             "--dataset", str(out / "vertex_cover.jsonl"), "--out", str(report_dir)],
        )
        assert result.exit_code == 0, result.output
        assert "100.0%" in result.output

    def test_dead_backend_fails_each_instance(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        monkeypatch.setenv("EXAMPLE_KEY", "sk-test")

        def refuse(*args, **kwargs):
            raise requests.ConnectionError("connection refused")

        monkeypatch.setattr(requests, "post", refuse)
        config = tmp_path / "live.yaml"
        config.write_text(
            "kind: live\nendpoint: https://api.example.com/v1\n"
            "model: test-model\napi_key_env: EXAMPLE_KEY\n"
        )
        results = tmp_path / "direct.jsonl"
        result = runner.invoke(
            main,
            ["solve-direct", "--dataset", str(out / "vertex_cover.jsonl"),
             "--backend-config", str(config), "--out", str(results)],
        )
        assert result.exit_code == 1
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert len(records) == 4
        assert all(r["status"] == "failed" for r in records)
        assert all("backend failed" in r["failure"] for r in records)
