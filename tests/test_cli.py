"""Command-line behaviors: files written, exit codes, reproducibility."""

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

from graphcrew.agents import OracleStubBackend, pipeline
from graphcrew.cli import main
from util import closed_port_url

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

    def test_recording_io_bound_calls_then_replay_is_byte_identical(
        self, runner, tmp_path, monkeypatch
    ):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        dataset = str(out / "vertex_cover.jsonl")
        stub_results = tmp_path / "stub.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", dataset, "--backend-config",
                                      str(_write_stub_config(tmp_path)), "--out", str(stub_results)])
        assert result.exit_code == 0, result.output

        # The stub, made to look I/O-bound, gets its calls on threads; a
        # random wait per call makes replies come back in varying order.
        jitter = random.Random(3)
        answer = OracleStubBackend.complete

        def slow_complete(self, system_prompt, user_prompt, params=None):
            time.sleep(jitter.uniform(0.0, 0.003))
            return answer(self, system_prompt, user_prompt, params)

        monkeypatch.setattr(OracleStubBackend, "io_bound", True, raising=False)
        monkeypatch.setattr(OracleStubBackend, "complete", slow_complete)
        threads = []
        monkeypatch.setattr(
            pipeline, "ThreadPoolExecutor",
            lambda workers: threads.append(workers) or ThreadPoolExecutor(workers),
        )
        fixtures = tmp_path / "fixtures.jsonl"
        record = tmp_path / "record.yaml"
        record.write_text(f"kind: record\nfixtures: {fixtures}\ninner:\n  kind: stub\n")
        recorded = tmp_path / "recorded.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", dataset, "--backend-config",
                                      str(record), "--out", str(recorded)])
        assert result.exit_code == 0, result.output
        assert threads == [2 + 2] * 4  # 2 + n_check threads per instance

        # Replay must find each reply by its prompt, whatever the line order.
        fixtures.write_text("".join(reversed(fixtures.read_text().splitlines(True))))
        replay = tmp_path / "replay.yaml"
        replay.write_text(f"kind: replay\nfixtures: {fixtures}\n")
        replayed = tmp_path / "replayed.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", dataset, "--backend-config",
                                      str(replay), "--out", str(replayed)])
        assert result.exit_code == 0, result.output
        assert recorded.read_bytes() == replayed.read_bytes() == stub_results.read_bytes()

    @pytest.mark.parametrize("verb", ["solve", "solve-direct"])
    def test_braces_in_a_statement_reach_the_prompt_verbatim(self, runner, tmp_path, verb):
        out = tmp_path / "ds"
        runner.invoke(main, ["generate", "--sizes", "8", "--per-size", "3", "--type", "tsp",
                             "--out", str(out)])
        lines = (out / "tsp.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        record["text"] += " {route}"
        dataset = tmp_path / "braces.jsonl"
        dataset.write_text("\n".join([lines[0], json.dumps(record), lines[2]]) + "\n")
        fixtures = tmp_path / "fixtures.jsonl"
        config = tmp_path / "record.yaml"
        config.write_text(f"kind: record\nfixtures: {fixtures}\ninner:\n  kind: stub\n")
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, [verb, "--dataset", str(dataset), "--backend-config",
                                      str(config), "--out", str(results)])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert [r["status"] for r in records] == ["ok"] * 3
        prompts = [json.loads(line)["user"] for line in fixtures.read_text().splitlines()]
        assert any(record["text"] in prompt for prompt in prompts)

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


    @pytest.mark.parametrize("verb", ["solve", "solve-direct"])
    def test_out_in_a_new_directory_is_created(self, runner, tmp_path, verb):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        results = tmp_path / "new" / "deeper" / "results.jsonl"
        result = runner.invoke(
            main,
            [verb, "--dataset", str(out / "vertex_cover.jsonl"),
             "--backend-config", str(_write_stub_config(tmp_path)), "--out", str(results)],
        )
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert len(records) == 4 and all(r["status"] == "ok" for r in records)

    @pytest.mark.parametrize("verb", ["solve", "solve-direct"])
    def test_out_under_a_file_is_config_error_before_any_call(
        self, runner, tmp_path, monkeypatch, verb
    ):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        calls = []
        answer = OracleStubBackend.complete

        def counted_complete(self, system_prompt, user_prompt, params=None):
            calls.append(system_prompt)
            return answer(self, system_prompt, user_prompt, params)

        monkeypatch.setattr(OracleStubBackend, "complete", counted_complete)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        result = runner.invoke(
            main,
            [verb, "--dataset", str(out / "vertex_cover.jsonl"),
             "--backend-config", str(_write_stub_config(tmp_path)),
             "--out", str(blocker / "results.jsonl")],
        )
        assert result.exit_code == 2
        assert "cannot create the directory" in result.output
        assert calls == []
        assert blocker.read_text() == ""


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

    def test_out_under_a_file_is_config_error(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path)
        blocker = tmp_path / "afile"
        blocker.write_text("")
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(results), "--dataset", str(dataset),
             "--out", str(blocker / "report")],
        )
        assert result.exit_code == 2
        assert "cannot create the directory" in result.output
        generated = runner.invoke(main, ["generate", "--sizes", "8", "--out", str(blocker / "ds")])
        assert generated.exit_code == 2
        assert "cannot create the directory" in generated.output

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

    def test_repeated_result_id_is_config_error(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path)
        lines = results.read_text().splitlines()
        doubled = tmp_path / "doubled.jsonl"
        doubled.write_text("\n".join([*lines, lines[0]]) + "\n")
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(doubled), "--dataset", str(dataset)],
        )
        assert result.exit_code == 2
        assert f"line {len(lines) + 1}: second result for instance 'tsp-n08-i00'" in result.output

    def test_missing_results_score_as_failures(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path)
        lines = results.read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[1:]) + "\n")
        report_dir = tmp_path / "report"
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(partial), "--dataset", str(dataset),
             "--out", str(report_dir)],
        )
        assert result.exit_code == 0, result.output
        assert "75.0%" in result.output
        scores = [json.loads(l) for l in (report_dir / "scores.jsonl").read_text().splitlines()]
        assert len(scores) == len(lines)
        assert scores[-1]["id"] == "tsp-n08-i00"
        assert scores[-1]["acc_all"] == "0"
        assert scores[-1]["failure_reason"] == "no result"

    def test_answer_beating_the_truth_is_config_error(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path)
        # the stored optimum of the second instance is raised by one, so the
        # solved answer, a valid tour, now beats it
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        optimal = record["hidden"]["truth"]["optimal"]
        stored = Fraction(optimal["objective"])
        optimal["objective"] = str(stored + 1)
        lines[1] = json.dumps(record)
        dataset.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(results), "--dataset", str(dataset)],
        )
        assert result.exit_code == 2
        assert (
            f"{results}: line 2: instance {record['id']!r}: a valid answer has objective "
            f"{stored}, below the stored optimum {stored + 1}; the dataset's truth is wrong"
        ) in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("record, message", [
        ({"id": "tsp-n08-i00", "status": "ok", "solution": {}}, "malformed result (KeyError:"),
        ({"id": "tsp-n08-i00", "status": "failed",
          "usage": [{"attempt": 1, "input_tokens": 5, "output_tokens": 7}]},
         "malformed result (KeyError:"),
        (["tsp-n08-i00", "ok"], "a result must be a JSON object"),
        ({"id": ["tsp-n08-i00"], "status": "failed"},
         "result for unknown instance ['tsp-n08-i00']"),
    ], ids=["empty-solution", "usage-without-stage", "not-an-object", "unhashable-id"])
    def test_malformed_record_is_config_error(self, runner, tmp_path, record, message):
        dataset, config, results = self._solve(runner, tmp_path)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(results.read_text().splitlines()[1:] + [json.dumps(record)]) + "\n")
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(bad), "--dataset", str(dataset)],
        )
        assert result.exit_code == 2
        assert f"{bad}: line 4: {message}" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("ptype, field, broken, message", [
        ("vertex_cover", "nodes", lambda nodes: [nodes[:1], *nodes[1:]],
         "node names must be strings"),
        ("graph_coloring", "colors", lambda colors: {n: c + 0.4 for n, c in colors.items()},
         "colors must be integers"),
        ("graph_coloring", "colors", lambda colors: {n: c == 1 for n, c in colors.items()},
         "colors must be integers"),
        ("cycle_detection", "answer", lambda answer: not answer,
         "a boolean answer's objective must be 1 for true, 0 for false"),
        ("cycle_detection", "answer", int, "'answer' must be true or false"),
        ("tsp", "exact", lambda exact: "yes", "'exact' must be true or false"),
    ], ids=["nested-node-name", "fractional-colors", "boolean-colors",
            "answer-contradicts-objective", "answer-not-boolean", "exact-not-boolean"])
    def test_malformed_answer_is_config_error(self, runner, tmp_path, ptype, field, broken,
                                              message):
        dataset, config, results = self._solve(runner, tmp_path, ptype)
        lines = results.read_text().splitlines()
        record = json.loads(lines[0])
        record["solution"][field] = broken(record["solution"][field])
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(bad), "--dataset", str(dataset)],
        )
        assert result.exit_code == 2
        assert f"{bad}: line 1: malformed result (ValueError: {message})" in result.output
        assert "Traceback" not in result.output


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
        config = tmp_path / "live.yaml"
        config.write_text(
            f"kind: live\nendpoint: {closed_port_url()}\n"
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
