"""Command-line behaviors: files written, exit codes, reproducibility."""

import hashlib
import json
import random
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from graphcrew import agents, knowledge
from graphcrew.agents import Completion, OracleStubBackend
from graphcrew.cli import main
from graphcrew.dataset import records
from graphcrew.formats import parse_graph
from graphcrew.problems import PROBLEM_TYPES
from util import closed_port_url, run_python

STUB_CONFIG = """\
kind: stub
prices:
  input_per_million: "0.15"
  output_per_million: "0.60"
"""


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


class InFlight:
    """A thread-safe stub that records how many of its calls are in flight
    at once.  The first two calls wait for each other, so two callers on
    two threads are always seen in flight together."""

    def __init__(self):
        self.inner = OracleStubBackend()
        self.lock = threading.Lock()
        self.first_two = threading.Barrier(2, timeout=10)
        self.calls = self.in_flight = self.peak = 0

    def complete(self, system_prompt, user_prompt):
        with self.lock:
            self.calls += 1
            wait = self.calls <= 2
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if wait:
                self.first_two.wait()
            return self.inner.complete(system_prompt, user_prompt)
        finally:
            with self.lock:
                self.in_flight -= 1


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
        for family, size in (("tsp", 26), ("graph_coloring", 26), ("vertex_cover", 31)):
            result = runner.invoke(
                main,
                ["generate", "--sizes", str(size), "--per-size", "1", "--type", family,
                 "--out", str(tmp_path / family)],
            )
            assert result.exit_code == 2
            assert f"no exact {family} route" in result.output
        # a sweep that builds some instances before it crosses the limit
        # leaves no partial family file
        for family in ("tsp", "graph_coloring"):
            out = tmp_path / f"{family}-crossing"
            result = runner.invoke(
                main,
                ["generate", "--sizes", "25-26", "--per-size", "1", "--type", family,
                 "--out", str(out)],
            )
            assert result.exit_code == 2
            assert f"no exact {family} route" in result.output
            assert not (out / f"{family}.jsonl").exists()
            assert list(out.iterdir()) == []

    def test_unverifiable_truth_is_internal_error(self, runner, tmp_path, monkeypatch):
        # an exact route whose solver gives every node one color: generate
        # names the route as a defect of the program, not of its
        # configuration, and leaves no family file with unchecked truth
        monkeypatch.setattr(knowledge, "ROUTES", tuple(
            replace(r, solve=lambda graph: dict.fromkeys(graph.node_names, 0))
            if r.algorithm_id == "exact_coloring" else r for r in knowledge.ROUTES))
        out = tmp_path / "ds"
        result = runner.invoke(main, ["generate", "--sizes", "8", "--per-size", "1",
                                      "--type", "graph_coloring", "--out", str(out)])
        assert result.exit_code == 2
        assert "internal error: exact_coloring answer failed verification (nodes " in result.output
        assert "configuration error" not in result.output
        assert list(out.iterdir()) == []

    def test_generate_holds_one_instance_at_a_time(self, runner, tmp_path):
        # four times the instances of one size: a generate that held the
        # family before writing it would peak near four times as high
        def peak(per_size):
            tracemalloc.start()
            try:
                result = runner.invoke(main, ["generate", "--type", "tsp", "--sizes", "12",
                                              "--per-size", str(per_size), "--workers", "1",
                                              "--out", str(tmp_path / f"per-size-{per_size}")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
            return peak

        peak(1)  # first-call caches stay out of the measured runs
        assert peak(8) < 1.5 * peak(2)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, runner, tmp_path, workers):
        out = tmp_path / "ds"
        result = runner.invoke(main, ["generate", "--sizes", "8", "--per-size", "1",
                                      "--workers", workers, "--out", str(out)])
        assert result.exit_code == 2
        assert "Invalid value for '--workers'" in result.output
        assert not out.exists()

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

    def test_recording_concurrent_calls_then_replay_is_byte_identical(
        self, runner, tmp_path, monkeypatch
    ):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        dataset = str(out / "vertex_cover.jsonl")
        stub_results = tmp_path / "stub.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", dataset, "--backend-config",
                                      str(_write_stub_config(tmp_path)), "--out", str(stub_results)])
        assert result.exit_code == 0, result.output

        # Four instances in flight at once; a random wait per call makes
        # replies come back, and get recorded, in varying order.
        jitter = random.Random(3)
        answer = OracleStubBackend.complete

        def slow_complete(self, system_prompt, user_prompt):
            time.sleep(jitter.uniform(0.0, 0.003))
            return answer(self, system_prompt, user_prompt)

        monkeypatch.setattr(OracleStubBackend, "complete", slow_complete)
        fixtures = tmp_path / "fixtures.jsonl"
        record = tmp_path / "record.yaml"
        record.write_text(f"kind: record\nfixtures: {fixtures}\ninner:\n  kind: stub\n")
        recorded = tmp_path / "recorded.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", dataset, "--backend-config",
                                      str(record), "--concurrency", "4", "--out", str(recorded)])
        assert result.exit_code == 0, result.output
        assert len(fixtures.read_text().splitlines()) == 4  # one call per instance

        # Replay must find each reply by its prompt, whatever the line order.
        fixtures.write_text("".join(reversed(fixtures.read_text().splitlines(True))))
        replay = tmp_path / "replay.yaml"
        replay.write_text(f"kind: replay\nfixtures: {fixtures}\n")
        replayed = tmp_path / "replayed.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", dataset, "--backend-config",
                                      str(replay), "--out", str(replayed)])
        assert result.exit_code == 0, result.output
        assert recorded.read_bytes() == replayed.read_bytes() == stub_results.read_bytes()

    def test_concurrency_caps_calls_in_flight(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover", "--sizes", "8-10"])
        backend = InFlight()
        monkeypatch.setattr(agents, "make_backend", lambda config: backend)
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", str(out / "vertex_cover.jsonl"),
                                      "--backend-config", str(_write_stub_config(tmp_path)),
                                      "--concurrency", "2", "--out", str(results)])
        assert result.exit_code == 0, result.output
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert len(records) == 6
        assert backend.peak == 2
        assert backend.calls == len(records)
        assert [[row["stage"] for row in r["usage"]] for r in records] == [["extract_graph"]] * 6

    def test_failed_extract_keeps_a_usage_row_for_every_attempt(
        self, runner, tmp_path, monkeypatch
    ):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        monkeypatch.setattr(OracleStubBackend, "complete",
                            lambda self, *args, **kwargs: Completion("junk", 5, 1))
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", str(out / "vertex_cover.jsonl"),
                                      "--backend-config", str(_write_stub_config(tmp_path)),
                                      "--out", str(results)])
        assert result.exit_code == 1
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert [r["stage"] for r in records] == ["extract_graph"] * 4
        rows = [{"stage": "extract_graph", "attempt": k, "input_tokens": 5, "output_tokens": 1}
                for k in (1, 2, 3)]
        assert all(r["usage"] == rows for r in records)

    @pytest.mark.parametrize("verb", ["solve", "solve-direct"])
    @pytest.mark.parametrize("concurrency", ["0", "-2"])
    def test_concurrency_below_one_is_usage_error(self, runner, tmp_path, monkeypatch, verb,
                                                  concurrency):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        calls = []
        monkeypatch.setattr(OracleStubBackend, "complete",
                            lambda self, *args, **kwargs: calls.append(args))
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, [verb, "--dataset", str(out / "vertex_cover.jsonl"),
                                      "--backend-config", str(_write_stub_config(tmp_path)),
                                      "--concurrency", concurrency, "--out", str(results)])
        assert result.exit_code == 2
        assert "Invalid value for '--concurrency'" in result.output
        assert calls == []
        assert not results.exists()

    def test_n_check_is_no_option(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", str(out / "vertex_cover.jsonl"),
                                      "--backend-config", str(_write_stub_config(tmp_path)),
                                      "--n-check", "1", "--out", str(results)])
        assert result.exit_code == 2
        assert "No such option '--n-check'" in result.output
        assert not results.exists()

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

    def test_kb_is_no_option(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "tsp"])
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", str(out / "tsp.jsonl"),
                                      "--backend-config", str(_write_stub_config(tmp_path)),
                                      "--kb", "kb.yaml", "--out", str(results)])
        assert result.exit_code == 2
        assert "No such option '--kb'" in result.output
        assert not results.exists()

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

    def test_malformed_dataset_record_is_config_error(self, runner, tmp_path):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "tsp"])
        lines = (out / "tsp.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        del record["hidden"]["truth"]["optimal"]["kind"]
        lines[1] = json.dumps(record)
        dataset = out / "tsp.edited.jsonl"  # a name the manifest does not list
        dataset.write_text("\n".join(lines) + "\n")
        config = _write_stub_config(tmp_path)
        # solve reads only the statements: the corrupt truth surfaces at evaluate
        solved = []
        for name in ("tsp.edited.jsonl", "tsp.text.jsonl"):
            result = runner.invoke(main, ["solve", "--dataset", str(out / name),
                                          "--backend-config", str(config),
                                          "--out", str(tmp_path / f"solved-{name}")])
            assert result.exit_code == 0, result.output
            solved.append((tmp_path / f"solved-{name}").read_bytes())
        assert solved[0] == solved[1]
        results = tmp_path / "results.jsonl"
        results.write_text("")
        result = runner.invoke(main, ["evaluate", "--results", str(results),
                                      "--dataset", str(dataset)])
        assert result.exit_code == 2
        assert (f"configuration error: {dataset}: line 2: "
                "malformed instance (KeyError: 'kind')") in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("verb", ["solve", "solve-direct"])
    @pytest.mark.parametrize("line, message", [
        ("not json", "line 2: not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        ('{"problem_type": "vertex_cover", "text": "t"}',
         "line 2: malformed instance (ValueError: instance record needs at least 'id' and 'text')"),
        ('{"id": "x", "problem_type": "vertex_cover"}',
         "line 2: malformed instance (ValueError: instance record needs at least 'id' and 'text')"),
        ("5", "line 2: not a JSON object"),
    ], ids=["bad-json", "no-id", "no-text", "not-an-object"])
    def test_unreadable_statement_is_config_error_before_any_call(
        self, runner, tmp_path, monkeypatch, verb, line, message
    ):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        calls = []
        monkeypatch.setattr(OracleStubBackend, "complete",
                            lambda self, *args, **kwargs: calls.append(args))
        dataset = out / "vertex_cover.text.jsonl"
        lines = dataset.read_text().splitlines()
        lines[1] = line
        dataset.write_text("\n".join(lines) + "\n")
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, [verb, "--dataset", str(dataset), "--backend-config",
                                      str(_write_stub_config(tmp_path)), "--out", str(results)])
        assert result.exit_code == 2
        assert f"configuration error: {dataset}: {message}" in result.output
        assert "Traceback" not in result.output
        assert calls == []
        assert not results.exists()

    @pytest.mark.parametrize("verb", ["solve", "solve-direct"])
    def test_corrupt_hidden_section_solves_like_its_text_only_line(self, runner, tmp_path, verb):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "graph_coloring"])
        config = str(_write_stub_config(tmp_path))
        lines = (out / "graph_coloring.jsonl").read_text().splitlines()
        corruptions = [
            lambda hidden: hidden["truth"]["optimal"].pop("kind"),
            lambda hidden: hidden.update(graph="# nodes: A\n# directed: maybe\nA B x"),
            lambda hidden: hidden.update(truth=5),
            lambda hidden: hidden.clear() or hidden.update(truth={"optimal": []}),
        ]
        for i, corrupt in enumerate(corruptions):
            record = json.loads(lines[i])
            corrupt(record["hidden"])
            lines[i] = json.dumps(record)
        corrupted = tmp_path / "corrupted.jsonl"
        corrupted.write_text("\n".join(lines) + "\n")
        written = []
        for dataset in (corrupted, out / "graph_coloring.text.jsonl"):
            results = tmp_path / f"{verb}-{dataset.name}"
            result = runner.invoke(main, [verb, "--dataset", str(dataset),
                                          "--backend-config", config, "--out", str(results)])
            assert result.exit_code == 0, result.output
            written.append(results.read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b'"status":"ok"') == 4

    def test_missing_dataset_is_config_error(self, runner, tmp_path):
        config = _write_stub_config(tmp_path)
        result = runner.invoke(
            main,
            ["solve", "--dataset", str(tmp_path / "nope.jsonl"),
             "--backend-config", str(config)],
        )
        assert result.exit_code == 2

    def test_stub_solves_text_only_files(self, runner, tmp_path):
        # the stub reads each statement from its prompts, so the hidden
        # part of a record changes nothing it writes
        out = tmp_path / "ds"
        families = ["tsp", "graph_coloring", "vertex_cover", "shortest_path", "cycle_detection"]
        _generate(runner, out, extra=[arg for family in families for arg in ("--type", family)])
        config = str(_write_stub_config(tmp_path))
        for family in families:
            for verb in ("solve", "solve-direct"):
                written = []
                for dataset in (f"{family}.jsonl", f"{family}.text.jsonl"):
                    results = tmp_path / f"{verb}-{dataset}"
                    result = runner.invoke(main, [verb, "--dataset", str(out / dataset),
                                                  "--backend-config", config,
                                                  "--out", str(results)])
                    assert result.exit_code == 0, result.output
                    written.append(results.read_bytes())
                assert written[0] == written[1], (family, verb)
                assert written[0].count(b'"status":"ok"') == 4


    @pytest.mark.parametrize("verb", ["solve", "solve-direct", "evaluate"])
    def test_bad_price_is_config_error_before_any_call(self, runner, tmp_path, monkeypatch,
                                                       verb):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        calls = []
        monkeypatch.setattr(OracleStubBackend, "complete",
                            lambda self, *args, **kwargs: calls.append(args))
        config = tmp_path / "bad.yaml"
        config.write_text('kind: stub\nprices:\n  input_per_million: "-5"\n')
        dataset = str(out / "vertex_cover.jsonl")
        results = tmp_path / "results.jsonl"
        if verb == "evaluate":
            results.write_text('{"id": "vertex_cover-n08-i00", "status": "failed"}\n')
            args = ["--results", str(results), "--out", str(tmp_path / "report")]
        else:
            args = ["--out", str(results)]
        result = runner.invoke(
            main, [verb, "--dataset", dataset, "--backend-config", str(config), *args]
        )
        assert result.exit_code == 2
        assert "'input_per_million' must be a non-negative exact number, got '-5'" in result.output
        assert calls == []
        assert not (tmp_path / "report").exists()
        assert results.exists() == (verb == "evaluate")

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

        def counted_complete(self, system_prompt, user_prompt):
            calls.append(system_prompt)
            return answer(self, system_prompt, user_prompt)

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


def test_every_option_has_help_text():
    missing = [f"{name} {param.opts[0]}" for name, command in main.commands.items()
               for param in command.params if isinstance(param, click.Option) and not param.help]
    assert missing == []


def test_no_file_is_opened_in_the_locale_encoding(tmp_path):
    # each command in a fresh interpreter that fails on an open() naming no encoding
    def run(*args):
        done = run_python("-X", "warn_default_encoding", "-W", "error::EncodingWarning",
                          "-m", "graphcrew.cli", *map(str, args))
        assert done.returncode == 0, done.stderr
        assert "EncodingWarning" not in done.stderr

    data, fixtures = tmp_path / "ds", tmp_path / "fixtures.jsonl"
    record, replay = tmp_path / "record.yaml", tmp_path / "replay.yaml"
    record.write_text(f"kind: record\nfixtures: {fixtures}\ninner:\n  kind: stub\n")
    replay.write_text(f"kind: replay\nfixtures: {fixtures}\n")
    run("generate", "--type", "vertex_cover", "--sizes", "8", "--per-size", "1", "--out", data)
    dataset = data / "vertex_cover.jsonl"
    for config, results in ((record, tmp_path / "recorded.jsonl"),
                            (replay, tmp_path / "replayed.jsonl")):
        run("solve", "--dataset", dataset, "--backend-config", config, "--out", results)
    run("evaluate", "--results", results, "--dataset", dataset, "--out", tmp_path / "report")
    assert (tmp_path / "report" / "report.txt").is_file()


@pytest.mark.parametrize("name", ["manifest.json", "report.txt"])
def test_a_write_stopped_partway_leaves_no_file(runner, tmp_path, monkeypatch, name):
    # the file takes half of what it is given and then fails, as on a full
    # disk: neither it nor its .partial is left for a reader to take whole
    data, report = tmp_path / "ds", tmp_path / "report"
    if name == "report.txt":
        _generate(runner, data, extra=["--type", "vertex_cover"])
        results = tmp_path / "results.jsonl"
        assert runner.invoke(main, ["solve", "--dataset", str(data / "vertex_cover.jsonl"),
                                    "--backend-config", str(_write_stub_config(tmp_path)),
                                    "--out", str(results)]).exit_code == 0

    def open_failing(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if Path(path).name == f"{name}.partial":
            real_write = fh.write

            def write(text):
                real_write(text[:len(text) // 2])
                fh.flush()
                raise OSError(28, "No space left on device")
            fh.write = write
        return fh

    monkeypatch.setattr(records, "open", open_failing, raising=False)
    if name == "report.txt":
        result = runner.invoke(main, ["evaluate", "--results", str(results), "--dataset",
                                      str(data / "vertex_cover.jsonl"), "--out", str(report)])
        directory = report
        assert (report / "scores.jsonl").is_file()
    else:
        result = runner.invoke(main, ["generate", "--type", "vertex_cover", "--sizes", "8",
                                      "--per-size", "1", "--out", str(data)])
        directory = data
        assert (data / "vertex_cover.jsonl").is_file()
    assert isinstance(result.exception, OSError)
    assert not (directory / name).exists()
    assert not (directory / f"{name}.partial").exists()


def test_offline_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # generate and a stub solve in fresh interpreters, under two hash seeds
    config = tmp_path / "stub.yaml"
    config.write_text("kind: stub\n")
    families = ("graph_coloring", "vertex_cover")
    written = []
    for hash_seed in ("1", "2"):
        out = tmp_path / f"hash-seed-{hash_seed}"

        def run(*args):
            done = run_python("-m", "graphcrew.cli", *map(str, args),
                              env={"PYTHONHASHSEED": hash_seed})
            assert done.returncode == 0, done.stderr

        run("generate", *(arg for family in families for arg in ("--type", family)),
            "--sizes", "8-10", "--per-size", "2", "--out", out)
        for family in families:
            run("solve", "--dataset", out / f"{family}.jsonl", "--backend-config", config,
                "--concurrency", "1", "--out", out / f"{family}.results.jsonl")
        written.append({path.name: path.read_bytes() for path in out.iterdir()})
    # per family its instances, statements and results, and one manifest
    assert len(written[0]) == 7
    assert written[0] == written[1]


# every command in a process that cannot import the test-only packages; the
# runtime needs only click and PyYAML
RUNTIME_ONLY = """\
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {"scipy", "numpy", "hypothesis", "networkx", "pytest"}:
            raise ImportError(f"{name} is not a runtime dependency")

sys.meta_path.insert(0, Refuse())
from graphcrew.cli import main

def run(*args):
    try:
        main(list(args), prog_name="graphcrew")
    except SystemExit as exc:
        if exc.code:
            raise

data, config = sys.argv[1:]
families = ("tsp", "graph_coloring", "shortest_path")
run("generate", *(arg for f in families for arg in ("--type", f)),
    "--sizes", "8", "--per-size", "2", "--out", data)
for f in families:
    dataset = f"{data}/{f}.jsonl"
    for verb in ("solve", "solve-direct"):
        results = f"{data}/{f}.{verb}.jsonl"
        run(verb, "--dataset", dataset, "--backend-config", config, "--out", results)
        run("evaluate", "--results", results, "--dataset", dataset,
            "--out", f"{data}/{f}.{verb}.report")
"""


def test_runtime_needs_only_click_and_yaml(tmp_path):
    data = tmp_path / "ds"
    done = run_python("-c", RUNTIME_ONLY, str(data), str(_write_stub_config(tmp_path)))
    assert done.returncode == 0, done.stderr
    for family in ("tsp", "graph_coloring", "shortest_path"):
        for verb in ("solve", "solve-direct"):
            assert (data / f"{family}.{verb}.report" / "report.txt").is_file()


# runs the command named in its arguments, then prints the modules loaded
LOADED_MODULES = """\
import json, sys
from graphcrew.cli import main
try:
    main(sys.argv[1:], prog_name="graphcrew")
except SystemExit as exc:
    if exc.code:
        raise
print(json.dumps(sorted(sys.modules)))
"""


def test_each_command_loads_only_its_own_layers(tmp_path):
    # each command in a fresh interpreter; a name stands for itself and its submodules
    def loaded(*args):
        done = run_python("-c", LOADED_MODULES, *map(str, args))
        assert done.returncode == 0, done.stderr
        return set(json.loads(done.stdout.splitlines()[-1]))

    def assert_not_loaded(modules, names):
        assert sorted(m for m in modules for name in names
                      if m == name or m.startswith(name + ".")) == []

    data, config = tmp_path / "ds", _write_stub_config(tmp_path)
    dataset, results = data / "vertex_cover.jsonl", tmp_path / "results.jsonl"
    modules = loaded("generate", "--type", "vertex_cover", "--sizes", "8", "--per-size", "1",
                     "--out", data)
    assert_not_loaded(modules, ["graphcrew.agents", "graphcrew.evaluation",
                                "graphcrew.dataset.extract", "yaml", "multiprocessing",
                                "http.client", "urllib.request"])
    modules = loaded("solve", "--dataset", dataset, "--backend-config", config, "--out", results)
    assert "graphcrew.agents" in modules
    assert_not_loaded(modules, ["http.client", "urllib.request", "graphcrew.evaluation"])
    # a replay of fixtures recorded around the stub reads no prompt itself
    fixtures, record, replay = (tmp_path / name for name in
                                ("fixtures.jsonl", "record.yaml", "replay.yaml"))
    record.write_text(f"kind: record\nfixtures: {fixtures}\ninner:\n  kind: stub\n")
    replay.write_text(f"kind: replay\nfixtures: {fixtures}\n")
    loaded("solve", "--dataset", dataset, "--backend-config", record, "--out", results)
    modules = loaded("solve", "--dataset", dataset, "--backend-config", replay,
                     "--out", tmp_path / "replayed.jsonl")
    assert (tmp_path / "replayed.jsonl").read_bytes() == results.read_bytes()
    assert_not_loaded(modules, ["graphcrew.dataset.extract", "http.client", "urllib.request",
                                "graphcrew.evaluation"])
    modules = loaded("evaluate", "--results", results, "--dataset", dataset,
                     "--out", tmp_path / "report")
    assert "graphcrew.evaluation" in modules
    assert_not_loaded(modules, ["graphcrew.agents", "yaml", "http.client"])


# a line that no JSONL file may hold, and the reader's message for it
UNREADABLE_LINES = {
    "bad-json": (b"not json", "not valid JSON (Expecting value: line 1 column 1 (char 0))"),
    "number": (b"5", "not a JSON object"),
    "list": (b'["tsp-n08-i00", "ok"]', "not a JSON object"),
    "not-utf8": (b'{"id": "\xff"}', "not UTF-8 text ('utf-8' codec can't decode byte 0xff "
                                     "in position 8: invalid start byte)"),
}


@pytest.mark.parametrize("name", UNREADABLE_LINES)
@pytest.mark.parametrize("kind", ["dataset-solve", "dataset-evaluate", "results", "fixtures"])
def test_every_jsonl_file_refuses_a_line_by_file_and_line(runner, tmp_path, kind, name):
    line, message = UNREADABLE_LINES[name]
    out = tmp_path / "ds"
    _generate(runner, out, extra=["--type", "tsp"])
    dataset, config = out / "tsp.jsonl", _write_stub_config(tmp_path)
    results = tmp_path / "results.jsonl"
    result = runner.invoke(main, ["solve", "--dataset", str(dataset), "--backend-config",
                                  str(config), "--out", str(results)])
    assert result.exit_code == 0, result.output
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text('{"key": "k", "text": "t", "input_tokens": 1, "output_tokens": 2}\n')
    # a good first record, then blank lines, which are skipped but counted
    broken = tmp_path / "broken.jsonl"
    source = {"results": results, "fixtures": fixtures}.get(kind, dataset)
    broken.write_bytes(source.read_bytes().splitlines()[0] + b"\n\n   \n" + line + b"\n")
    replay = tmp_path / "replay.yaml"
    replay.write_text(f"kind: replay\nfixtures: {broken}\n")
    args = {
        "dataset-solve": ["solve", "--dataset", broken, "--backend-config", config],
        "dataset-evaluate": ["evaluate", "--results", results, "--dataset", broken],
        "results": ["evaluate", "--results", broken, "--dataset", dataset],
        "fixtures": ["solve", "--dataset", dataset, "--backend-config", replay],
    }[kind]
    report = tmp_path / "report"
    result = runner.invoke(main, [*map(str, args), "--out", str(report)])
    assert result.exit_code == 2
    assert result.output == f"configuration error: {broken}: line 4: {message}\n"
    assert not report.exists()


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

    def test_hidden_graphs_in_the_old_form_score_byte_identically(self, runner, tmp_path):
        # files written before every graph was undirected carry a
        # "# directed: false" line under each hidden graph's roster
        _generate(runner, tmp_path / "ds", extra=[f"--type={t}" for t in PROBLEM_TYPES])
        (tmp_path / "old").mkdir()
        config = str(_write_stub_config(tmp_path))
        for family in PROBLEM_TYPES:
            new = tmp_path / "ds" / f"{family}.jsonl"
            records = [json.loads(line) for line in new.read_text().splitlines()]
            for record in records:
                roster, rest = record["hidden"]["graph"].split("\n", 1)
                assert roster.startswith("# nodes:") and "directed" not in rest
                record["hidden"]["graph"] = f"{roster}\n# directed: false\n{rest}"
            old = tmp_path / "old" / new.name
            old.write_text("".join(json.dumps(record) + "\n" for record in records))
            reports = []
            for dataset in (new, old):
                results = dataset.with_suffix(".results.jsonl")
                report = dataset.with_suffix(".report")
                for args in (["solve", "--dataset", dataset, "--backend-config", config,
                              "--out", results],
                             ["evaluate", "--results", results, "--dataset", dataset,
                              "--backend-config", config, "--out", report]):
                    result = runner.invoke(main, [str(arg) for arg in args])
                    assert result.exit_code == 0, result.output
                reports.append([(report / name).read_bytes()
                                for name in ("scores.jsonl", "report.txt")])
            assert reports[0] == reports[1]

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

    @pytest.mark.parametrize("verb", ["solve", "solve-direct"])
    def test_each_result_carries_the_digest_of_its_statement(self, runner, tmp_path, verb):
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "vertex_cover"])
        dataset = out / "vertex_cover.jsonl"
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, [verb, "--dataset", str(dataset), "--backend-config",
                                      str(_write_stub_config(tmp_path)), "--out", str(results)])
        assert result.exit_code == 0, result.output
        texts = [json.loads(line)["text"] for line in dataset.read_text().splitlines()]
        records = [json.loads(line) for line in results.read_text().splitlines()]
        assert [list(r)[:3] for r in records] == [["id", "problem_type", "text_sha256"]] * 4
        assert [r["text_sha256"] for r in records] == [sha256(text) for text in texts]

        # a result whose digest is missing is refused, naming its line
        lines = results.read_text().splitlines()
        unbound = json.loads(lines[1])
        del unbound["text_sha256"]
        bad = tmp_path / "unbound.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(unbound), *lines[2:]]) + "\n")
        result = runner.invoke(main, ["evaluate", "--results", str(bad),
                                      "--dataset", str(dataset), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert (f"{bad}: line 2: result for 'vertex_cover-n08-i01' was not answered from "
                "this dataset's statement (text_sha256 None)") in result.output
        assert not (tmp_path / "rep").exists()

    def test_results_of_another_seed_are_config_error(self, runner, tmp_path):
        # the ids of seeds 7 and 8 are the same; their statements are not
        seven, eight = tmp_path / "ds7", tmp_path / "ds8"
        _generate(runner, seven, extra=["--type", "vertex_cover", "--seed", "7"])
        _generate(runner, eight, extra=["--type", "vertex_cover", "--seed", "8"])
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", str(seven / "vertex_cover.jsonl"),
                                      "--backend-config", str(_write_stub_config(tmp_path)),
                                      "--out", str(results)])
        assert result.exit_code == 0, result.output
        digest = json.loads(results.read_text().splitlines()[0])["text_sha256"]
        result = runner.invoke(main, ["evaluate", "--results", str(results), "--dataset",
                                      str(eight / "vertex_cover.jsonl"),
                                      "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert (f"{results}: line 1: result for 'vertex_cover-n08-i00' was not answered from "
                f"this dataset's statement (text_sha256 '{digest}')") in result.output
        assert not (tmp_path / "rep").exists()

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

    def test_answer_of_the_wrong_kind_scores_as_failure(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path)
        lines = results.read_text().splitlines()
        record = json.loads(lines[0])
        record["solution"] = {"kind": "node_set", "algorithm": "direct", "exact": False,
                              "objective": "1", "nodes": ["Nowhere"]}
        results.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        report_dir = tmp_path / "report"
        result = runner.invoke(main, ["evaluate", "--results", str(results),
                                      "--dataset", str(dataset), "--out", str(report_dir)])
        assert result.exit_code == 0, result.output
        scores = [json.loads(l) for l in (report_dir / "scores.jsonl").read_text().splitlines()]
        assert scores[0] == {"id": record["id"], "problem_type": "tsp", "acc_nodes": "0",
                             "acc_result": "0", "acc_all": "0",
                             "failure_reason": "tsp expects a tour answer, got node_set"}
        assert all(score["acc_all"] == "1" for score in scores[1:])

    def test_cost_table_text(self, runner, tmp_path):
        # stages are first met in the order classify, extract_graph (first
        # instance), then audit, classify (second); at $0.15 in and $0.60 out
        # per million, classify's 2203 in and 141 out cost 415.05 millionths
        out = tmp_path / "ds"
        _generate(runner, out, extra=["--type", "tsp"])
        usage = [
            [("classify", 1203, 81), ("extract_graph", 2999, 457)],
            [("audit", 1501, 39), ("classify", 1000, 60)],
        ]
        texts = [json.loads(line)["text"] for line in (out / "tsp.jsonl").read_text().splitlines()]
        results = tmp_path / "results.jsonl"
        results.write_text("".join(
            json.dumps({"id": ident, "text_sha256": sha256(text), "status": "failed",
                        "failure": "x", "usage": [
                {"stage": stage, "attempt": 1, "input_tokens": ins, "output_tokens": outs}
                for stage, ins, outs in rows]}) + "\n"
            for ident, text, rows in zip(("tsp-n08-i00", "tsp-n08-i01"), texts, usage)
        ))
        report_dir = tmp_path / "report"
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(results), "--dataset", str(out / "tsp.jsonl"),
             "--backend-config", str(_write_stub_config(tmp_path)), "--out", str(report_dir)],
        )
        assert result.exit_code == 0, result.output
        assert (report_dir / "report.txt").read_text() == (
            "task     instances  acc_all  acc_nodes  acc_result  error_rate\n"
            "-------  ---------  -------  ---------  ----------  ----------\n"
            "tsp      4          0.0%     0.0%       0.0%        100.0%\n"
            "overall  4          0.0%     0.0%       0.0%        100.0%\n"
            "\n"
            "stage          calls  input_tokens  output_tokens  price\n"
            "-------------  -----  ------------  -------------  ---------\n"
            "classify       2      2203          141            $0.000415\n"
            "extract_graph  1      2999          457            $0.000724\n"
            "audit          1      1501          39             $0.000249\n"
            "total          4      6703          637            $0.001388\n"
        )

    def test_answer_beating_the_truth_is_config_error(self, runner, tmp_path):
        dataset, config, results = self._solve(runner, tmp_path, "vertex_cover")
        # the stored optimum of the second instance becomes the cover of every
        # node, valid but not optimal, so the solved answer now beats it
        lines = dataset.read_text().splitlines()
        record = json.loads(lines[1])
        optimal = record["hidden"]["truth"]["optimal"]
        stored = int(optimal["objective"])
        optimal["nodes"] = list(parse_graph(record["hidden"]["graph"]).node_names)
        optimal["objective"] = str(len(optimal["nodes"]))
        lines[1] = json.dumps(record)
        edited = tmp_path / "vertex_cover.jsonl"
        edited.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["evaluate", "--results", str(results), "--dataset", str(edited)],
        )
        assert result.exit_code == 2
        assert (
            f"{results}: line 2: instance {record['id']!r}: a valid answer has objective "
            f"{stored}, below the stored optimum {optimal['objective']}; "
            "the dataset's truth is wrong"
        ) in result.output
        assert "Traceback" not in result.output

    def _solve_seed_7_covers(self, runner, tmp_path):
        """Stub results for seed-7 vertex covers (n = 8, 2 instances), and
        the dataset's lines."""
        out = tmp_path / "ds"
        result = runner.invoke(main, ["generate", "--type", "vertex_cover", "--sizes", "8",
                                      "--per-size", "2", "--seed", "7", "--out", str(out)])
        assert result.exit_code == 0, result.output
        results = tmp_path / "results.jsonl"
        result = runner.invoke(main, ["solve", "--dataset", str(out / "vertex_cover.jsonl"),
                                      "--backend-config", str(_write_stub_config(tmp_path)),
                                      "--out", str(results)])
        assert result.exit_code == 0, result.output
        return results, (out / "vertex_cover.jsonl").read_text().splitlines()

    def test_misstated_stored_optimum_is_config_error(self, runner, tmp_path):
        # a lowered objective on the stored payload could never be beaten:
        # the stub's right answer of 6 would score 0
        results, lines = self._solve_seed_7_covers(runner, tmp_path)
        record = json.loads(lines[0])
        optimal = record["hidden"]["truth"]["optimal"]
        assert (optimal["objective"], len(optimal["nodes"])) == ("6", 6)
        optimal["objective"] = "5"
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        result = runner.invoke(main, ["evaluate", "--results", str(results),
                                      "--dataset", str(edited), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert (f"configuration error: {edited}: line 1: the stored optimum of "
                "'vertex_cover-n08-i00' fails verification on its graph "
                "(stated size 5 but 6 nodes listed)") in result.output
        assert not (tmp_path / "rep").exists()

    def test_stored_optimum_invalid_on_its_graph_is_config_error(self, runner, tmp_path):
        results, lines = self._solve_seed_7_covers(runner, tmp_path)
        record = json.loads(lines[1])
        optimal = record["hidden"]["truth"]["optimal"]
        optimal["nodes"] = optimal["nodes"][1:]
        optimal["objective"] = str(len(optimal["nodes"]))
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join([lines[0], json.dumps(record)]) + "\n")
        result = runner.invoke(main, ["evaluate", "--results", str(results),
                                      "--dataset", str(edited), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert (f"configuration error: {edited}: line 2: the stored optimum of "
                "'vertex_cover-n08-i01' fails verification on its graph (cover misses edge"
                ) in result.output
        assert not (tmp_path / "rep").exists()

    def test_stored_optimum_of_the_wrong_kind_is_config_error(self, runner, tmp_path):
        results, lines = self._solve_seed_7_covers(runner, tmp_path)
        record = json.loads(lines[0])
        hidden = record["hidden"]["truth"]
        hidden["optimal"] = {"kind": "tour", "algorithm": "held_karp", "exact": True,
                             "objective": "6", "order": hidden["optimal"]["nodes"]}
        edited = tmp_path / "edited.jsonl"
        edited.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        result = runner.invoke(main, ["evaluate", "--results", str(results),
                                      "--dataset", str(edited), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert (f"configuration error: {edited}: line 1: the stored optimum of "
                "'vertex_cover-n08-i00' fails verification on its graph "
                "(vertex_cover expects a node_set solution, got tour)") in result.output
        assert not (tmp_path / "rep").exists()

    def test_dataset_unlike_its_manifest_is_config_error(self, runner, tmp_path):
        results, lines = self._solve_seed_7_covers(runner, tmp_path)
        dataset = tmp_path / "ds" / "vertex_cover.jsonl"
        listed = json.loads((tmp_path / "ds" / "manifest.json").read_text())["datasets"][0]
        # the same records in other bytes: under its own name the manifest
        # refuses the file, under a name it does not list the file scores
        rewritten = "\n".join(json.dumps(json.loads(line)) for line in lines) + "\n"
        dataset.write_text(rewritten)
        result = runner.invoke(main, ["evaluate", "--results", str(results),
                                      "--dataset", str(dataset), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert (f"configuration error: {dataset}: sha256 {sha256(rewritten)} differs from the "
                f"{listed['sha256']} that {tmp_path / 'ds' / 'manifest.json'} lists; "
                "the file changed after it was generated") in result.output
        assert not (tmp_path / "rep").exists()
        unlisted = tmp_path / "ds" / "unlisted.jsonl"
        unlisted.write_text(rewritten)
        result = runner.invoke(main, ["evaluate", "--results", str(results),
                                      "--dataset", str(unlisted), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 0, result.output
        assert "100.0%" in result.output
        # a manifest that cannot be read vouches for nothing
        manifest = tmp_path / "ds" / "manifest.json"
        manifest.write_text('{"datasets": 5}\n')
        result = runner.invoke(main, ["evaluate", "--results", str(results),
                                      "--dataset", str(unlisted), "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2
        assert (f"configuration error: {manifest}: unreadable manifest "
                "(TypeError: 'int' object is not iterable)") in result.output

    @pytest.mark.parametrize("record, message", [
        ({"id": "tsp-n08-i00", "status": "ok", "solution": {}}, "malformed result (KeyError:"),
        ({"id": "tsp-n08-i00", "status": "failed",
          "usage": [{"attempt": 1, "input_tokens": 5, "output_tokens": 7}]},
         "malformed result (KeyError:"),
        (["tsp-n08-i00", "ok"], "not a JSON object"),
        ({"id": ["tsp-n08-i00"], "status": "failed"},
         "result for unknown instance ['tsp-n08-i00']"),
        ({"id": "tsp-n08-i00", "status": "failed",
          "usage": [{"stage": "classify", "input_tokens": "5", "output_tokens": 7}]},
         "malformed result (ValueError: usage token counts must be non-negative integers, "
         "got ('5', 7))"),
        ({"id": "tsp-n08-i00", "status": "failed",
          "usage": [{"stage": "classify", "input_tokens": -500, "output_tokens": 7}]},
         "malformed result (ValueError: usage token counts must be non-negative integers, "
         "got (-500, 7))"),
        ({"id": "tsp-n08-i00", "status": "failed",
          "usage": [{"stage": "classify", "input_tokens": 5, "output_tokens": 1.5}]},
         "malformed result (ValueError: usage token counts must be non-negative integers, "
         "got (5, 1.5))"),
        ({"id": "tsp-n08-i00", "status": "failed",
          "usage": [{"stage": ["classify"], "input_tokens": 5, "output_tokens": 7}]},
         "malformed result (TypeError: usage stage must be a string, got ['classify'])"),
    ], ids=["empty-solution", "usage-without-stage", "not-an-object", "unhashable-id",
            "string-tokens", "negative-tokens", "fractional-tokens", "stage-not-a-string"])
    def test_malformed_record_is_config_error(self, runner, tmp_path, record, message):
        dataset, config, results = self._solve(runner, tmp_path)
        lines = results.read_text().splitlines()
        if isinstance(record, dict):  # bound to tsp-n08-i00's statement, as solve binds it
            record = {**record, "text_sha256": json.loads(lines[0])["text_sha256"]}
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines[1:] + [json.dumps(record)]) + "\n")
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
