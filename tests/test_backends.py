import json

import pytest
import requests

from graphcrew.agents import (
    BackendError,
    Completion,
    ConfigError,
    LiveChatBackend,
    OracleStubBackend,
    RecordingBackend,
    ReplayBackend,
    Usage,
    extract_block,
    load_backend_config,
    make_backend,
    parse_fields,
    whitespace_token_count,
)
from graphcrew.agents.backends import BackendConfig
from graphcrew.formats import serialize_graph
from graphcrew.graph import build_graph


def tsp_hidden():
    names = ["Depot", "Mill", "Quay", "Yard"]
    g = build_graph(
        names,
        False,
        True,
        [
            ("Depot", "Mill", 3), ("Depot", "Quay", 9), ("Depot", "Yard", 4),
            ("Mill", "Quay", 5), ("Mill", "Yard", 8), ("Quay", "Yard", 2),
        ],
    )
    return {
        "problem_type": "tsp",
        "graph_text": serialize_graph(g),
        "source": None,
        "target": None,
        "narrative": "A courier plans a loop between four sites.",
        "objective": "find the cheapest round trip",
        "optimal": {
            "kind": "tour",
            "order": ["Depot", "Mill", "Quay", "Yard"],
            "objective": "14",
        },
    }


def test_whitespace_token_count():
    assert whitespace_token_count("") == 0
    assert whitespace_token_count("one two  three\nfour") == 4


def test_load_backend_config(tmp_path):
    path = tmp_path / "live.yaml"
    path.write_text(
        "kind: live\n"
        "endpoint: https://api.example.com/v1\n"
        "model: test-model\n"
        "api_key_env: EXAMPLE_KEY\n"
        "temperature: 0.0\n"
        "prices:\n"
        "  input_per_million: '0.15'\n"
        "  output_per_million: '0.60'\n"
    )
    config = load_backend_config(path)
    assert config.kind == "live"
    assert config.model == "test-model"
    assert config.prices.input_per_million == "0.15"
    assert config.prices.currency == "USD"


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        load_backend_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: telepathy\n")
    with pytest.raises(ConfigError):
        load_backend_config(bad)
    bad.write_text("kind: live\nmodel: m\napi_key_env: K\n")
    with pytest.raises(ConfigError):
        load_backend_config(bad)  # endpoint missing
    bad.write_text("kind: live\nendpoint: https://x\nmodel: m\n")
    with pytest.raises(ConfigError):
        load_backend_config(bad)  # api_key_env missing
    bad.write_text("kind: replay\n")
    with pytest.raises(ConfigError):
        load_backend_config(bad)  # fixtures missing
    bad.write_text("kind: record\nfixtures: f.jsonl\n")
    with pytest.raises(ConfigError):
        load_backend_config(bad)  # inner missing
    bad.write_text("kind: [\n")
    with pytest.raises(ConfigError):
        load_backend_config(bad)


def live_config():
    return BackendConfig(
        kind="live",
        endpoint="https://api.example.com/v1",
        model="test-model",
        api_key_env="EXAMPLE_KEY",
    )


def test_live_backend_requires_env_key(monkeypatch):
    monkeypatch.delenv("EXAMPLE_KEY", raising=False)
    with pytest.raises(ConfigError) as err:
        LiveChatBackend(live_config())
    assert "EXAMPLE_KEY" in str(err.value)


class FakeResponse:
    def __init__(self, status_code, payload):
        self.status_code = status_code
        self._payload = payload
        self.text = json.dumps(payload)

    def json(self):
        return self._payload


def test_live_backend_happy_path(monkeypatch):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test")
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(url=url, payload=json, headers=headers, timeout=timeout)
        return FakeResponse(
            200,
            {
                "choices": [{"message": {"content": "reply text"}}],
                "usage": {"prompt_tokens": 321, "completion_tokens": 45},
            },
        )

    monkeypatch.setattr(requests, "post", fake_post)
    backend = LiveChatBackend(live_config())
    completion = backend.complete("sys", "user", {"temperature": 0.0})
    assert completion == Completion("reply text", Usage(321, 45))
    assert seen["url"] == "https://api.example.com/v1/chat/completions"
    assert seen["headers"]["Authorization"] == "Bearer sk-test"
    assert seen["payload"]["model"] == "test-model"
    assert seen["payload"]["temperature"] == 0.0
    assert seen["payload"]["messages"][0] == {"role": "system", "content": "sys"}
    assert seen["payload"]["messages"][1] == {"role": "user", "content": "user"}


def test_live_backend_error_paths(monkeypatch):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test")
    backend = LiveChatBackend(live_config())

    monkeypatch.setattr(
        requests, "post", lambda *a, **k: FakeResponse(500, {"error": "boom"})
    )
    with pytest.raises(BackendError):
        backend.complete("sys", "user")

    def raise_timeout(*a, **k):
        raise requests.ConnectTimeout("slow")

    monkeypatch.setattr(requests, "post", raise_timeout)
    with pytest.raises(BackendError):
        backend.complete("sys", "user")

    monkeypatch.setattr(requests, "post", lambda *a, **k: FakeResponse(200, {"weird": 1}))
    with pytest.raises(BackendError):
        backend.complete("sys", "user")


def test_live_backend_usage_fallback(monkeypatch):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test")
    monkeypatch.setattr(
        requests,
        "post",
        lambda *a, **k: FakeResponse(200, {"choices": [{"message": {"content": "a b c"}}]}),
    )
    backend = LiveChatBackend(live_config())
    completion = backend.complete("one two", "three")
    assert completion.usage == Usage(3, 3)


class ScriptedInner:
    backend_id = "scripted"

    def __init__(self, replies):
        self.replies = list(replies)

    def complete(self, system_prompt, user_prompt, params=None):
        text = self.replies.pop(0)
        return Completion(text, Usage(11, whitespace_token_count(text)))


def test_record_then_replay_is_byte_identical(tmp_path):
    fixtures = tmp_path / "fixtures.jsonl"
    inner = ScriptedInner(["first reply", "second reply"])
    recorder = RecordingBackend(inner, fixtures)
    first = recorder.complete("[stage:classify]\nsys", "user one", {"temperature": 0.0})
    second = recorder.complete("sys", "user two", {"temperature": 0.0})

    replay = ReplayBackend(fixtures)
    assert replay.complete("[stage:classify]\nsys", "user one", {"temperature": 0.0}) == first
    assert replay.complete("sys", "user two", {"temperature": 0.0}) == second

    entries = [json.loads(line) for line in fixtures.read_text().splitlines()]
    assert [e["stage"] for e in entries] == ["classify", ""]
    assert entries[0]["text"] == "first reply"


def test_replay_misses_and_bad_fixtures(tmp_path):
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text(
        json.dumps({"key": "k", "text": "t", "input_tokens": 1, "output_tokens": 2}) + "\n"
    )
    replay = ReplayBackend(fixtures)
    with pytest.raises(BackendError) as err:
        replay.complete("sys", "never recorded")
    assert "no recorded reply" in str(err.value)

    with pytest.raises(ConfigError):
        ReplayBackend(tmp_path / "nope.jsonl")
    broken = tmp_path / "broken.jsonl"
    broken.write_text("not json\n")
    with pytest.raises(ConfigError):
        ReplayBackend(broken)


def test_stub_answers_every_stage_in_contract_shape():
    hidden = tsp_hidden()
    stub = OracleStubBackend(hidden)
    narrative = stub.complete("[stage:narrative]", "u")
    assert extract_block(narrative.text, "narrative") == hidden["narrative"]
    assert narrative.usage.output_tokens == whitespace_token_count(narrative.text)

    classify = stub.complete("[stage:classify]", "u")
    fields = parse_fields(extract_block(classify.text, "problem"))
    assert fields["problem_type"] == "tsp"
    assert fields["source"] == "none" and fields["target"] == "none"

    extract = stub.complete("[stage:extract_graph]", "u")
    assert extract_block(extract.text, "graph") == hidden["graph_text"].strip()
    assert stub.complete("[stage:normalize]", "u").text == extract.text

    select = stub.complete("[stage:select]", "u")
    choice = parse_fields(extract_block(select.text, "choice"))
    assert choice["algorithm"] == "held_karp"

    audit = stub.complete("[stage:audit]", "u")
    assert parse_fields(extract_block(audit.text, "verdict"))["verdict"] == "pass"

    direct = stub.complete("[stage:direct]", "u")
    answer = parse_fields(extract_block(direct.text, "answer"))
    assert answer["order"] == "Depot, Mill, Quay, Yard"
    assert answer["cost"] == "14"


def test_stub_direct_answers_other_kinds():
    base = tsp_hidden()
    base["optimal"] = {"kind": "coloring", "colors": {"A": 0, "B": 1}, "objective": "2"}
    text = OracleStubBackend(base).complete("[stage:direct]", "u").text
    body = extract_block(text, "answer")
    assert "color A: 0" in body and "colors: 2" in body

    base["optimal"] = {"kind": "boolean", "answer": False, "objective": "0"}
    text = OracleStubBackend(base).complete("[stage:direct]", "u").text
    assert "answer: no" in extract_block(text, "answer")

    base["optimal"] = None
    text = OracleStubBackend(base).complete("[stage:direct]", "u").text
    assert "answer: unknown" in extract_block(text, "answer")


def test_stub_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        OracleStubBackend({"problem_type": "tsp"})
    stub = OracleStubBackend(tsp_hidden())
    with pytest.raises(BackendError):
        stub.complete("no marker here", "u")
    with pytest.raises(BackendError):
        stub.complete("[stage:mystery]", "u")


def test_make_backend_dispatch(tmp_path):
    stub = make_backend(BackendConfig(kind="stub"), hidden=tsp_hidden())
    assert isinstance(stub, OracleStubBackend)
    with pytest.raises(ConfigError):
        make_backend(BackendConfig(kind="stub"))
    fixtures = tmp_path / "f.jsonl"
    fixtures.write_text("")
    assert isinstance(make_backend(BackendConfig(kind="replay", fixtures=str(fixtures))), ReplayBackend)
    recording = make_backend(
        BackendConfig(kind="record", fixtures=str(fixtures), inner=BackendConfig(kind="stub")),
        hidden=tsp_hidden(),
    )
    assert isinstance(recording, RecordingBackend)
