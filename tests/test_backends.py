import hashlib
import json
import random
import threading
import time
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from graphcrew.agents import (
    BackendError,
    Completion,
    ConfigError,
    LiveChatBackend,
    OracleStubBackend,
    RecordingBackend,
    ReplayBackend,
    extract_block,
    load_backend_config,
    make_backend,
    parse_fields,
    whitespace_token_count,
)
from graphcrew.agents import backends
from graphcrew.agents.backends import BackendConfig
from graphcrew.dataset import generate
from graphcrew.agents.prompts import render_stage
from graphcrew.dataset import render_problem_text
from graphcrew.formats import serialize_graph
from graphcrew.graph import build_graph
from graphcrew.problems import DEFAULT_SCENARIO
from util import closed_port_url, run_python


def problem_text(graph, problem_type, source=None, target=None):
    """The statement generation writes for ``graph``, noise included."""
    return render_problem_text(graph, problem_type, DEFAULT_SCENARIO[problem_type], "standard",
                               random.Random(0), source, target)


def tsp_graph():
    return build_graph(
        ["Depot", "Mill", "Quay", "Yard"],
        True,
        [
            ("Depot", "Mill", 3), ("Depot", "Quay", 9), ("Depot", "Yard", 4),
            ("Mill", "Quay", 5), ("Mill", "Yard", 8), ("Quay", "Yard", 2),
        ],
    )


TSP_TEXT = problem_text(tsp_graph(), "tsp")


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
        "timeout_seconds: 30\n"
        "prices:\n"
        "  input_per_million: '0.15'\n"
        "  output_per_million: '0.60'\n"
    )
    config = load_backend_config(path)
    assert config.kind == "live"
    assert config.model == "test-model"
    assert config.timeout_seconds == 30.0
    assert config.prices.input_per_million == Fraction(3, 20)
    assert config.prices.currency == "USD"


def test_price_rates_read_exactly(tmp_path):
    path = tmp_path / "stub.yaml"
    path.write_text(
        "kind: stub\nprices:\n  input_per_million: '0.15'\n  output_per_million: 0.6\n"
    )
    prices = load_backend_config(path).prices
    assert prices.input_per_million == Fraction(3, 20)
    assert prices.output_per_million == Fraction(3, 5)
    path.write_text("kind: stub\n")
    prices = load_backend_config(path).prices
    assert (prices.input_per_million, prices.output_per_million) == (0, 0)


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
    bad.write_text("kind: stub\ntemperature: 0.7\n")
    with pytest.raises(ConfigError, match="unknown key.*temperature"):
        load_backend_config(bad)
    bad.write_text("kind: stub\nprices:\n  input_per_milion: '1'\n")
    with pytest.raises(ConfigError, match="prices: unknown key.*input_per_milion"):
        load_backend_config(bad)
    for endpoint in ("api.example.com/v1", "ftp://api.example.com/v1", "https:///v1"):
        bad.write_text(f"kind: live\nendpoint: {endpoint}\nmodel: m\napi_key_env: K\n")
        with pytest.raises(ConfigError, match="http:// or https:// URL"):
            load_backend_config(bad)
    for price in ("-5", "'-5'", "abc", "true", ".nan", ".inf", "null", "[1]", "'1/0'"):
        bad.write_text(f"kind: stub\nprices:\n  output_per_million: {price}\n")
        with pytest.raises(ConfigError,
                           match="prices: 'output_per_million' must be a non-negative exact number"):
            load_backend_config(bad)
    for timeout in ("0", "-1", ".nan", ".inf", "'30'", "true"):
        bad.write_text(f"kind: stub\ntimeout_seconds: {timeout}\n")
        with pytest.raises(ConfigError, match="'timeout_seconds' must be a finite number above 0"):
            load_backend_config(bad)


# per string field, a config that sets it, written around the value
STRING_FIELDS = {
    "endpoint": "kind: live\nmodel: m\napi_key_env: K\nendpoint: {}\n",
    "model": "kind: live\nendpoint: https://x\napi_key_env: K\nmodel: {}\n",
    "api_key_env": "kind: live\nendpoint: https://x\nmodel: m\napi_key_env: {}\n",
    "fixtures": "kind: replay\nfixtures: {}\n",
    "prices.currency": "kind: stub\nprices:\n  currency: {}\n",
}


@pytest.mark.parametrize("value, shown", [("", "None"), ("[a, b]", "['a', 'b']"),
                                          ("{a: b}", "{'a': 'b'}")],
                         ids=["null", "list", "mapping"])
@pytest.mark.parametrize("key", STRING_FIELDS)
def test_config_string_field_refuses_a_null_list_or_mapping(tmp_path, key, value, shown):
    bad = tmp_path / "bad.yaml"
    bad.write_text(STRING_FIELDS[key].format(value))
    where, _, name = f"{bad}.{key}".rpartition(".")
    with pytest.raises(ConfigError) as err:
        load_backend_config(bad)
    assert str(err.value) == f"{where}: {name!r} must be a string, got {shown}"


def test_config_string_field_reads_a_scalar_as_its_text(tmp_path):
    path = tmp_path / "live.yaml"
    path.write_text(STRING_FIELDS["model"].format("2024"))
    assert load_backend_config(path).model == "2024"


def live_config(endpoint="https://api.example.com/v1", timeout_seconds=60.0):
    return BackendConfig(
        kind="live",
        endpoint=endpoint,
        model="test-model",
        api_key_env="EXAMPLE_KEY",
        timeout_seconds=timeout_seconds,
    )


def test_live_backend_requires_env_key(monkeypatch):
    monkeypatch.delenv("EXAMPLE_KEY", raising=False)
    with pytest.raises(ConfigError) as err:
        LiveChatBackend(live_config())
    assert "EXAMPLE_KEY" in str(err.value)


def reply(status=200, body=None, delay=0.0, cut=False):
    """One scripted reply: a JSON document or raw bytes, sent after ``delay``
    seconds; ``cut`` declares the whole body but closes after half of it."""
    return status, body if isinstance(body, bytes) else json.dumps(body).encode(), delay, cut


class ScriptedHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append({"path": self.path, "headers": self.headers, "body": body})
        status, data, delay, cut = self.server.replies.pop(0)
        time.sleep(delay)
        self.close_connection = True
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data[: len(data) // 2] if cut else data)
        except ConnectionError:  # a client that timed out has already hung up
            pass


class ScriptedEndpoint(ThreadingHTTPServer):
    """Chat endpoint on 127.0.0.1 that answers each POST with the next scripted reply."""

    daemon_threads = False  # server_close waits for every handler

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ScriptedHandler)
        self.replies = []
        self.seen = []
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1"


@pytest.fixture()
def endpoint():
    server = ScriptedEndpoint()
    serving = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    serving.start()
    yield server
    server.shutdown()
    server.server_close()
    serving.join(timeout=10)
    assert not serving.is_alive()


def test_live_backend_happy_path(monkeypatch, endpoint):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test")
    endpoint.replies.append(reply(body={
        "choices": [{"message": {"content": "reply text"}}],
        "usage": {"prompt_tokens": 321, "completion_tokens": 45},
    }))
    backend = LiveChatBackend(live_config(endpoint.url))
    completion = backend.complete("sys", "user")
    assert completion == Completion("reply text", 321, 45)
    [seen] = endpoint.seen
    assert seen["path"] == "/v1/chat/completions"
    assert seen["headers"]["Authorization"] == "Bearer sk-test"
    assert seen["headers"]["Content-Type"] == "application/json"
    payload = json.loads(seen["body"])
    assert list(payload) == ["model", "messages", "temperature"]
    assert payload["model"] == "test-model"
    assert payload["temperature"] == 0.0
    assert payload["messages"][0] == {"role": "system", "content": "sys"}
    assert payload["messages"][1] == {"role": "user", "content": "user"}


def test_live_backend_error_paths(monkeypatch, endpoint):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test")
    backend = LiveChatBackend(live_config(endpoint.url))

    endpoint.replies.append(reply(500, {"error": "boom"}))
    with pytest.raises(BackendError, match=r"chat/completions returned 500: .*boom"):
        backend.complete("sys", "user")

    dead = LiveChatBackend(live_config(closed_port_url()))
    with pytest.raises(BackendError, match="request to .* failed"):
        dead.complete("sys", "user")

    endpoint.replies.append(reply(200, {"weird": 1}))
    with pytest.raises(BackendError, match="unexpected response shape"):
        backend.complete("sys", "user")


@pytest.mark.parametrize("scripted, message", [
    (reply(429, {"error": "rate limited"}), "returned 429: .*rate limited"),
    (reply(200, b"<html>not json</html>"), "unexpected response shape"),
    (reply(200, {"choices": [{"message": {"content": None}}],
                 "usage": {"prompt_tokens": 1, "completion_tokens": 1}}),
     "unexpected response shape.*content is None"),
    (reply(200, {"choices": [{"message": {"content": "a"}}], "usage": {"prompt_tokens": "many"}}),
     "unexpected response shape"),
    (reply(200, {"choices": [{"message": {"content": "a"}}], "usage": [1]}),
     "unexpected response shape"),
    (reply(200, {"choices": [{"message": {"content": "a"}}], "usage": {"prompt_tokens": -500}}),
     "unexpected response shape .*: usage prompt_tokens must be a non-negative integer, got -500"),
    (reply(200, {"choices": [{"message": {"content": "a"}}],
                 "usage": {"completion_tokens": 2.7}}),
     "response shape .*: usage completion_tokens must be a non-negative integer, got 2.7"),
    (reply(200, {"choices": [{"message": {"content": "a"}}], "usage": {"prompt_tokens": True}}),
     "unexpected response shape .*: usage prompt_tokens must be a non-negative integer, got True"),
    (reply(200, {"choices": []}, delay=0.6), "request to .* failed: .*timed out"),
    (reply(200, {"choices": [{"message": {"content": "cut short"}}]}, cut=True),
     "request to .* failed: IncompleteRead"),
], ids=["rate-limited", "not-json", "null-content", "non-numeric-usage", "usage-not-a-mapping",
        "negative-usage", "fractional-usage", "boolean-usage", "slower-than-timeout",
        "dropped-mid-body"])
def test_live_backend_bad_replies_are_backend_errors(monkeypatch, endpoint, scripted, message):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test")
    endpoint.replies.append(scripted)
    backend = LiveChatBackend(live_config(endpoint.url, timeout_seconds=0.2))
    with pytest.raises(BackendError, match=message):
        backend.complete("sys", "user")


def test_live_backend_usage_fallback(monkeypatch, endpoint):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test")
    endpoint.replies.append(reply(body={"choices": [{"message": {"content": "a b c"}}]}))
    backend = LiveChatBackend(live_config(endpoint.url))
    completion = backend.complete("one two", "three")
    assert (completion.input_tokens, completion.output_tokens) == (3, 3)


def test_live_backend_keeps_a_reported_zero(monkeypatch, endpoint):
    monkeypatch.setenv("EXAMPLE_KEY", "sk-test")
    endpoint.replies.append(reply(body={
        "choices": [{"message": {"content": "a b c"}}],
        "usage": {"prompt_tokens": 0, "completion_tokens": 0},
    }))
    backend = LiveChatBackend(live_config(endpoint.url))
    assert backend.complete("one two", "three") == Completion("a b c", 0, 0)

    endpoint.replies.append(reply(body={
        "choices": [{"message": {"content": "a b c"}}],
        "usage": {"prompt_tokens": None, "completion_tokens": 0},
    }))
    assert backend.complete("one two", "three") == Completion("a b c", 3, 0)


def test_live_call_needs_no_third_party_http_client(endpoint):
    endpoint.replies.append(reply(body={"choices": [{"message": {"content": "over stdlib"}}]}))
    script = (
        "import sys\n"
        "sys.modules['requests'] = sys.modules['urllib3'] = None\n"
        "import graphcrew.cli\n"
        "from graphcrew.agents import LiveChatBackend\n"
        "from graphcrew.agents.backends import BackendConfig\n"
        f"config = BackendConfig(kind='live', endpoint={endpoint.url!r}, model='m',\n"
        "                       api_key_env='EXAMPLE_KEY')\n"
        "print(LiveChatBackend(config).complete('sys', 'user').text)\n"
    )
    done = run_python("-c", script, env={"EXAMPLE_KEY": "sk-test"})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "over stdlib\n"
    assert len(endpoint.seen) == 1


class ScriptedInner:
    def __init__(self, replies):
        self.replies = list(replies)

    def complete(self, system_prompt, user_prompt):
        text = self.replies.pop(0)
        return Completion(text, 11, whitespace_token_count(text))


def test_record_then_replay_is_byte_identical(tmp_path):
    fixtures = tmp_path / "fixtures.jsonl"
    inner = ScriptedInner(["first reply", "second reply"])
    recorder = RecordingBackend(inner, fixtures)
    first = recorder.complete("[stage:extract_graph]\nsys", "user one")
    second = recorder.complete("sys", "user two")

    replay = ReplayBackend(fixtures)
    assert replay.complete("[stage:extract_graph]\nsys", "user one") == first
    assert replay.complete("sys", "user two") == second

    entries = [json.loads(line) for line in fixtures.read_text().splitlines()]
    assert [e["stage"] for e in entries] == ["extract_graph", ""]
    assert entries[0]["text"] == "first reply"
    # every line records the one sampling setting, and its key hashes it with
    # both prompts, so fixtures recorded by earlier versions still replay
    assert [e["params"] for e in entries] == [{"temperature": 0.0}] * 2
    blob = json.dumps({"system": "sys", "user": "user two", "params": {"temperature": 0.0}},
                      sort_keys=True)
    assert entries[1]["key"] == hashlib.sha256(blob.encode()).hexdigest()


def test_record_then_replay_under_an_ascii_locale(tmp_path):
    # the fixture is UTF-8 whatever the locale: the script is ASCII, its reply is not
    script = (
        "import sys\n"
        "from graphcrew.agents import Completion, RecordingBackend, ReplayBackend\n"
        "class Arrow:\n"
        "    def complete(self, system_prompt, user_prompt):\n"
        "        return Completion('Depot \\u2192 Mill', 1, 3)\n"
        "ask = ('[stage:direct]\\nsys', 'from Depot \\u2192 Mill?')\n"
        "recorded = RecordingBackend(Arrow(), sys.argv[1]).complete(*ask)\n"
        "replayed = ReplayBackend(sys.argv[1]).complete(*ask)\n"
        "print(ascii(replayed.text), replayed == recorded)\n"
    )
    fixtures = tmp_path / "fixtures.jsonl"
    done = run_python("-c", script, str(fixtures),
                      env={"PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0"})
    assert done.returncode == 0, done.stderr
    assert done.stdout == "'Depot \\u2192 Mill' True\n"
    assert json.loads(fixtures.read_text(encoding="utf-8"))["text"] == "Depot \u2192 Mill"


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

    # a reply or a count of the wrong type is refused when the file is read,
    # not when a wave first meets it
    good = {"key": "k", "text": "t", "input_tokens": 1, "output_tokens": 2}
    for change, problem in [
        ({"text": 5}, "text must be a string, got 5"),
        ({"input_tokens": "1"}, "token counts must be non-negative integers, got ('1', 2)"),
        ({"output_tokens": -2}, "token counts must be non-negative integers, got (1, -2)"),
        ({"output_tokens": 1.5}, "token counts must be non-negative integers, got (1, 1.5)"),
        ({"input_tokens": True}, "token counts must be non-negative integers, got (True, 2)"),
    ]:
        broken.write_text(json.dumps(good) + "\n" + json.dumps({**good, **change}) + "\n")
        with pytest.raises(ConfigError) as err:
            ReplayBackend(broken)
        assert str(err.value) == f"{broken}: line 2: bad fixture line: {problem}"


def ask_stub(stub, stage, **slots):
    return stub.complete(*render_stage(stage, slots))


def test_stub_answers_every_stage_in_contract_shape():
    stub = OracleStubBackend()
    extract = ask_stub(stub, "extract_graph", problem=TSP_TEXT)
    assert extract.output_tokens == whitespace_token_count(extract.text)
    fields = parse_fields(extract_block(extract.text, "problem"))
    assert fields == {"problem_type": "tsp", "source": "none", "target": "none"}
    graph_text = extract_block(extract.text, "graph")
    assert graph_text == serialize_graph(tsp_graph()).strip()
    assert extract.text.endswith(f"```result:graph\n{graph_text}\n```")

    direct = ask_stub(stub, "direct", directive="", problem=TSP_TEXT)
    answer = parse_fields(extract_block(direct.text, "answer"))
    assert answer["order"] == "Depot, Mill, Quay, Yard"
    assert answer["cost"] == "14"


def test_stub_reads_its_prompt_not_a_fixed_reply():
    # a statement's route decides the extract reply, and retry feedback
    # after the template does not change what the slot holds
    stub = OracleStubBackend()
    route = build_graph(["Ash", "Birch", "Cedar"], True,
                        [("Ash", "Birch", 2), ("Birch", "Cedar", 3)])
    system, user = render_stage(
        "extract_graph", {"problem": problem_text(route, "shortest_path", "Cedar", "Ash")})
    retried = f"{user}\n\nYour previous reply was rejected: source Ash. Reply again."
    for prompt in (user, retried):
        extract = stub.complete(system, prompt)
        fields = parse_fields(extract_block(extract.text, "problem"))
        assert (fields["problem_type"], fields["source"], fields["target"]) == (
            "shortest_path", "Cedar", "Ash")


def test_stub_direct_answers_other_kinds():
    stub = OracleStubBackend()
    pair = build_graph(["A", "B"], False, [("A", "B")])
    text = ask_stub(stub, "direct", directive="",
                    problem=problem_text(pair, "graph_coloring")).text
    body = extract_block(text, "answer")
    assert "color A: 0" in body and "colors: 2" in body

    chain = build_graph(["A", "B", "C"], False, [("A", "B"), ("B", "C")])
    text = ask_stub(stub, "direct", directive="",
                    problem=problem_text(chain, "cycle_detection")).text
    assert "answer: no" in extract_block(text, "answer")


def test_stub_direct_runs_one_route(monkeypatch):
    routes = []
    run = backends.run_algorithm

    def counted(record, *args, **kwargs):
        routes.append(record.algorithm_id)
        return run(record, *args, **kwargs)

    monkeypatch.setattr(backends, "run_algorithm", counted)
    monkeypatch.setattr(generate, "run_algorithm", counted)
    ask_stub(OracleStubBackend(), "direct", directive="", problem=TSP_TEXT)
    assert routes == ["held_karp"]


def test_stub_rejects_bad_inputs():
    stub = OracleStubBackend()
    with pytest.raises(BackendError):
        stub.complete("no marker here", "u")
    with pytest.raises(BackendError):
        stub.complete("[stage:mystery]", "u")
    # a prompt the stub cannot read fails like a backend, not with a guess
    for stage, slots, problem in [
        ("extract_graph", {"problem": "Words with no structure."}, "no roster sentence found"),
        ("direct", {"directive": "", "problem": TSP_TEXT.rsplit("\n\n", 1)[0]},
         "no question sentence found"),
    ]:
        message = f"stub cannot answer the {stage} prompt: {problem}"
        with pytest.raises(BackendError, match=message):
            ask_stub(stub, stage, **slots)
    # a prompt that holds no statement reads as no problem
    system, _ = render_stage("extract_graph", {"problem": "p"})
    with pytest.raises(BackendError, match="no roster sentence found"):
        stub.complete(system, "a user prompt not rendered from the template")


def test_make_backend_dispatch(tmp_path):
    assert isinstance(make_backend(BackendConfig(kind="stub")), OracleStubBackend)
    fixtures = tmp_path / "f.jsonl"
    fixtures.write_text("")
    assert isinstance(make_backend(BackendConfig(kind="replay", fixtures=str(fixtures))), ReplayBackend)
    recording = make_backend(
        BackendConfig(kind="record", fixtures=str(fixtures), inner=BackendConfig(kind="stub")),
    )
    assert isinstance(recording, RecordingBackend)
