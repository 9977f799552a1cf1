"""Chat backends: live HTTP, record/replay fixtures, and an offline oracle.

Every backend answers one shape of question: a system prompt plus a user
prompt, returning reply text with its token counts, sampled with the one
setting in :data:`SAMPLING`.  The live backend talks
to any chat-completions endpoint; the recording pair captures live
replies into a JSONL fixture and replays them byte-for-byte later; the
offline stub reads the problem statement in its prompts the way a model
is asked to, which makes full-pipeline runs possible with no network and
no model; no backend is ever given an instance's hidden data.

API keys are only ever read from the environment variable named in the
backend config, never from the config file or the command line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import urllib.parse
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Protocol

import yaml

from ..dataset import read_jsonl
from ..execute import run_algorithm
from ..formats import serialize_graph
from ..knowledge import select_algorithm
from ..prices import PriceConfig
from .blocks import answer_lines
from .prompts import TAGS, stage_of_prompt


class BackendError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


# the sampling settings of every call: the live payload sends them, and
# fixture keys and recorded lines hold them, so replay matches on them
SAMPLING: dict[str, Any] = {"temperature": 0.0}


@dataclass(frozen=True)
class Completion:
    text: str
    input_tokens: int
    output_tokens: int

    @property
    def usage(self) -> Completion:
        """The completion itself, for readers of ``usage.input_tokens``
        and ``usage.output_tokens`` (the perfbench tracer)."""
        return self


class ChatBackend(Protocol):
    def complete(self, system_prompt: str, user_prompt: str) -> Completion:
        ...


def whitespace_token_count(text: str) -> int:
    """Token stand-in for offline backends: whitespace-separated words."""
    return len(text.split())


@dataclass(frozen=True)
class BackendConfig:
    kind: str
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    timeout_seconds: float = 60.0
    fixtures: str = ""
    inner: "BackendConfig | None" = None
    prices: PriceConfig = field(default_factory=PriceConfig)

KINDS = ("live", "stub", "replay", "record")


def _refuse_unknown_keys(doc: dict, cls: type, where: str) -> None:
    unknown = sorted(str(key) for key in set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _rate(prices: dict, key: str, where: str) -> Fraction:
    """The rate under ``key`` as an exact fraction; a YAML float is read by
    its decimal text, so ``0.6`` is 3/5."""
    value = prices.get(key, 0)
    number = isinstance(value, (int, float, str)) and not isinstance(value, bool)
    try:
        rate = Fraction(str(value)) if number else None
    except (ValueError, ZeroDivisionError):
        rate = None
    if rate is None or rate < 0:
        raise ConfigError(f"{where}: {key!r} must be a non-negative exact number, got {value!r}")
    return rate


def _text(doc: dict, key: str, default: str, where: str) -> str:
    """The value under ``key`` as text; a YAML scalar is read as its text,
    and a null, a list or a mapping is refused."""
    value = doc.get(key, default)
    if value is None or isinstance(value, (list, dict)):
        raise ConfigError(f"{where}: {key!r} must be a string, got {value!r}")
    return str(value)


def _config_from_mapping(doc: Any, where: str) -> BackendConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: backend config must be a mapping")
    _refuse_unknown_keys(doc, BackendConfig, where)
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"{where}: 'kind' must be one of {', '.join(KINDS)}, got {kind!r}")
    prices_raw = doc.get("prices") or {}
    if not isinstance(prices_raw, dict):
        raise ConfigError(f"{where}: 'prices' must be a mapping")
    _refuse_unknown_keys(prices_raw, PriceConfig, f"{where}.prices")
    prices = PriceConfig(
        input_per_million=_rate(prices_raw, "input_per_million", f"{where}.prices"),
        output_per_million=_rate(prices_raw, "output_per_million", f"{where}.prices"),
        currency=_text(prices_raw, "currency", "USD", f"{where}.prices"),
    )
    timeout = doc.get("timeout_seconds", 60.0)
    number = isinstance(timeout, (int, float)) and not isinstance(timeout, bool)
    if not (number and 0 < timeout < math.inf):
        raise ConfigError(
            f"{where}: 'timeout_seconds' must be a finite number above 0, got {timeout!r}"
        )
    inner = None
    if doc.get("inner") is not None:
        inner = _config_from_mapping(doc["inner"], f"{where}.inner")
    config = BackendConfig(
        kind=kind,
        endpoint=_text(doc, "endpoint", "", where),
        model=_text(doc, "model", "", where),
        api_key_env=_text(doc, "api_key_env", "", where),
        timeout_seconds=float(timeout),
        fixtures=_text(doc, "fixtures", "", where),
        inner=inner,
        prices=prices,
    )
    if kind == "live":
        if not config.endpoint or not config.model:
            raise ConfigError(f"{where}: live backend needs 'endpoint' and 'model'")
        if not config.api_key_env:
            raise ConfigError(
                f"{where}: live backend needs 'api_key_env' naming the environment "
                "variable that holds the API key"
            )
        endpoint = urllib.parse.urlsplit(config.endpoint)
        if endpoint.scheme not in ("http", "https") or not endpoint.hostname:
            raise ConfigError(
                f"{where}: 'endpoint' must be an http:// or https:// URL, got {config.endpoint!r}"
            )
    if kind in ("replay", "record") and not config.fixtures:
        raise ConfigError(f"{where}: {kind} backend needs a 'fixtures' path")
    if kind == "record" and inner is None:
        raise ConfigError(f"{where}: record backend needs an 'inner' backend config")
    return config


def load_backend_config(path: str | Path) -> BackendConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"backend config {path} does not exist")
    try:
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    return _config_from_mapping(doc, str(path))


def _fixture_key(system_prompt: str, user_prompt: str) -> str:
    blob = json.dumps(
        {"system": system_prompt, "user": user_prompt, "params": SAMPLING},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _reported_tokens(usage: dict[str, Any], key: str, text: str) -> int:
    """The count an endpoint reported under ``key``, or the whitespace count
    of ``text`` when it reported none; any other value is refused."""
    count = usage.get(key)
    if count is None:
        return whitespace_token_count(text)
    if type(count) is not int or count < 0:
        raise ValueError(f"usage {key} must be a non-negative integer, got {count!r}")
    return count


class LiveChatBackend:
    """OpenAI-style chat-completions client over HTTP."""

    def __init__(self, config: BackendConfig):
        if config.kind != "live":
            raise ConfigError(f"expected a live config, got kind={config.kind!r}")
        key = os.environ.get(config.api_key_env, "")
        if not key:
            raise ConfigError(
                f"environment variable {config.api_key_env} is not set; "
                "export the API key there before running"
            )
        self._key = key
        self._config = config

    def complete(self, system_prompt, user_prompt):
        import http.client
        import urllib.error
        import urllib.request

        config = self._config
        payload = {
            "model": config.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
            **SAMPLING,
        }
        url = config.endpoint.rstrip("/") + "/chat/completions"
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Authorization": f"Bearer {self._key}", "Content-Type": "application/json"},
        )
        try:
            try:
                response = urllib.request.urlopen(request, timeout=config.timeout_seconds)
            except urllib.error.HTTPError as exc:
                response = exc  # a non-2xx reply, which is itself a readable response
            with response:
                status, body = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            raise BackendError(f"request to {url} failed: {exc}") from exc
        if status != 200:
            raise BackendError(f"{url} returned {status}: {body.decode(errors='replace')[:200]}")
        try:
            doc = json.loads(body)
            text = doc["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"message content is {text!r}, not text")
            usage = doc.get("usage") or {}
            prompt = system_prompt + " " + user_prompt
            input_tokens = _reported_tokens(usage, "prompt_tokens", prompt)
            output_tokens = _reported_tokens(usage, "completion_tokens", text)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            raise BackendError(f"unexpected response shape from {url}: {exc}") from exc
        return Completion(text, input_tokens, output_tokens)


class ReplayBackend:
    """Serves previously recorded replies; a prompt it has not seen fails."""

    def __init__(self, fixtures_path: str | Path):
        path = Path(fixtures_path)
        if not path.is_file():
            raise ConfigError(f"fixtures file {path} does not exist")
        self._replies: dict[str, tuple[str, int, int]] = {}
        try:
            entries = list(read_jsonl(path))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for lineno, entry in entries:
            try:
                text, counts = entry["text"], (entry["input_tokens"], entry["output_tokens"])
                if not isinstance(text, str):
                    raise TypeError(f"text must be a string, got {text!r}")
                if not all(type(n) is int and n >= 0 for n in counts):
                    raise ValueError(f"token counts must be non-negative integers, got {counts}")
                self._replies[entry["key"]] = (text, *counts)
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"{path}: line {lineno}: bad fixture line: {exc}") from exc

    def complete(self, system_prompt, user_prompt):
        key = _fixture_key(system_prompt, user_prompt)
        if key not in self._replies:
            raise BackendError(
                "no recorded reply for this prompt; the fixtures were made "
                "for different inputs or settings"
            )
        return Completion(*self._replies[key])


class RecordingBackend:
    """Wraps another backend and appends every exchange to a JSONL fixture,
    in completion order; replay finds a reply by its key, not its line."""

    def __init__(self, inner: ChatBackend, fixtures_path: str | Path):
        self._inner = inner
        self._path = Path(fixtures_path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()

    def complete(self, system_prompt, user_prompt):
        completion = self._inner.complete(system_prompt, user_prompt)
        entry = {
            "key": _fixture_key(system_prompt, user_prompt),
            "stage": stage_of_prompt(system_prompt) or "",
            "system": system_prompt,
            "user": user_prompt,
            "params": SAMPLING,
            "text": completion.text,
            "input_tokens": completion.input_tokens,
            "output_tokens": completion.output_tokens,
        }
        with self._lock:
            with self._path.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
        return completion


class OracleStubBackend:
    """Offline backend that answers each stage from its own prompt.

    It holds no instance data.  ``extract_graph`` and ``direct`` read
    their whole user prompt with
    :func:`~graphcrew.dataset.extract.reference_extract`, which recovers
    the family, graph and route of the generated statement it quotes
    exactly, past the template's own lines and any retry feedback;
    ``extract_graph`` answers both of its blocks from that one read, and
    ``direct`` answers with the proven optimum on the graph it read, by
    the route table's exact route.  Replies follow the same fenced-block
    contract a live model is asked for, so the pipeline cannot tell the
    difference.
    """

    def _reply(self, stage: str, user: str) -> tuple[str, ...]:
        """The reply's block bodies for ``stage``, one per tag in ``TAGS[stage]``."""
        from ..dataset.extract import reference_extract  # only the stub reads prompts

        problem = reference_extract(user)
        if stage == "extract_graph":
            spec = (f"problem_type: {problem.problem_type}\n"
                    f"source: {problem.source or 'none'}\n"
                    f"target: {problem.target or 'none'}")
            return spec, serialize_graph(problem.graph).strip()
        route = select_algorithm(problem.problem_type, problem.graph, exact=True)
        best = run_algorithm(route, problem.graph, source=problem.source, target=problem.target)
        return (answer_lines(best),)

    def complete(self, system_prompt, user_prompt):
        stage = stage_of_prompt(system_prompt)
        if stage is None:
            raise BackendError("stub got a prompt without a stage marker")
        if stage not in TAGS:
            raise BackendError(f"stub cannot answer stage {stage!r}")
        try:
            bodies = self._reply(stage, user_prompt)
        except ValueError as exc:
            raise BackendError(f"stub cannot answer the {stage} prompt: {exc}") from exc
        text = "\n".join(f"```result:{tag}\n{body}\n```"
                         for tag, body in zip(TAGS[stage], bodies, strict=True))
        return Completion(text, whitespace_token_count(system_prompt + " " + user_prompt),
                          whitespace_token_count(text))


def make_backend(config: BackendConfig) -> ChatBackend:
    """Build a backend from config."""
    if config.kind == "live":
        return LiveChatBackend(config)
    if config.kind == "replay":
        return ReplayBackend(config.fixtures)
    if config.kind == "record":
        return RecordingBackend(make_backend(config.inner), config.fixtures)
    if config.kind == "stub":
        return OracleStubBackend()
    raise ConfigError(f"unknown backend kind {config.kind!r}")
