"""Chat backends: live HTTP, record/replay fixtures, and an offline oracle.

Every backend answers one shape of question: a system prompt plus a user
prompt, returning reply text with token usage.  The live backend talks
to any chat-completions endpoint; the recording pair captures live
replies into a JSONL fixture and replays them byte-for-byte later; the
oracle stub answers from a generated instance's hidden data, which makes
full-pipeline runs possible with no network and no model.

API keys are only ever read from the environment variable named in the
backend config, never from the config file or the command line.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol, runtime_checkable

import requests
import yaml

from ..formats import parse_graph
from ..graph import graph_stats
from ..knowledge import KnowledgeBase, default_knowledge_base, select_algorithm
from .prompts import stage_of_prompt


class BackendError(RuntimeError):
    pass


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Usage:
    input_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class Completion:
    text: str
    usage: Usage


@runtime_checkable
class ChatBackend(Protocol):
    backend_id: str

    def complete(
        self, system_prompt: str, user_prompt: str, params: dict[str, Any] | None = None
    ) -> Completion:
        ...


def whitespace_token_count(text: str) -> int:
    """Token stand-in for offline backends: whitespace-separated words."""
    return len(text.split())


@dataclass(frozen=True)
class PriceConfig:
    input_per_million: str = "0"
    output_per_million: str = "0"
    currency: str = "USD"


@dataclass(frozen=True)
class BackendConfig:
    kind: str
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""
    temperature: float = 0.0
    timeout_seconds: float = 60.0
    fixtures: str = ""
    inner: "BackendConfig | None" = None
    prices: PriceConfig = field(default_factory=PriceConfig)

KINDS = ("live", "stub", "replay", "record")


def _config_from_mapping(doc: Any, where: str) -> BackendConfig:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: backend config must be a mapping")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ConfigError(f"{where}: 'kind' must be one of {', '.join(KINDS)}, got {kind!r}")
    prices_raw = doc.get("prices") or {}
    if not isinstance(prices_raw, dict):
        raise ConfigError(f"{where}: 'prices' must be a mapping")
    prices = PriceConfig(
        input_per_million=str(prices_raw.get("input_per_million", "0")),
        output_per_million=str(prices_raw.get("output_per_million", "0")),
        currency=str(prices_raw.get("currency", "USD")),
    )
    inner = None
    if doc.get("inner") is not None:
        inner = _config_from_mapping(doc["inner"], f"{where}.inner")
    config = BackendConfig(
        kind=kind,
        endpoint=str(doc.get("endpoint", "")),
        model=str(doc.get("model", "")),
        api_key_env=str(doc.get("api_key_env", "")),
        temperature=float(doc.get("temperature", 0.0)),
        timeout_seconds=float(doc.get("timeout_seconds", 60.0)),
        fixtures=str(doc.get("fixtures", "")),
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
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    return _config_from_mapping(doc, str(path))


def _fixture_key(system_prompt: str, user_prompt: str, params: dict[str, Any] | None) -> str:
    blob = json.dumps(
        {"system": system_prompt, "user": user_prompt, "params": params or {}},
        sort_keys=True,
        ensure_ascii=False,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class LiveChatBackend:
    """OpenAI-style chat-completions client over HTTP."""

    io_bound = True  # calls wait on the network: the pipeline overlaps them

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
        self.backend_id = f"live:{config.model}"

    def complete(self, system_prompt, user_prompt, params=None):
        config = self._config
        payload = {
            "model": config.model,
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": user_prompt},
            ],
            "temperature": (params or {}).get("temperature", config.temperature),
        }
        url = config.endpoint.rstrip("/") + "/chat/completions"
        try:
            response = requests.post(
                url,
                json=payload,
                headers={"Authorization": f"Bearer {self._key}"},
                timeout=config.timeout_seconds,
            )
        except requests.RequestException as exc:
            raise BackendError(f"request to {url} failed: {exc}") from exc
        if response.status_code != 200:
            raise BackendError(
                f"{url} returned {response.status_code}: {response.text[:200]}"
            )
        try:
            doc = response.json()
            text = doc["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"unexpected response shape from {url}: {exc}") from exc
        usage = doc.get("usage") or {}
        return Completion(
            text=text,
            usage=Usage(
                input_tokens=int(
                    usage.get("prompt_tokens")
                    or whitespace_token_count(system_prompt + " " + user_prompt)
                ),
                output_tokens=int(
                    usage.get("completion_tokens") or whitespace_token_count(text)
                ),
            ),
        )


class ReplayBackend:
    """Serves previously recorded replies; a prompt it has not seen fails."""

    backend_id = "replay"

    def __init__(self, fixtures_path: str | Path):
        path = Path(fixtures_path)
        if not path.is_file():
            raise ConfigError(f"fixtures file {path} does not exist")
        self._replies: dict[str, tuple[str, int, int]] = {}
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                self._replies[entry["key"]] = (
                    entry["text"],
                    int(entry["input_tokens"]),
                    int(entry["output_tokens"]),
                )
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad fixture line: {exc}") from exc

    def complete(self, system_prompt, user_prompt, params=None):
        key = _fixture_key(system_prompt, user_prompt, params)
        if key not in self._replies:
            raise BackendError(
                "no recorded reply for this prompt; the fixtures were made "
                "for different inputs or settings"
            )
        text, tokens_in, tokens_out = self._replies[key]
        return Completion(text=text, usage=Usage(tokens_in, tokens_out))


class RecordingBackend:
    """Wraps another backend and appends every exchange to a JSONL fixture,
    in completion order; replay finds a reply by its key, not its line."""

    def __init__(self, inner: ChatBackend, fixtures_path: str | Path):
        self._inner = inner
        self._path = Path(fixtures_path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.backend_id = f"record({inner.backend_id})"
        self.io_bound = getattr(inner, "io_bound", False)

    def complete(self, system_prompt, user_prompt, params=None):
        completion = self._inner.complete(system_prompt, user_prompt, params)
        entry = {
            "key": _fixture_key(system_prompt, user_prompt, params),
            "stage": stage_of_prompt(system_prompt) or "",
            "system": system_prompt,
            "user": user_prompt,
            "params": params or {},
            "text": completion.text,
            "input_tokens": completion.usage.input_tokens,
            "output_tokens": completion.usage.output_tokens,
        }
        with self._lock:
            with self._path.open("a") as fh:
                fh.write(json.dumps(entry, ensure_ascii=False) + "\n")
        return completion


class OracleStubBackend:
    """Offline backend that answers each stage from an instance's hidden data.

    ``hidden`` is the withheld part of a generated instance: problem type,
    the true graph as edge-list text, endpoints, narrative, and optionally
    the known best answer.  Replies follow the same fenced-block contract
    a live model is asked for, so the pipeline cannot tell the difference.
    """

    backend_id = "stub"

    def __init__(self, hidden: dict[str, Any], kb: KnowledgeBase | None = None):
        for required in ("problem_type", "graph_text"):
            if required not in hidden:
                raise ConfigError(f"stub backend needs {required!r} in the hidden data")
        self._hidden = hidden
        self._kb = kb or default_knowledge_base()

    def _reply(self, stage: str) -> str:
        hidden = self._hidden
        if stage == "narrative":
            body = str(hidden.get("narrative", "")).strip() or "Background context."
            return body
        if stage == "classify":
            return (
                f"problem_type: {hidden['problem_type']}\n"
                f"objective: {hidden.get('objective', 'answer the stated question')}\n"
                f"source: {hidden.get('source') or 'none'}\n"
                f"target: {hidden.get('target') or 'none'}"
            )
        if stage in ("extract_graph", "normalize"):
            return str(hidden["graph_text"]).strip()
        if stage == "select":
            graph = parse_graph(hidden["graph_text"])
            choice = select_algorithm(
                self._kb,
                hidden["problem_type"],
                graph_stats(graph),
                weighted=graph.weighted,
                directed=graph.directed,
            )
            return f"algorithm: {choice.record.algorithm_id}\nreason: {choice.rationale}"
        if stage == "audit":
            return "verdict: pass\nnote: consistent with the graph"
        if stage == "direct":
            return self._direct_answer()
        raise BackendError(f"stub cannot answer stage {stage!r}")

    def _direct_answer(self) -> str:
        best = self._hidden.get("optimal")
        if not best:
            return "answer: unknown"
        kind = best.get("kind")
        if kind == "tour":
            return f"order: {', '.join(best['order'])}\ncost: {best['objective']}"
        if kind == "coloring":
            lines = [f"color {name}: {c}" for name, c in sorted(best["colors"].items())]
            lines.append(f"colors: {best['objective']}")
            return "\n".join(lines)
        if kind == "node_set":
            return f"nodes: {', '.join(best['nodes'])}\nsize: {best['objective']}"
        if kind == "path":
            return f"path: {', '.join(best['path'])}\ncost: {best['objective']}"
        if kind == "boolean":
            return f"answer: {'yes' if best['answer'] else 'no'}"
        return "answer: unknown"

    def complete(self, system_prompt, user_prompt, params=None):
        stage = stage_of_prompt(system_prompt)
        if stage is None:
            raise BackendError("stub got a prompt without a stage marker")
        tag_by_stage = {
            "narrative": "narrative",
            "classify": "problem",
            "extract_graph": "graph",
            "normalize": "graph",
            "select": "choice",
            "audit": "verdict",
            "direct": "answer",
        }
        if stage not in tag_by_stage:
            raise BackendError(f"stub cannot answer stage {stage!r}")
        body = self._reply(stage)
        text = f"```result:{tag_by_stage[stage]}\n{body}\n```"
        usage = Usage(
            input_tokens=whitespace_token_count(system_prompt + " " + user_prompt),
            output_tokens=whitespace_token_count(text),
        )
        return Completion(text=text, usage=usage)


def make_backend(
    config: BackendConfig,
    *,
    hidden: dict[str, Any] | None = None,
    kb: KnowledgeBase | None = None,
) -> ChatBackend:
    """Build a backend from config; stub kinds need the instance's hidden data."""
    if config.kind == "live":
        return LiveChatBackend(config)
    if config.kind == "replay":
        return ReplayBackend(config.fixtures)
    if config.kind == "record":
        return RecordingBackend(
            make_backend(config.inner, hidden=hidden, kb=kb), config.fixtures
        )
    if config.kind == "stub":
        if hidden is None:
            raise ConfigError("stub backend needs the instance's hidden data")
        return OracleStubBackend(hidden, kb)
    raise ConfigError(f"unknown backend kind {config.kind!r}")
