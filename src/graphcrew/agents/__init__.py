"""Staged chat pipeline, its backends, and the single-call baseline."""

from .backends import (
    BackendConfig,
    BackendError,
    ChatBackend,
    Completion,
    ConfigError,
    LiveChatBackend,
    OracleStubBackend,
    RecordingBackend,
    ReplayBackend,
    load_backend_config,
    make_backend,
    whitespace_token_count,
)
from .blocks import extract_block, parse_fields
from .direct import run_direct
from .pipeline import (
    CallRecord,
    Outcome,
    PipelineError,
    run_pipeline,
)

__all__ = [
    "BackendConfig",
    "BackendError",
    "CallRecord",
    "ChatBackend",
    "Completion",
    "ConfigError",
    "LiveChatBackend",
    "OracleStubBackend",
    "Outcome",
    "PipelineError",
    "RecordingBackend",
    "ReplayBackend",
    "extract_block",
    "load_backend_config",
    "make_backend",
    "parse_fields",
    "run_direct",
    "run_pipeline",
    "whitespace_token_count",
]
