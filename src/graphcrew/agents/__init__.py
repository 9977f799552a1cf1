"""Staged chat pipeline, its backends, and the single-call baseline."""

from .backends import (
    BackendConfig,
    BackendError,
    ChatBackend,
    Completion,
    ConfigError,
    LiveChatBackend,
    OracleStubBackend,
    PriceConfig,
    RecordingBackend,
    ReplayBackend,
    Usage,
    load_backend_config,
    make_backend,
    whitespace_token_count,
)
from .blocks import extract_block, parse_fields
from .direct import DirectOutcome, run_direct
from .pipeline import (
    CallRecord,
    PipelineError,
    ProblemSpec,
    SolveOutcome,
    run_pipeline,
)

__all__ = [
    "BackendConfig",
    "BackendError",
    "CallRecord",
    "ChatBackend",
    "Completion",
    "ConfigError",
    "DirectOutcome",
    "LiveChatBackend",
    "OracleStubBackend",
    "PriceConfig",
    "PipelineError",
    "ProblemSpec",
    "RecordingBackend",
    "ReplayBackend",
    "SolveOutcome",
    "Usage",
    "extract_block",
    "load_backend_config",
    "make_backend",
    "parse_fields",
    "run_direct",
    "run_pipeline",
    "whitespace_token_count",
]
