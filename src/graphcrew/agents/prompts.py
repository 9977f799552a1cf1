"""Prompt templates: one file per stage, system and user parts split by ---.

Each system part opens with a ``[stage:<name>]`` marker line.  The marker
is harmless context for a live model and lets the offline oracle backend
know which stage is talking to it.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

# each stage, and the tag of the ```result:<tag>``` block its reply must end with
TAGS: dict[str, str] = {
    "classify": "problem",
    "extract_graph": "graph",
    "normalize": "graph",
    "select": "choice",
    "audit": "verdict",
    "direct": "answer",
}

_MARKER_RE = re.compile(r"\[stage:([a-z_]+)\]")


class TemplateError(ValueError):
    pass


def _read(name: str) -> str:
    return resources.files("graphcrew").joinpath(f"agents/templates/{name}.txt").read_text()


@lru_cache(maxsize=None)
def load_template(stage: str) -> tuple[str, str]:
    """(system, user) template pair for a stage."""
    if stage not in TAGS:
        raise TemplateError(f"unknown stage {stage!r} (known: {', '.join(TAGS)})")
    parts = _read(stage).split("\n---\n", 1)
    if len(parts) != 2:
        raise TemplateError(f"template for {stage!r} lacks the --- separator")
    return parts[0].strip(), parts[1].strip()


def render_stage(stage: str, slots: dict[str, str]) -> tuple[str, str]:
    """Fill a stage's user template; unknown or leftover slots are errors."""
    system, user = load_template(stage)
    for key, value in slots.items():
        token = "{" + key + "}"
        if token not in user:
            raise TemplateError(f"template for {stage!r} has no slot {token}")
        user = user.replace(token, value)
    leftover = re.search(r"\{[a-z_]+\}", user)
    if leftover:
        raise TemplateError(f"slot {leftover.group(0)} of {stage!r} was not filled")
    return system, user


def cot_directive() -> str:
    return _read("cot_directive").strip()


def stage_of_prompt(system_prompt: str) -> str | None:
    """Recover the stage marker from a system prompt, if present."""
    match = _MARKER_RE.search(system_prompt)
    return match.group(1) if match else None
