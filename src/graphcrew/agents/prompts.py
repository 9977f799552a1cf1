"""Prompt templates: one file per stage, system and user parts split by ---.

Each system part opens with a ``[stage:<name>]`` marker line.  The marker
is harmless context for a live model and lets the offline ``stub``
backend know which stage is talking to it; the stub then reads the
statement out of its whole user prompt, the way a model reads it, with
:func:`~graphcrew.dataset.extract.reference_extract`, whose patterns no
line of these templates matches.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources

# each stage, and the tags of the ```result:<tag>``` blocks its reply must carry, in order
TAGS: dict[str, tuple[str, ...]] = {
    "extract_graph": ("problem", "graph"),
    "direct": ("answer",),
}

_MARKER_RE = re.compile(r"\[stage:([a-z_]+)\]")
_SLOT_RE = re.compile(r"\{([a-z_]+)\}")


class TemplateError(ValueError):
    pass


def _read(name: str) -> str:
    return resources.files("graphcrew").joinpath(f"agents/templates/{name}.txt").read_text("utf-8")


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
    """Fill a stage's user template; unknown or leftover slots are errors.

    The template is filled in one pass over its own slots, so a slot
    value (a problem statement, say) is never searched for slots itself.
    """
    system, user = load_template(stage)
    wanted = _SLOT_RE.findall(user)
    for key in slots:
        if key not in wanted:
            raise TemplateError(f"template for {stage!r} has no slot {{{key}}}")

    def fill(match: re.Match) -> str:
        if match.group(1) not in slots:
            raise TemplateError(f"slot {match.group(0)} of {stage!r} was not filled")
        return slots[match.group(1)]

    return system, _SLOT_RE.sub(fill, user)


def cot_directive() -> str:
    return _read("cot_directive").strip()


def stage_of_prompt(system_prompt: str) -> str | None:
    """Recover the stage marker from a system prompt, if present."""
    match = _MARKER_RE.search(system_prompt)
    return match.group(1) if match else None
