"""Fenced result blocks: the machine-readable tail of every agent reply.

A reply may ramble, but it must end with a fenced block tagged
``result:<tag>``; only the last block with the expected tag counts, so
models that think out loud in earlier fences stay parseable.
"""

from __future__ import annotations

import re

_BLOCK_RE = re.compile(r"```result:([a-z_]+)[ \t]*\n(.*?)```", re.DOTALL)


def extract_block(text: str, tag: str) -> str | None:
    """The body of the last ``result:<tag>`` block, or None."""
    body = None
    for match in _BLOCK_RE.finditer(text):
        if match.group(1) == tag:
            body = match.group(2)
    return body.strip() if body is not None else None


def parse_fields(body: str) -> dict[str, str]:
    """Read ``key: value`` lines; later keys win, junk lines are skipped."""
    fields: dict[str, str] = {}
    for line in body.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        key, _, value = line.partition(":")
        fields[key.strip().lower()] = value.strip()
    return fields
