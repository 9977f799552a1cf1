"""Fenced result blocks: the machine-readable tail of every agent reply.

A reply may ramble, but it must carry a fenced block tagged
``result:<tag>`` for each tag its stage expects; only the last block
with each tag counts, so models that think out loud in earlier fences
stay parseable.

The ``direct`` stage's answer block is written by :func:`answer_lines`
and read by :func:`read_answer`, side by side here.  Every kind but a
boolean states its count or cost on a line of its own, and a block
without that line does not read.
"""

from __future__ import annotations

from typing import Any, Callable

from ..graph import coerce_weight, format_weight
from ..problems import BOOLEAN, COLORING, NODE_SET, PATH, TOUR
from ..solvers import Solution

_OPEN = "```result:"
_TAG_LETTERS = "abcdefghijklmnopqrstuvwxyz_"


class RejectReply(Exception):
    """A reply that does not read; it is asked again with this message as feedback."""


def extract_block(text: str, tag: str) -> str | None:
    """The body of the last ``result:<tag>`` block, or None.

    One forward scan: a block opens with ``result:``, a tag of ``[a-z_]``
    letters and nothing after it on its line but spaces, tabs or carriage
    returns (so a reply with ``\\r\\n`` line ends reads), and its body runs
    to the next three backticks, where the scan resumes.
    """
    body = None
    start = text.find(_OPEN)
    while start != -1:
        newline = text.find("\n", start)
        if newline == -1:
            break
        name = text[start + len(_OPEN):newline].rstrip(" \t\r")
        if not name or name.strip(_TAG_LETTERS):
            start = text.find(_OPEN, start + 1)
            continue
        close = text.find("```", newline + 1)
        if close == -1:
            break
        if name == tag:
            body = text[newline + 1:close]
        start = text.find(_OPEN, close + 3)
    return body.strip() if body is not None else None


def _split_field(line: str) -> tuple[str, str]:
    """A stripped ``key: value`` line's key and value, split at its first
    colon; markdown emphasis around the key (``**key:** value`` or
    ``**key**: value``) is read as the bare key."""
    key, _, value = line.partition(":")
    if key.startswith("*"):
        key, value = key.strip("*"), value.lstrip("*")
    return key.strip(), value.strip()


def parse_fields(body: str) -> dict[str, str]:
    """Read ``key: value`` lines; later keys win, junk lines are skipped."""
    fields: dict[str, str] = {}
    for line in body.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        key, value = _split_field(line)
        fields[key.lower()] = value
    return fields


# per answer kind with a count: the key of its answer line (``color`` starts
# one line per node), the key of its count or cost line, and that line's reader
_ANSWER_LINES: dict[str, tuple[str, str, Callable[[str], Any]]] = {
    TOUR: ("order", "cost", coerce_weight),
    COLORING: ("color", "colors", int),
    NODE_SET: ("nodes", "size", int),
    PATH: ("path", "cost", coerce_weight),
}


def answer_lines(solution: Solution) -> str:
    """The body of a ``direct`` answer block stating ``solution``."""
    if solution.kind == BOOLEAN:
        return f"answer: {'yes' if solution.payload else 'no'}"
    key, count_key, _ = _ANSWER_LINES[solution.kind]
    if solution.kind == COLORING:
        lines = [f"color {name}: {c}" for name, c in sorted(solution.payload.items())]
    else:
        lines = [f"{key}: {', '.join(solution.payload)}"]
    return "\n".join([*lines, f"{count_key}: {format_weight(solution.objective)}"])


def _names(value: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in value.split(",") if name.strip())


def read_answer(body: str, algorithm_id: str) -> Solution:
    """The solution a ``direct`` answer block states; the keys present
    pick the answer kind.  Raises :class:`RejectReply` on anything
    malformed, a missing count or cost line included."""
    fields = parse_fields(body)
    colors = {}
    for line in body.splitlines():
        line = line.strip()
        if ":" not in line:
            continue
        key, value = _split_field(line)
        if key.lower().startswith("color "):
            try:
                colors[key[6:].strip()] = int(value)
            except ValueError:
                raise RejectReply(f"bad color line {line!r}") from None
    for kind, (key, count_key, read_count) in _ANSWER_LINES.items():
        if kind == COLORING:
            if not (colors or count_key in fields):
                continue
            if not colors:
                raise RejectReply("coloring answer has no color lines")
            payload: Any = {name: colors[name] for name in sorted(colors)}
        elif key in fields:
            names = _names(fields[key])
            payload = tuple(sorted(names)) if kind == NODE_SET else names
        else:
            continue
        if count_key not in fields:
            raise RejectReply(f"the block is missing a {count_key} line")
        try:
            objective = read_count(fields[count_key])
        except ValueError as exc:
            raise RejectReply(f"unreadable answer values ({exc})") from None
        return Solution(kind, payload, objective, algorithm_id, exact=False)
    if "answer" not in fields:
        raise RejectReply("the answer block matches no known answer shape")
    value = fields["answer"].lower()
    if value not in ("yes", "no", "true", "false"):
        raise RejectReply(f"boolean answer must be yes or no, got {value!r}")
    flag = value in ("yes", "true")
    return Solution(BOOLEAN, flag, int(flag), algorithm_id, exact=False)
