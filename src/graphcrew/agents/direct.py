"""Single-model baseline: one backend call answers the whole problem.

No extraction, no catalogue, no native solving; the backend reads the
prose and commits to an answer block.  ``cot`` mode prepends a
step-by-step directive to the same template.  A reply that never parses,
or a backend that keeps failing, is a scored failure of that instance,
not an exception, because baseline failure rates are themselves a
measured quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph import GraphError, coerce_weight
from ..problems import BOOLEAN, COLORING, NODE_SET, PATH, TOUR
from ..solvers import Solution
from .backends import ChatBackend
from .blocks import parse_fields
from .pipeline import CallRecord, PipelineError, _ask, _RejectReply
from .prompts import cot_directive

MODES = ("direct", "cot")


@dataclass(frozen=True)
class DirectOutcome:
    solution: Solution | None
    failure: str | None
    calls: tuple[CallRecord, ...]


def _parse_name_list(value: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in value.split(",") if name.strip())


def parse_direct_answer(body: str, mode: str) -> Solution:
    """Turn baseline answer lines into a Solution; the keys present pick
    the answer kind.  Raises on anything malformed."""
    algorithm_id = "direct" if mode == "direct" else "direct_cot"
    fields = parse_fields(body)
    colors = {}
    for line in body.splitlines():
        line = line.strip()
        if line.lower().startswith("color ") and ":" in line:
            name, _, value = line[6:].partition(":")
            try:
                colors[name.strip()] = int(value.strip())
            except ValueError:
                raise _RejectReply(f"bad color line {line!r}")
    try:
        if "order" in fields:
            return Solution(
                TOUR,
                _parse_name_list(fields["order"]),
                coerce_weight(fields.get("cost", "")),
                algorithm_id,
                exact=False,
            )
        if colors or "colors" in fields:
            if not colors:
                raise _RejectReply("coloring answer has no color lines")
            return Solution(
                COLORING,
                {name: colors[name] for name in sorted(colors)},
                int(fields.get("colors", len(set(colors.values())))),
                algorithm_id,
                exact=False,
            )
        if "nodes" in fields:
            return Solution(
                NODE_SET,
                tuple(sorted(_parse_name_list(fields["nodes"]))),
                int(fields.get("size", -1)),
                algorithm_id,
                exact=False,
            )
        if "path" in fields:
            return Solution(
                PATH,
                _parse_name_list(fields["path"]),
                coerce_weight(fields.get("cost", "")),
                algorithm_id,
                exact=False,
            )
        if "answer" in fields:
            value = fields["answer"].lower()
            if value not in ("yes", "no", "true", "false"):
                raise _RejectReply(f"boolean answer must be yes or no, got {value!r}")
            flag = value in ("yes", "true")
            return Solution(BOOLEAN, flag, int(flag), algorithm_id, exact=False)
    except (GraphError, ValueError) as exc:
        raise _RejectReply(f"unreadable answer values ({exc})")
    raise _RejectReply("the answer block matches no known answer shape")


def run_direct(backend: ChatBackend, problem_text: str, mode: str = "direct") -> DirectOutcome:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    calls: list[CallRecord] = []
    directive = cot_directive() + "\n\n" if mode == "cot" else ""
    try:
        solution = _ask(
            backend,
            "direct",
            {"directive": directive, "problem": problem_text},
            calls,
            lambda body: parse_direct_answer(body, mode),
        )
    except PipelineError as exc:
        return DirectOutcome(solution=None, failure=str(exc), calls=tuple(calls))
    return DirectOutcome(solution=solution, failure=None, calls=tuple(calls))
