"""Single-model baseline: one backend call answers the whole problem.

No extraction, no route table, no native solving; the backend reads the
prose and commits to an answer block.  ``cot`` mode prepends a
step-by-step directive to the same template.  A reply that never parses,
or a backend that keeps failing, is a scored failure of that instance,
not an exception, because baseline failure rates are themselves a
measured quantity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..solvers import Solution
from .backends import ChatBackend
from .blocks import read_answer
from .pipeline import CallRecord, PipelineError, _ask
from .prompts import cot_directive

MODES = ("direct", "cot")


@dataclass(frozen=True)
class DirectOutcome:
    solution: Solution | None
    failure: str | None
    calls: tuple[CallRecord, ...]


def run_direct(backend: ChatBackend, problem_text: str, mode: str = "direct") -> DirectOutcome:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {', '.join(MODES)}, got {mode!r}")
    algorithm_id = "direct" if mode == "direct" else "direct_cot"
    calls: list[CallRecord] = []
    directive = cot_directive() + "\n\n" if mode == "cot" else ""
    try:
        solution = _ask(
            backend,
            "direct",
            {"directive": directive, "problem": problem_text},
            calls,
            lambda body: read_answer(body, algorithm_id),
        )
    except PipelineError as exc:
        return DirectOutcome(solution=None, failure=str(exc), calls=tuple(calls))
    return DirectOutcome(solution=solution, failure=None, calls=tuple(calls))
