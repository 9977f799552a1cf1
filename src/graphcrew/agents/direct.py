"""Single-model baseline: one backend call answers the whole problem.

No extraction, no route table, no native solving; the backend reads the
prose and commits to an answer block.  ``cot`` mode prepends a
step-by-step directive to the same template.  A reply that never parses,
or a backend that keeps failing, is a scored failure of that instance,
not an exception, because baseline failure rates are themselves a
measured quantity.
"""

from __future__ import annotations

from .backends import ChatBackend
from .blocks import read_answer
from .pipeline import CallRecord, Outcome, PipelineError, _ask
from .prompts import cot_directive

MODES = ("direct", "cot")


def run_direct(backend: ChatBackend, problem_text: str, mode: str = "direct") -> Outcome:
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
        return Outcome(tuple(calls), failure=str(exc), stage=exc.stage)
    return Outcome(tuple(calls), solution=solution)
