"""Single-model baseline: one backend call answers the whole problem.

No extraction, no route table, no native solving; the backend reads the
prose and commits to an answer block.  ``cot`` mode prepends a
step-by-step directive to the same template.  An answer that names a
node the statement never mentions (``order: A -> B`` read as one stop,
say) is asked again, like any reply that does not read.  A tour closed
on its first stop (``order: A, B, C, A``) is read as the tour it
closes.  A reply that never parses, or a backend that keeps failing, is
a scored failure of that instance, not an exception, because baseline
failure rates are themselves a measured quantity.
"""

from __future__ import annotations

import re
from dataclasses import replace

from ..problems import BOOLEAN, TOUR
from ..solvers import Solution
from .backends import ChatBackend
from .blocks import RejectReply, read_answer
from .pipeline import CallRecord, Outcome, PipelineError, _ask
from .prompts import cot_directive

MODES = ("direct", "cot")


def _read_mentioned(body: str, algorithm_id: str, problem_text: str) -> Solution:
    """The answer ``body`` states, refused when it names a node that
    ``problem_text`` does not mention: as a word, or as a run of text
    that starts and ends on a word character with no word character on
    either side (``North-Gate``, not the sentence-final ``Gate.``).  A
    final tour stop that repeats the first is dropped."""
    solution = read_answer(body, algorithm_id)
    order = solution.payload
    if solution.kind == TOUR and len(order) > 1 and order[-1] == order[0]:
        solution = replace(solution, payload=order[:-1])
    if solution.kind != BOOLEAN:
        words = set(re.findall(r"\w+", problem_text))
        for name in solution.payload:  # a coloring's payload iterates its nodes
            if name not in words and not re.search(rf"\b{re.escape(name)}\b", problem_text):
                raise RejectReply(f"the answer names {name!r}, "
                                  "which the statement does not mention")
    return solution


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
            lambda body: _read_mentioned(body, algorithm_id, problem_text),
        )
    except PipelineError as exc:
        return Outcome(tuple(calls), failure=str(exc), stage=exc.stage)
    return Outcome(tuple(calls), solution=solution)
