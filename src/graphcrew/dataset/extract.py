"""Regex reference extractor for generated problem text.

This is the deterministic counterpart to the prose renderer, and the one
place a template sentence is read back: every reader pattern (the
roster, the edges, each family's question) is derived here from the
renderer's own templates in :mod:`.text`.  It pulls the family, the
roster, the edges and any route endpoints straight back out.  It proves
in tests that rendered text preserves the hidden graph, and it is how
the offline ``stub`` backend reads its whole prompt, so no backend ever
sees an instance's hidden data.
"""

from __future__ import annotations

import re

from ..graph import build_graph
from ..problems import ExtractedProblem
from .text import _QUESTIONS, SCENARIO_STYLES, ScenarioStyle

_NAME = r"([A-Za-z]+)"
_NUMBER = r"(\d+(?:/\d+)?)"


class ExtractionError(ValueError):
    """The text does not contain a recoverable problem."""


def _template_regex(template: str, groups: dict[str, str]) -> str:
    """``template`` as a regex: a slot named in ``groups`` becomes that
    group, and any other slot matches any words."""
    parts = re.split(r"\{([a-z_]+)\}", template)
    parts[::2] = map(re.escape, parts[::2])
    parts[1::2] = [groups.get(slot, ".+?") for slot in parts[1::2]]
    return "".join(parts)


# A fact pattern finds its sentence wherever the sentence ends a line.  It
# opens with the template's literal first words, not ``^``, so the regex
# engine can jump straight to them in a whole text.
def _fact_pattern(template: str, style: ScenarioStyle) -> re.Pattern[str]:
    unit = f"(?:{re.escape(style.unit)}|{re.escape(style.unit_singular)})"
    groups = {"u": _NAME, "v": _NAME, "w": _NUMBER, "unit": unit, "names": "(.+)"}
    return re.compile(_template_regex(template, groups) + "$", re.M)


# every scenario's fact sentences
_ROSTERS = [_fact_pattern(style.roster_template, style) for style in SCENARIO_STYLES.values()]
_WEIGHTED = [_fact_pattern(style.edge_weighted, style) for style in SCENARIO_STYLES.values()]
_UNWEIGHTED = [_fact_pattern(style.edge_unweighted, style) for style in SCENARIO_STYLES.values()]

# each family's question, its route endpoints (if any) as its groups
_QUESTION_PATTERNS = {
    family: re.compile(_template_regex(template, {"src": _NAME, "dst": _NAME}))
    for family, template in _QUESTIONS.items()
}


def reference_extract(text: str) -> ExtractedProblem:
    """Recover the problem hidden in rendered problem text, or in a prompt
    that quotes it.

    Each scenario's fact patterns scan the whole text, its lines stripped,
    once; their sentence shapes are disjoint, so a fact sentence matches
    one pattern at most.  Unrecognized lines are ignored, which is the
    whole point: distractors, filler and a prompt's own instructions
    never match a fact pattern.  The first roster sentence and the first
    question sentence are the statement's, since a prompt appends any
    retry feedback, which may quote either, after the statement.
    """
    text = "\n".join(map(str.strip, text.splitlines()))
    rosters = [match for pattern in _ROSTERS for match in pattern.finditer(text)]
    if not rosters:
        raise ExtractionError("no roster sentence found")
    roster = min(rosters, key=re.Match.start).group(1)

    # (u, v, weight text) triples; build_graph reads each weight
    weighted = [triple for pattern in _WEIGHTED for triple in pattern.findall(text)]
    unweighted = [pair for pattern in _UNWEIGHTED for pair in pattern.findall(text)]
    if weighted and unweighted:
        raise ExtractionError("mixed weighted and unweighted fact sentences")

    questions = [(match, family) for family, pattern in _QUESTION_PATTERNS.items()
                 if (match := pattern.search(text))]
    if not questions:
        raise ExtractionError("no question sentence found")
    question, family = min(questions, key=lambda found: found[0].start())

    graph = build_graph([part.strip() for part in roster.split(",")],
                        weighted=bool(weighted), edges=weighted or unweighted)
    return ExtractedProblem(family, graph, *(question.groups() or (None, None)))
