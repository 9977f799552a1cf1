"""Regex reference extractor for generated problem text.

This is the deterministic counterpart to the prose renderer: it knows
the fixed sentence shapes each scenario uses and pulls the family, the
roster, the edges, and any route endpoints straight back out.  It proves
in tests that rendered text preserves the hidden graph, and it is how
the offline ``stub`` backend reads the problem statement in its prompts,
so no backend ever sees an instance's hidden data.
"""

from __future__ import annotations

import re

from ..graph import build_graph
from ..problems import ExtractedProblem
from .text import _QUESTIONS, ROUTE_QUESTION_PATTERN, SCENARIO_STYLES


class ExtractionError(ValueError):
    """The text does not contain a recoverable problem."""


# every scenario's fact sentences, each found where it ends a line
_ROSTERS = [style.roster_pattern() for style in SCENARIO_STYLES.values()]
_WEIGHTED = [style.edge_weighted_pattern() for style in SCENARIO_STYLES.values()]
_UNWEIGHTED = [style.edge_unweighted_pattern() for style in SCENARIO_STYLES.values()]

# each family's question template, any slot filled by any words
_QUESTION_PATTERNS = {
    family: re.compile(".+?".join(map(re.escape, re.split(r"\{[a-z_]+\}", template))))
    for family, template in _QUESTIONS.items()
}


def reference_extract(text: str) -> ExtractedProblem:
    """Recover the problem hidden in rendered problem text.

    Each scenario's fact patterns scan the whole text, its lines stripped,
    once; their sentence shapes are disjoint, so a fact sentence matches
    one pattern at most.  Unrecognized lines are ignored, which is the
    whole point: distractors and filler never match a fact pattern.
    """
    text = "\n".join(map(str.strip, text.splitlines()))
    rosters = [match for pattern in _ROSTERS for match in pattern.finditer(text)]
    if not rosters:
        raise ExtractionError("no roster sentence found")
    roster = max(rosters, key=re.Match.start).group(1)

    # (u, v, weight text) triples; build_graph reads each weight
    weighted = [triple for pattern in _WEIGHTED for triple in pattern.findall(text)]
    unweighted = [pair for pattern in _UNWEIGHTED for pair in pattern.findall(text)]
    if weighted and unweighted:
        raise ExtractionError("mixed weighted and unweighted fact sentences")

    family = next((family for family, pattern in _QUESTION_PATTERNS.items()
                   if pattern.search(text)), None)
    if family is None:
        raise ExtractionError("no question sentence found")
    route = ROUTE_QUESTION_PATTERN.search(text)

    graph = build_graph([part.strip() for part in roster.split(",")],
                        weighted=bool(weighted), edges=weighted or unweighted)
    return ExtractedProblem(family, graph, *(route.groups() if route else (None, None)))
