"""Prose rendering for generated problems.

Every structural fact (the node roster, each edge, the question) is
emitted by exactly one fixed sentence template per scenario, one fact to
a line.  That discipline is what makes a regex reference extractor
possible.  This module holds only the templates and the rendering;
:mod:`.extract` derives every reader pattern from these same templates,
so the two cannot drift apart.

Noise is additive only.  Distractor sentences carry numbers on purpose
(years, fees, head counts) but never match an edge template, so a
structure-aware reader loses nothing while a sloppy one gets tempted.

:data:`RESERVED_WORDS` is read from the templates themselves: every word
any of them can emit, so a generated node name that avoids it can never
be confused with the prose around it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, fields

from ..graph import Graph, format_weight
from ..problems import (
    CYCLE_DETECTION,
    DELIVERY,
    GRAPH_COLORING,
    NETWORK,
    NOISE_LEVELS,
    PATROL,
    SCHEDULING,
    SHORTEST_PATH,
    TSP,
    VERTEX_COVER,
)


@dataclass(frozen=True)
class ScenarioStyle:
    """Vocabulary and sentence templates for one cover story."""

    scenario: str
    node_noun: str
    node_noun_plural: str
    link_noun: str
    link_noun_plural: str
    unit: str
    agent: str
    monitor_plural: str
    slot_noun: str
    slot_noun_plural: str
    roster_template: str
    edge_weighted: str
    edge_unweighted: str
    framings: tuple[str, ...]
    descriptions: tuple[str, ...]
    # (template, low, high): the number is drawn from [low, high]
    distractors: tuple[tuple[str, int, int], ...]
    fillers: tuple[str, ...]

    @property
    def unit_singular(self) -> str:
        return self.unit[:-1] if self.unit.endswith("s") else self.unit


_DELIVERY = ScenarioStyle(
    scenario=DELIVERY,
    node_noun="stop",
    node_noun_plural="stops",
    link_noun="road",
    link_noun_plural="roads",
    unit="minutes",
    agent="courier",
    monitor_plural="checkpoints",
    slot_noun="dispatch wave",
    slot_noun_plural="dispatch waves",
    roster_template="The route sheet lists the following stops: {names}.",
    edge_weighted="Driving from {u} to {v} takes {w} {unit}.",
    edge_unweighted="There is a direct road between {u} and {v}.",
    framings=(
        "A regional courier service is planning tomorrow's deliveries across town.",
        "The dispatch office is reviewing the road layout before the morning shift.",
        "A logistics planner is sketching delivery runs for a fleet of vans.",
    ),
    descriptions=(
        "{name} sits beside a busy market square.",
        "{name} is known for its narrow loading bay.",
        "The warehouse at {name} recently repainted its doors.",
        "Drivers tend to stop for coffee near {name}.",
    ),
    distractors=(
        ("The depot at {name} was opened in {num}.", 1971, 2019),
        ("Parking at {name} costs {num} dollars per day.", 4, 95),
        ("{name} handled {num} parcels last month.", 120, 980),
        ("The office at {name} employs {num} people.", 3, 48),
    ),
    fillers=(
        "Company policy requires every driver to log a lunch break, though the timing is left to each crew.",
        "A memo from last spring proposed new uniforms, but the idea never went anywhere.",
        "The quarterly newsletter praised the maintenance team for keeping the vans in good shape.",
    ),
)

_NETWORK = ScenarioStyle(
    scenario=NETWORK,
    node_noun="server",
    node_noun_plural="servers",
    link_noun="link",
    link_noun_plural="links",
    unit="milliseconds",
    agent="technician",
    monitor_plural="probes",
    slot_noun="channel",
    slot_noun_plural="channels",
    roster_template="The rack diagram lists the following servers: {names}.",
    edge_weighted="The link between {u} and {v} has latency {w} {unit}.",
    edge_unweighted="A direct cable connects {u} and {v}.",
    framings=(
        "An operations team is auditing the internal network of a small data center.",
        "The infrastructure group is mapping out connectivity between machines.",
        "A site reliability engineer is documenting the server room wiring.",
    ),
    descriptions=(
        "{name} hosts the staging environment.",
        "{name} was migrated to new hardware last quarter.",
        "The fans on {name} run louder than the rest.",
        "{name} is mounted at the top of its rack.",
    ),
    distractors=(
        ("{name} was racked in {num}.", 2005, 2023),
        ("{name} has {num} gigabytes of memory.", 8, 512),
        ("The warranty on {name} runs {num} months.", 12, 60),
        ("{name} averages {num} requests per second.", 40, 900),
    ),
    fillers=(
        "The change calendar is frozen during the holiday season, so planning happens well in advance.",
        "An old whiteboard in the corner still shows a topology that was decommissioned years ago.",
        "Badge access to the server room was recently extended to the on-call rotation.",
    ),
)

_SCHEDULING = ScenarioStyle(
    scenario=SCHEDULING,
    node_noun="session",
    node_noun_plural="sessions",
    link_noun="conflict",
    link_noun_plural="conflicts",
    unit="minutes",
    agent="coordinator",
    monitor_plural="proctors",
    slot_noun="time slot",
    slot_noun_plural="time slots",
    roster_template="The timetable lists the following sessions: {names}.",
    edge_weighted="Switching between {u} and {v} takes {w} {unit}.",
    edge_unweighted="Sessions {u} and {v} share attendees and conflict.",
    framings=(
        "A conference organizer is arranging sessions into the fewest possible rooms and slots.",
        "The registrar is building an exam timetable for the coming week.",
        "A training coordinator is laying out workshop sessions for a busy campus.",
    ),
    descriptions=(
        "{name} drew a large crowd last year.",
        "{name} requires a projector and a microphone.",
        "The speaker for {name} asked for a morning placement.",
        "{name} runs as a hands-on workshop.",
    ),
    distractors=(
        ("{name} was first offered in {num}.", 1995, 2022),
        ("{name} has {num} registered attendees.", 15, 240),
        ("The room fee for {name} is {num} dollars.", 20, 180),
        ("{name} is capped at {num} seats.", 12, 300),
    ),
    fillers=(
        "Catering orders close two days before the event, according to the venue contract.",
        "Last year's feedback forms asked for longer coffee breaks between sessions.",
        "The printed program goes to press once the schedule is final.",
    ),
)

_PATROL = ScenarioStyle(
    scenario=PATROL,
    node_noun="waypoint",
    node_noun_plural="waypoints",
    link_noun="trail",
    link_noun_plural="trails",
    unit="kilometers",
    agent="ranger",
    monitor_plural="cameras",
    slot_noun="shift",
    slot_noun_plural="shifts",
    roster_template="The park map lists the following waypoints: {names}.",
    edge_weighted="The trail from {u} to {v} runs {w} {unit}.",
    edge_unweighted="A footpath joins {u} and {v}.",
    framings=(
        "A park service is revising the patrol plan for a nature reserve.",
        "Rangers are charting the trail network ahead of the hiking season.",
        "The visitor office is updating its map of marked paths.",
    ),
    descriptions=(
        "{name} overlooks a small lake.",
        "{name} has a shelter and a water tap.",
        "The viewpoint at {name} is popular at sunrise.",
        "{name} marks the edge of the old forest.",
    ),
    distractors=(
        ("The cabin at {name} was built in {num}.", 1902, 1998),
        ("{name} sits at {num} meters of elevation.", 120, 1900),
        ("About {num} hikers pass {name} on a summer day.", 30, 400),
        ("The picnic area at {name} has {num} tables.", 2, 24),
    ),
    fillers=(
        "Seasonal closures are announced on the notice board at the main entrance.",
        "The annual bird survey starts next month and draws volunteers from three counties.",
        "Firewood collection requires a permit that can be bought at the visitor office.",
    ),
)

SCENARIO_STYLES: dict[str, ScenarioStyle] = {
    style.scenario: style
    for style in (_DELIVERY, _NETWORK, _SCHEDULING, _PATROL)
}

# question wording per problem family; scenario nouns fill the slots
_QUESTIONS = {
    TSP: (
        "A single {agent} must start at one {node_noun}, visit every other "
        "{node_noun} exactly once, and return to the starting point. What is "
        "the smallest possible total travel in {unit} for such a round trip?"
    ),
    GRAPH_COLORING: (
        "Assign each {node_noun} to a {slot_noun} so that no two "
        "{node_noun_plural} mentioned together above share one. What is the "
        "smallest number of {slot_noun_plural} needed?"
    ),
    VERTEX_COVER: (
        "Choose {node_noun_plural} to host {monitor_plural} so that every "
        "{link_noun} described above touches at least one chosen {node_noun}. "
        "What is the smallest number of {node_noun_plural} that suffices?"
    ),
    SHORTEST_PATH: (
        "What is the cheapest route from {src} to {dst} along the "
        "{link_noun_plural} described above, and what is its total in {unit}?"
    ),
    CYCLE_DETECTION: (
        "Following the {link_noun_plural} described above, is there a closed "
        "loop that returns to its starting {node_noun} without reusing a "
        "{link_noun}? Answer yes or no."
    ),
}


def _strings(value: object) -> list[str]:
    """The strings in a template field, nested tuples included."""
    if isinstance(value, str):
        return [value]
    if isinstance(value, tuple):
        return [text for item in value for text in _strings(item)]
    return []


def _emitted_texts() -> list[str]:
    # every style field but the ``scenario`` id, which no sentence emits
    texts = list(_QUESTIONS.values())
    for style in SCENARIO_STYLES.values():
        texts.append(style.unit_singular)
        for field in fields(ScenarioStyle):
            if field.name != "scenario":
                texts += _strings(getattr(style, field.name))
    return texts


# every word the templates can emit, lowercased, slots left out
RESERVED_WORDS: frozenset[str] = frozenset(
    word
    for text in _emitted_texts()
    for word in re.findall(r"[a-z]+", re.sub(r"\{[a-z_]+\}", " ", text).lower())
)

def question_sentence(
    problem_type: str,
    style: ScenarioStyle,
    source: str | None = None,
    target: str | None = None,
) -> str:
    if problem_type == SHORTEST_PATH and (source is None or target is None):
        raise ValueError("shortest_path question needs source and target")
    return _QUESTIONS[problem_type].format(**vars(style), src=source, dst=target)


def _edge_sentences(graph: Graph, style: ScenarioStyle) -> list[str]:
    lines = []
    for u, v, weight in graph.edges:
        u_name = graph.node_names[u]
        v_name = graph.node_names[v]
        if graph.weighted:
            unit = style.unit_singular if weight == 1 else style.unit
            lines.append(style.edge_weighted.format(
                u=u_name, v=v_name, w=format_weight(weight), unit=unit))
        else:
            lines.append(style.edge_unweighted.format(u=u_name, v=v_name))
    return lines


def render_problem_text(
    graph: Graph,
    problem_type: str,
    scenario: str,
    noise_level: str,
    rng: random.Random,
    source: str | None = None,
    target: str | None = None,
) -> str:
    """Render `graph` as a prose problem statement."""
    if noise_level not in NOISE_LEVELS:
        raise ValueError(f"unknown noise level {noise_level!r}")
    style = SCENARIO_STYLES[scenario]
    names = list(graph.node_names)

    framing = rng.choice(style.framings)
    roster = style.roster_template.format(names=", ".join(rng.sample(names, len(names))))

    description_lines: list[str] = []
    distractor_lines: list[str] = []
    filler_paragraphs: list[str] = []
    if noise_level != "none":
        if noise_level == "heavy":
            described = list(names)
            flagged = list(names)
        else:
            k = max(1, len(names) // 3)
            described = rng.sample(names, k)
            flagged = rng.sample(names, k)
        for name in described:
            description_lines.append(rng.choice(style.descriptions).format(name=name))
        for name in flagged:
            template, low, high = rng.choice(style.distractors)
            distractor_lines.append(template.format(name=name, num=rng.randint(low, high)))
        if noise_level == "heavy":
            filler_paragraphs = rng.sample(style.fillers, 2)

    fact_lines = _edge_sentences(graph, style)
    rng.shuffle(fact_lines)
    # distractors are interleaved among the facts, not appended after them
    for line in distractor_lines:
        fact_lines.insert(rng.randrange(len(fact_lines) + 1), line)

    question = question_sentence(problem_type, style, source, target)

    blocks = [framing, roster]
    if description_lines:
        blocks.append("\n".join(description_lines))
    blocks.append("\n".join(fact_lines))
    blocks.extend(filler_paragraphs)
    blocks.append(question)
    return "\n\n".join(blocks)
