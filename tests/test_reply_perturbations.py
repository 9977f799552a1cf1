"""One table of reply perturbations, run through both arms.

Each case changes the stub's canonical reply in a way that keeps its
meaning.  The arm must read the changed reply to the same answer in one
call, or ask once more with feedback naming the problem and then take
the canonical reply; no case may fail the instance or be misread.
"""

import re

import pytest

from graphcrew.agents import OracleStubBackend, run_direct, run_pipeline
from graphcrew.agents.prompts import render_stage
from graphcrew.dataset import build_instance

from test_pipeline import StageScripted

# one generated statement per family; index 1 gives shortest_path a
# source and target that are not adjacent
STATEMENTS = {family: build_instance(family, 8, index).text for family, index in (
    ("tsp", 0), ("graph_coloring", 0), ("vertex_cover", 0), ("shortest_path", 1),
    ("cycle_detection", 0))}


def sub(pattern, repl):
    """Replace ``pattern`` on every line of the reply."""
    return lambda reply: re.sub(pattern, repl, reply, flags=re.M)


def capitalize_keys(reply):
    return re.sub(r"^(\w)(\w*)(?=[ :])", lambda m: m[1].upper() + m[2], reply, flags=re.M)


def draft_first(reply):
    """A draft with another first value, ahead of the reply."""
    draft = re.sub(r"(?<=: )\w+", "draft", reply, count=1)
    return f"A first try:\n{draft}\nOn reflection:\n{reply}"


# id: (arm, family, perturbation, the feedback a retry carries, or None
# when the reply reads in one call)
CASES = {
    # case and spacing of the family and of keys
    "pipeline-family-upper": ("pipeline", "tsp", sub("^problem_type: tsp", "problem_type: TSP"),
                              None),
    "pipeline-family-spaced": ("pipeline", "graph_coloring",
                               sub("^problem_type: graph_coloring",
                                   "problem_type: Graph Coloring"), None),
    "pipeline-key-case": ("pipeline", "shortest_path", capitalize_keys, None),
    "pipeline-key-spacing": ("pipeline", "shortest_path", sub(r"^(\w+): ", r"  \1 :   "), None),
    "pipeline-header-spacing": ("pipeline", "tsp", sub(r"^# (\w+): ", r"#\1 :  "), None),
    "pipeline-header-key-case": ("pipeline", "tsp", sub("^# nodes:", "# Nodes:"), None),
    "pipeline-header-value-case": ("pipeline", "tsp", sub("^# weighted: true", "# weighted: True"),
                                   None),
    "direct-key-case-tour": ("direct", "tsp", capitalize_keys, None),
    "direct-key-case-coloring": ("direct", "graph_coloring", capitalize_keys, None),
    "direct-key-case-boolean": ("direct", "cycle_detection", sub("^answer: no", "Answer: No"),
                                None),
    "direct-key-spacing": ("direct", "vertex_cover", sub(r"^(\w+): ", r"  \1 :   "), None),
    "direct-key-spacing-coloring": ("direct", "graph_coloring",
                                    sub(r"^color (\w+): ", r"color  \1 :  "), None),
    # trailing punctuation
    "pipeline-family-period": ("pipeline", "tsp", sub("^problem_type: tsp$", "problem_type: tsp."),
                               "problem type 'tsp.' is not one of tsp, graph_coloring, "
                               "vertex_cover, shortest_path, cycle_detection"),
    "pipeline-source-period": ("pipeline", "shortest_path", sub(r"^(source: \w+)$", r"\1."),
                               "the problem block names source '"),
    "direct-cost-period": ("direct", "tsp", sub(r"^(cost: \d+)$", r"\1."), None),
    "direct-order-period": ("direct", "tsp", sub(r"^(order: .*)$", r"\1."),
                            "the answer names '"),
    "direct-nodes-period": ("direct", "vertex_cover", sub(r"^(nodes: .*)$", r"\1."),
                            "the answer names '"),
    "direct-answer-period": ("direct", "cycle_detection", sub("^answer: no$", "answer: no."),
                             "boolean answer must be yes or no, got 'no.'"),
    # markdown emphasis on keys
    "pipeline-bold-keys": ("pipeline", "shortest_path", sub(r"^(\w+):", r"**\1:**"), None),
    "direct-bold-keys": ("direct", "tsp", sub(r"^(\w+):", r"**\1:**"), None),
    "direct-bold-keys-coloring": ("direct", "graph_coloring",
                                  sub(r"^(color \w+|colors):", r"**\1:**"), None),
    # None or N/A for none
    "pipeline-none-capitalized": ("pipeline", "tsp", sub(r"^(source|target): none$", r"\1: None"),
                                  None),
    "pipeline-none-n/a": ("pipeline", "tsp", sub(r"^(source|target): none$", r"\1: N/A"), None),
    "direct-none": ("direct", "cycle_detection", sub("^answer: no$", "answer: None"),
                    "boolean answer must be yes or no, got 'none'"),
    # arrows, spaces or "and" between names
    "direct-arrows": ("direct", "tsp", sub(r", (?=\w)", " -> "), "the answer names '"),
    "direct-spaces": ("direct", "shortest_path", sub(r", (?=\w)", " "), "the answer names '"),
    "direct-and": ("direct", "vertex_cover", sub(r", (?=\w)", " and "), "the answer names '"),
    # a tour closed on its first stop
    "direct-closed-tour": ("direct", "tsp", sub(r"^order: (\w+)(.*)$", r"order: \1\2, \1"), None),
    # CRLF and tabs
    "pipeline-crlf": ("pipeline", "shortest_path", lambda reply: reply.replace("\n", "\r\n"),
                      None),
    "pipeline-tabs": ("pipeline", "shortest_path", sub(r"(?<=\w) (?=\w)", "\t"), None),
    "direct-crlf": ("direct", "graph_coloring", lambda reply: reply.replace("\n", "\r\n"), None),
    "direct-tabs": ("direct", "tsp", sub(r"(?<=[:,]) ", "\t"), None),
    # a draft block before the final one
    "pipeline-draft": ("pipeline", "vertex_cover", draft_first, None),
    "direct-draft": ("direct", "tsp", draft_first, None),
    "direct-draft-boolean": ("direct", "cycle_detection", draft_first, None),
}


@pytest.mark.parametrize("arm, family, perturb, feedback", CASES.values(), ids=CASES)
def test_perturbed_reply_reads_or_is_asked_once_more(arm, family, perturb, feedback):
    text = STATEMENTS[family]
    if arm == "pipeline":
        stage, slots, run = "extract_graph", {"problem": text}, run_pipeline
    else:
        stage, slots, run = "direct", {"directive": "", "problem": text}, run_direct
    canonical = OracleStubBackend().complete(*render_stage(stage, slots)).text
    reply = perturb(canonical)
    assert reply != canonical

    expected = run(OracleStubBackend(), text)
    backend = StageScripted({stage: [reply]})
    outcome = run(backend, text)
    assert outcome.failure is None
    assert (outcome.solution, outcome.extracted) == (expected.solution, expected.extracted)
    prompts = [user for _, user in backend.seen]
    if feedback is None:
        assert len(prompts) == 1
    else:
        assert len(prompts) == 2
        assert f"Your previous reply was rejected: {feedback}" in prompts[1]
