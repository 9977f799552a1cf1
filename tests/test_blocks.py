import random
import re
from fractions import Fraction

import pytest

from graphcrew.agents import extract_block, parse_fields
from graphcrew.agents.blocks import answer_lines, read_answer
from graphcrew.solvers import Solution

from oracles import regex_extract_block


def test_extract_returns_last_matching_block():
    text = (
        "Thinking...\n"
        "```result:graph\nA B 1\n```\n"
        "Wait, actually:\n"
        "```result:graph\nA B 2\n```\n"
    )
    assert extract_block(text, "graph") == "A B 2"


def test_extract_ignores_other_tags_and_plain_fences():
    text = (
        "```python\nprint('hi')\n```\n"
        "```result:choice\nalgorithm: dsatur\n```\n"
    )
    assert extract_block(text, "graph") is None
    assert extract_block(text, "choice") == "algorithm: dsatur"


def test_extract_missing():
    assert extract_block("no blocks here", "graph") is None
    assert extract_block("```result:graph", "graph") is None


# reply fragments that stress the block grammar: unclosed fences, a
# ``result:`` tag inside a body, \r\n line ends, trailing spaces and tabs
# after a tag, tags outside ``[a-z_]``, and repeated tags
_FRAGMENTS = [
    "```result:graph\n", "```result:graph  \n", "```result:graph\t \n",
    "```result:graph\r\n", "```result:choice\n", "```result:Graph\n", "```result:\n",
    "```result:graph x\n", "```result: graph\n", "```result:graph```", "result:graph\n",
    "```", "````", "``", "```python\n", "A B 1\n", "A B 1\r\n", "verdict: pass  \n",
    "\n", "\r\n", " ", "prose ", "é",
]


@pytest.mark.parametrize("seed", range(4))
def test_extract_agrees_with_the_regex_reader(seed):
    rng = random.Random(seed)
    for _ in range(5000):
        text = "".join(rng.choice(_FRAGMENTS) for _ in range(rng.randint(0, 14)))
        for tag in ("graph", "choice", "Graph", ""):
            assert extract_block(text, tag) == regex_extract_block(text, tag), (text, tag)


def test_extract_scan_cases():
    # an unclosed fence ends the scan; the fence that closes one block
    # cannot open the next
    assert extract_block("```result:graph\nA B 1\n```\n```result:graph\nA B 2\n", "graph") == (
        "A B 1"
    )
    assert extract_block("```result:graph\nA B\n```result:choice\nx\n```", "choice") is None
    # a tag inside a body is body text, and the last block per tag wins
    text = "```result:graph\nresult:choice\n```\n```result:graph \t\nA B 2  \n```"
    assert extract_block(text, "graph") == "A B 2"
    assert extract_block(text, "choice") is None
    # a \r before the newline ends the tag line like a space: CRLF replies read
    assert extract_block("```result:graph\r\nA B 1\r\n```", "graph") == "A B 1"


def test_format_and_extract_round_trip():
    body = "# nodes: A B\nA B 3"
    assert extract_block(f"```result:graph\n{body}\n```", "graph") == body
    assert extract_block("preamble\n```result:verdict\nverdict: pass\n```", "verdict") == (
        "verdict: pass"
    )


def test_parse_fields():
    fields = parse_fields(
        "problem_type: tsp\n"
        "Objective:  shortest round trip \n"
        "not a field line\n"
        "\n"
        "source: none\n"
        "source: Depot\n"
    )
    assert fields == {
        "problem_type": "tsp",
        "objective": "shortest round trip",
        "source": "Depot",
    }


def test_parse_fields_empty():
    assert parse_fields("") == {}
    assert parse_fields("nothing") == {}


ANSWERS = {
    "tour": Solution("tour", ("A", "C", "B"), Fraction(7, 2), "direct", exact=False),
    "coloring": Solution("coloring", {"A": 0, "B": 1, "C": 0}, 2, "direct", exact=False),
    "node_set": Solution("node_set", ("A", "C"), 2, "direct", exact=False),
    "path": Solution("path", ("A", "B", "C"), 9, "direct", exact=False),
    "boolean": Solution("boolean", False, 0, "direct", exact=False),
}


@pytest.mark.parametrize("kind", ANSWERS)
def test_answer_lines_read_back(kind):
    assert read_answer(answer_lines(ANSWERS[kind]), "direct") == ANSWERS[kind]


@pytest.mark.parametrize("kind", ANSWERS)
@pytest.mark.parametrize("emphasis", [r"**\1:**", r"**\1**:", r"*\1:*"],
                         ids=["bold-with-colon", "bold", "italic-with-colon"])
def test_emphasis_around_keys_reads_as_the_bare_key(kind, emphasis):
    body = re.sub(r"^([^:]+):", emphasis, answer_lines(ANSWERS[kind]), flags=re.M)
    assert body != answer_lines(ANSWERS[kind])
    assert read_answer(body, "direct") == ANSWERS[kind]
    assert parse_fields(re.sub(r"^([^:]+):", emphasis, "problem_type: tsp\nsource: Depot")) == {
        "problem_type": "tsp", "source": "Depot"}


def test_answer_lines_text():
    assert answer_lines(ANSWERS["tour"]) == "order: A, C, B\ncost: 7/2"
    assert answer_lines(ANSWERS["coloring"]) == "color A: 0\ncolor B: 1\ncolor C: 0\ncolors: 2"
    assert answer_lines(ANSWERS["boolean"]) == "answer: no"



@pytest.mark.parametrize("line", ["order: A -> B -> C", "order: A B C", "nodes: A and B",
                                  "path: A → B"])
def test_read_answer_splits_names_on_commas_only(line):
    # names joined any other way read as one; run_direct refuses that name
    # because the statement does not mention it
    count = "size" if line.startswith("nodes") else "cost"
    assert read_answer(f"{line}\n{count}: 1", "direct").payload == (line.partition(": ")[2],)
