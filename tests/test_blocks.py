from graphcrew.agents import extract_block, parse_fields


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
