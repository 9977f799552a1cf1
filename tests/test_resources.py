"""The package's non-Python files: prompt templates and the globs that ship them."""

import re
from pathlib import Path

import pytest

from graphcrew.agents.prompts import load_template
from graphcrew.problems import PROBLEM_TYPES

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "graphcrew"


def test_extract_prompt_lists_every_family_in_order():
    _, user = load_template("extract_graph")
    listed = re.search(r"\(allowed families: ([a-z_, ]+)\)", user).group(1)
    assert tuple(listed.split(", ")) == PROBLEM_TYPES


def test_direct_prompt_has_one_answer_line_per_family():
    _, user = load_template("direct")
    families = re.findall(r"^- ([a-z_]+): ", user, re.M)
    assert sorted(families) == sorted(PROBLEM_TYPES)


def test_package_data_globs_match_the_resource_files():
    # tests run from src/ and read any file there; an installed wheel holds
    # only the files these globs name
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        globs = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["graphcrew"]
    shipped = set()
    for pattern in globs:
        matched = set(PACKAGE.glob(pattern))
        assert matched, f"package-data glob {pattern!r} matches no file"
        shipped |= matched
    resources = {
        path for path in PACKAGE.rglob("*")
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }
    assert resources <= shipped, f"not shipped: {sorted(resources - shipped)}"
