"""The package's non-Python files: prompt templates and the globs that ship
them; and the names the benchmark's tracer finds in the package."""

import importlib
import importlib.util
import re
import sys
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


# traced names whose code is gone; perfbench/tracing.py still lists them
DELETED_TRACED = {
    ("graphcrew.formats", "read_edge_list_loose"),
    ("graphcrew.graph", "graph_stats"),
    ("graphcrew.graph", "merge_edge_triples"),
    ("graphcrew.dataset.records", "write_text_only"),
}


def test_every_traced_function_resolves(monkeypatch):
    # the tracer wraps each function by its home module and name and skips
    # one it cannot find, so a moved function would silently read 0 calls
    spec = importlib.util.spec_from_file_location("tracing", REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    spec.loader.exec_module(tracing)
    missing = {(home, attr) for _, home, attr in tracing.FUNCTIONS
               if not callable(getattr(importlib.import_module(home), attr, None))}
    assert missing == DELETED_TRACED
    backends = importlib.import_module("graphcrew.agents.backends")
    assert all("complete" in vars(getattr(backends, name)) for name in tracing.BACKENDS)
