"""Algorithm catalogue and the deterministic selector.

The catalogue is data, not code: a YAML file lists every solving route
with its problem family, exactness, cost profile, and an applicability
block the selector can check mechanically.  Selection is a pure function
of the catalogue and the graph, so the same graph always yields the same
choice with the same stated rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Any

import yaml

from .execute import RUNNERS
from .graph import Graph
from .problems import PROBLEM_TYPES

_DIRECTEDNESS = ("undirected", "directed", "any")
# the keys a catalogue may use: at the top level, in an entry, and under applicability
_TOP_KEYS = ("version", "algorithms")
_ENTRY_KEYS = ("id", "problem", "description", "complexity", "exact", "applicability")
_APPLICABILITY_KEYS = ("max_nodes", "requires_complete", "requires_weighted", "directedness")


class KnowledgeBaseError(ValueError):
    pass


class SchemaError(KnowledgeBaseError):
    pass


class DuplicateAlgorithmError(KnowledgeBaseError):
    pass


class UnknownProblemTypeError(KnowledgeBaseError):
    pass


class NoApplicableAlgorithmError(KnowledgeBaseError):
    pass


@dataclass(frozen=True)
class Applicability:
    max_nodes: int
    requires_complete: bool
    requires_weighted: bool
    directedness: str


@dataclass(frozen=True)
class AlgorithmRecord:
    algorithm_id: str
    problem_type: str
    description: str
    complexity: str
    exact: bool
    applicability: Applicability


@dataclass(frozen=True)
class KnowledgeBase:
    records: tuple[AlgorithmRecord, ...]


@dataclass(frozen=True)
class AlgorithmChoice:
    record: AlgorithmRecord
    rationale: str


def _expect(mapping: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError(f"{where}: missing {key!r}")
    value = mapping[key]
    if kind is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"{where}: {key!r} must be true or false, got {value!r}")
    elif kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{where}: {key!r} must be an integer, got {value!r}")
    elif kind is str:
        if not isinstance(value, str) or not value.strip():
            raise SchemaError(f"{where}: {key!r} must be a non-empty string")
    return value


def _flag(mapping: dict, key: str, where: str) -> bool:
    return _expect(mapping, key, bool, where) if key in mapping else False


def _refuse_unknown_keys(mapping: dict, known: tuple[str, ...], where: str) -> None:
    unknown = sorted(str(key) for key in mapping if key not in known)
    if unknown:
        raise SchemaError(
            f"{where}: unknown key(s) {', '.join(unknown)} (known: {', '.join(known)})"
        )


def load_knowledge_base(text: str) -> KnowledgeBase:
    """Parse and validate catalogue YAML.

    Raises :class:`SchemaError` on shape problems (including an unknown
    key, an id with no runner, an id filed under a family its runner does
    not answer, and a problem type that appears without any exact route),
    :class:`DuplicateAlgorithmError` on repeated ids, and
    :class:`UnknownProblemTypeError` on an unsupported problem family.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a mapping")
    _refuse_unknown_keys(doc, _TOP_KEYS, "top level")
    entries = doc.get("algorithms")
    if not isinstance(entries, list) or not entries:
        raise SchemaError("'algorithms' must be a non-empty list")
    records: list[AlgorithmRecord] = []
    seen_ids: set[str] = set()
    for pos, entry in enumerate(entries):
        where = f"algorithms[{pos}]"
        algorithm_id = _expect(entry, "id", str, where)
        if algorithm_id in seen_ids:
            raise DuplicateAlgorithmError(f"algorithm id {algorithm_id!r} appears twice")
        seen_ids.add(algorithm_id)
        where = f"algorithm {algorithm_id!r}"
        _refuse_unknown_keys(entry, _ENTRY_KEYS, where)
        if algorithm_id not in RUNNERS:
            raise SchemaError(f"{where}: no runner for this id (known: {', '.join(RUNNERS)})")
        problem = _expect(entry, "problem", str, where)
        if problem not in PROBLEM_TYPES:
            raise UnknownProblemTypeError(
                f"{where}: unsupported problem type {problem!r} "
                f"(known: {', '.join(PROBLEM_TYPES)})"
            )
        family = RUNNERS[algorithm_id][0]
        if problem != family:
            raise SchemaError(f"{where}: its runner answers {family}, not {problem}")
        app_raw = entry.get("applicability")
        if not isinstance(app_raw, dict):
            raise SchemaError(f"{where}: missing 'applicability' mapping")
        _refuse_unknown_keys(app_raw, _APPLICABILITY_KEYS, f"{where} applicability")
        max_nodes = _expect(app_raw, "max_nodes", int, where)
        if max_nodes < 1:
            raise SchemaError(f"{where}: max_nodes must be positive, got {max_nodes}")
        directedness = _expect(app_raw, "directedness", str, where)
        if directedness not in _DIRECTEDNESS:
            raise SchemaError(
                f"{where}: directedness must be one of {', '.join(_DIRECTEDNESS)}"
            )
        records.append(
            AlgorithmRecord(
                algorithm_id=algorithm_id,
                problem_type=problem,
                description=_expect(entry, "description", str, where),
                complexity=_expect(entry, "complexity", str, where),
                exact=_expect(entry, "exact", bool, where),
                applicability=Applicability(
                    max_nodes=max_nodes,
                    requires_complete=_flag(app_raw, "requires_complete", where),
                    requires_weighted=_flag(app_raw, "requires_weighted", where),
                    directedness=directedness,
                ),
            )
        )
    for problem in sorted({r.problem_type for r in records}):
        if not any(r.exact for r in records if r.problem_type == problem):
            raise SchemaError(f"problem type {problem!r} has no exact algorithm")
    return KnowledgeBase(tuple(records))


@lru_cache(maxsize=1)
def default_knowledge_base() -> KnowledgeBase:
    text = resources.files("graphcrew").joinpath("data/knowledge_base.yaml").read_text("utf-8")
    return load_knowledge_base(text)


def lookup_algorithms(kb: KnowledgeBase, problem_type: str) -> tuple[AlgorithmRecord, ...]:
    """All routes for a problem family: exact ones first, file order within each class."""
    matching = [r for r in kb.records if r.problem_type == problem_type]
    if not matching:
        raise UnknownProblemTypeError(f"no algorithms for problem type {problem_type!r}")
    return tuple(r for r in matching if r.exact) + tuple(r for r in matching if not r.exact)


def applicability_reason(record: AlgorithmRecord, graph: Graph) -> str | None:
    """Why this record cannot run on this graph, or None if it can."""
    app = record.applicability
    if graph.node_count > app.max_nodes:
        return f"{graph.node_count} nodes exceeds its limit of {app.max_nodes}"
    if app.requires_complete and not graph.is_complete:
        return "the graph is not complete"
    if app.requires_weighted and not graph.weighted:
        return "the graph is unweighted"
    if app.directedness == "undirected" and graph.directed:
        return "the graph is directed"
    if app.directedness == "directed" and not graph.directed:
        return "the graph is undirected"
    return None


def select_algorithm(kb: KnowledgeBase, problem_type: str, graph: Graph) -> AlgorithmChoice:
    """Pick the one route for a graph: the first applicable record in
    lookup order, so an exact one when any fits, else a heuristic.

    The choice is final; no caller runs a second route in its place.  The
    rationale spells out the decision, including which exact routes were
    passed over and why.  Raises :class:`NoApplicableAlgorithmError`
    when nothing fits.
    """
    rejections: list[str] = []
    for record in lookup_algorithms(kb, problem_type):
        reason = applicability_reason(record, graph)
        if reason is None:
            break
        rejections.append(f"{record.algorithm_id}: {reason}")
    else:
        raise NoApplicableAlgorithmError(
            f"no applicable algorithm for {problem_type} "
            f"on {graph.node_count} nodes ({'; '.join(rejections)})"
        )
    if record.exact:
        rationale = (
            f"{record.algorithm_id} is exact and applicable: "
            f"{graph.node_count} nodes within its limit of "
            f"{record.applicability.max_nodes}"
        )
    else:
        skipped = "; ".join(rejections) if rejections else "no exact route listed"
        rationale = f"{record.algorithm_id} chosen as heuristic fallback ({skipped})"
    return AlgorithmChoice(record=record, rationale=rationale)
