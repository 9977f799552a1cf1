"""Algorithm catalogue and the deterministic selector.

The catalogue is data, not code: a YAML file lists every solving route
with its problem family, exactness, cost profile, and an applicability
block the selector can check mechanically.  Selection is a pure function
of the catalogue and the graph's measured structure, so the same graph
always yields the same choice with the same stated rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Any

import yaml

from .graph import GraphStats
from .problems import PROBLEM_TYPES

_DIRECTEDNESS = ("undirected", "directed", "any")


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
class ParameterSpec:
    default: Any
    description: str


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
    parameters: dict[str, ParameterSpec] = field(default_factory=dict)


@dataclass(frozen=True)
class KnowledgeBase:
    records: tuple[AlgorithmRecord, ...]

    def by_id(self, algorithm_id: str) -> AlgorithmRecord:
        for record in self.records:
            if record.algorithm_id == algorithm_id:
                return record
        raise UnknownProblemTypeError(f"no algorithm {algorithm_id!r} in the catalogue")


@dataclass(frozen=True)
class AlgorithmChoice:
    record: AlgorithmRecord
    bound_parameters: dict[str, Any]
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


def load_knowledge_base(text: str) -> KnowledgeBase:
    """Parse and validate catalogue YAML.

    Raises :class:`SchemaError` on shape problems (including a problem
    type that appears without any exact route),
    :class:`DuplicateAlgorithmError` on repeated ids, and
    :class:`UnknownProblemTypeError` on an unsupported problem family.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a mapping")
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
        problem = _expect(entry, "problem", str, where)
        if problem not in PROBLEM_TYPES:
            raise UnknownProblemTypeError(
                f"{where}: unsupported problem type {problem!r} "
                f"(known: {', '.join(PROBLEM_TYPES)})"
            )
        app_raw = entry.get("applicability")
        if not isinstance(app_raw, dict):
            raise SchemaError(f"{where}: missing 'applicability' mapping")
        max_nodes = _expect(app_raw, "max_nodes", int, where)
        if max_nodes < 1:
            raise SchemaError(f"{where}: max_nodes must be positive, got {max_nodes}")
        directedness = _expect(app_raw, "directedness", str, where)
        if directedness not in _DIRECTEDNESS:
            raise SchemaError(
                f"{where}: directedness must be one of {', '.join(_DIRECTEDNESS)}"
            )
        params_raw = entry.get("parameters") or {}
        if not isinstance(params_raw, dict):
            raise SchemaError(f"{where}: 'parameters' must be a mapping")
        parameters: dict[str, ParameterSpec] = {}
        for name, spec in params_raw.items():
            if not isinstance(spec, dict) or "default" not in spec:
                raise SchemaError(f"{where}: parameter {name!r} needs a default")
            parameters[name] = ParameterSpec(
                default=spec["default"],
                description=str(spec.get("description", "")),
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
                    requires_complete=bool(app_raw.get("requires_complete", False)),
                    requires_weighted=bool(app_raw.get("requires_weighted", False)),
                    directedness=directedness,
                ),
                parameters=parameters,
            )
        )
    for problem in sorted({r.problem_type for r in records}):
        if not any(r.exact for r in records if r.problem_type == problem):
            raise SchemaError(f"problem type {problem!r} has no exact algorithm")
    return KnowledgeBase(tuple(records))


@lru_cache(maxsize=1)
def default_knowledge_base() -> KnowledgeBase:
    text = resources.files("graphcrew").joinpath("data/knowledge_base.yaml").read_text()
    return load_knowledge_base(text)


def lookup_algorithms(kb: KnowledgeBase, problem_type: str) -> tuple[AlgorithmRecord, ...]:
    """All routes for a problem family: exact ones first, file order within each class."""
    matching = [r for r in kb.records if r.problem_type == problem_type]
    if not matching:
        raise UnknownProblemTypeError(f"no algorithms for problem type {problem_type!r}")
    return tuple(r for r in matching if r.exact) + tuple(r for r in matching if not r.exact)


def applicability_reason(
    record: AlgorithmRecord, stats: GraphStats, *, weighted: bool, directed: bool
) -> str | None:
    """Why this record cannot run on this graph, or None if it can."""
    app = record.applicability
    if stats.node_count > app.max_nodes:
        return f"{stats.node_count} nodes exceeds its limit of {app.max_nodes}"
    if app.requires_complete and not stats.is_complete:
        return "the graph is not complete"
    if app.requires_weighted and not weighted:
        return "the graph is unweighted"
    if app.directedness == "undirected" and directed:
        return "the graph is directed"
    if app.directedness == "directed" and not directed:
        return "the graph is undirected"
    return None


def select_algorithm(
    kb: KnowledgeBase,
    problem_type: str,
    stats: GraphStats,
    *,
    weighted: bool,
    directed: bool,
) -> AlgorithmChoice:
    """Pick the route for a graph: the first applicable exact record,
    else the first applicable heuristic.

    The rationale spells out the decision, including which exact routes
    were passed over and why.  Raises
    :class:`NoApplicableAlgorithmError` when nothing fits.
    """
    candidates = lookup_algorithms(kb, problem_type)
    rejections: list[str] = []
    for record in candidates:
        reason = applicability_reason(record, stats, weighted=weighted, directed=directed)
        if reason is not None:
            rejections.append(f"{record.algorithm_id}: {reason}")
            continue
        bound = {name: spec.default for name, spec in record.parameters.items()}
        if record.exact:
            rationale = (
                f"{record.algorithm_id} is exact and applicable: "
                f"{stats.node_count} nodes within its limit of "
                f"{record.applicability.max_nodes}"
            )
        else:
            skipped = "; ".join(rejections) if rejections else "no exact route listed"
            rationale = (
                f"{record.algorithm_id} chosen as heuristic fallback ({skipped})"
            )
        return AlgorithmChoice(record=record, bound_parameters=bound, rationale=rationale)
    raise NoApplicableAlgorithmError(
        f"no applicable algorithm for {problem_type} "
        f"on {stats.node_count} nodes ({'; '.join(rejections)})"
    )
