"""Instance serialization: JSONL records, text-only export, manifests.

Records are written with fixed key order and compact separators so a
regenerated dataset is byte-identical to the original, which the
manifest checksum then certifies.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from ..formats import parse_graph, serialize_graph
from ..solvers.solution import solution_from_dict, solution_to_dict, verify_solution
from .generate import DatasetSpec, GroundTruth, ProblemInstance


def instance_to_record(instance: ProblemInstance) -> dict[str, Any]:
    record: dict[str, Any] = {
        "id": instance.instance_id,
        "problem_type": instance.problem_type,
        "scenario": instance.scenario,
        "noise_level": instance.noise_level,
        "node_count": instance.node_count,
        "seed": instance.seed,
        "text": instance.text,
    }
    hidden: dict[str, Any] = {}
    if instance.graph is not None:
        hidden["graph"] = serialize_graph(instance.graph)
        if instance.source is not None:
            hidden["source"] = instance.source
            hidden["target"] = instance.target
    if instance.truth is not None:
        hidden["truth"] = {
            "optimal": solution_to_dict(instance.truth.optimal),
            "approximate": solution_to_dict(instance.truth.approximate),
        }
    if hidden:
        record["hidden"] = hidden
    return record


def record_to_instance(record: dict[str, Any]) -> ProblemInstance:
    """Rebuild an instance from a record.

    Imported records may omit the hidden section entirely (text-only
    files from outside); such instances can be solved against a live or
    replay backend but carry no truth to score exactly against.
    """
    if "id" not in record or "text" not in record:
        raise ValueError("instance record needs at least 'id' and 'text'")
    hidden = record.get("hidden") or {}
    graph = None
    if "graph" in hidden:
        graph = parse_graph(hidden["graph"])
    truth = None
    if "truth" in hidden:
        truth = GroundTruth(
            optimal=solution_from_dict(hidden["truth"]["optimal"]),
            approximate=solution_from_dict(hidden["truth"]["approximate"]),
        )
    return ProblemInstance(
        instance_id=record["id"],
        problem_type=record.get("problem_type", "unknown"),
        scenario=record.get("scenario", "unknown"),
        noise_level=record.get("noise_level", "none"),
        node_count=record.get("node_count", 0),
        seed=record.get("seed", 0),
        text=record["text"],
        graph=graph,
        source=hidden.get("source"),
        target=hidden.get("target"),
        truth=truth,
    )


def json_line(record: dict[str, Any]) -> str:
    """A record as one compact JSONL line, as dataset, results and scores files hold it."""
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def text_digest(text: str) -> str:
    """The sha256 of a problem statement, which binds a result to it."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_instances(instances: list[ProblemInstance], path: str | Path) -> None:
    lines = [json_line(instance_to_record(inst)) for inst in instances]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# the keys of a text-only record: all that solving an instance reads
_STATEMENT_KEYS = ("id", "problem_type", "text")


def read_instances(path: str | Path, *, statements_only: bool = False) -> list[ProblemInstance]:
    """Read an instances file, naming the file and line of a bad record.

    A stored optimum that fails :func:`verify_solution` on its hidden
    graph and route, stated objective included, makes a bad record.
    With ``statements_only`` each record is read as its text-only line
    would be (id, problem type and text), so its ``hidden`` section is
    never parsed; ``solve`` needs nothing else.
    """
    instances = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {lineno} is not valid JSON: {exc}") from exc
        try:
            if statements_only:
                record = {key: record[key] for key in _STATEMENT_KEYS if key in record}
            instance = record_to_instance(record)
            report = None
            if instance.truth is not None and instance.graph is not None:
                report = verify_solution(instance.problem_type, instance.graph,
                                         instance.truth.optimal,
                                         source=instance.source, target=instance.target)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"{path}: line {lineno}: malformed instance ({type(exc).__name__}: {exc})"
            ) from exc
        if report is not None and not report.valid:
            raise ValueError(
                f"{path}: line {lineno}: the stored optimum of {instance.instance_id!r} fails "
                f"verification on its graph ({'; '.join(report.violations)})"
            )
        instances.append(instance)
    return instances


def write_text_only(instances: list[ProblemInstance], path: str | Path) -> None:
    """Public split: statements only, nothing hidden."""
    lines = [
        json_line({"id": inst.instance_id, "problem_type": inst.problem_type, "text": inst.text})
        for inst in instances
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def file_checksum(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dataset_manifest(spec: DatasetSpec, instances_path: str | Path) -> dict[str, Any]:
    return {
        "problem_type": spec.problem_type,
        "scenario": spec.resolved_scenario,
        "noise_level": spec.noise_level,
        "master_seed": spec.master_seed,
        "min_nodes": spec.min_nodes,
        "max_nodes": spec.max_nodes,
        "instances_per_size": spec.instances_per_size,
        "instance_count": spec.instance_count,
        "file": Path(instances_path).name,
        "sha256": file_checksum(instances_path),
    }


def check_manifest(path: str | Path) -> None:
    """Refuse (ValueError) an instances file whose sha256 differs from the
    one the ``manifest.json`` beside it lists; an unlisted file passes."""
    path = Path(path)
    manifest = path.parent / "manifest.json"
    if not manifest.is_file():
        return
    try:
        entries = json.loads(manifest.read_text(encoding="utf-8"))["datasets"]
        want = next((entry["sha256"] for entry in entries if entry["file"] == path.name), None)
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"{manifest}: unreadable manifest ({type(exc).__name__}: {exc})") from exc
    got = file_checksum(path)
    if want is not None and got != want:
        raise ValueError(f"{path}: sha256 {got} differs from the {want} that {manifest} "
                         "lists; the file changed after it was generated")
