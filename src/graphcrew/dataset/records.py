"""The files of a run: instances, text-only export, manifests and results.

Every JSONL file (instances, text-only statements, results, scores and
replay fixtures) is read by :func:`read_jsonl`.  Instances and their
text-only statements are written together by :func:`write_instances`,
and results and scores by :func:`write_jsonl`; either writer's file,
like a manifest or a report, is written through :func:`complete_file`
and appears only once complete.  Each line is one record in one format:
fixed key order and compact separators, so a regenerated dataset is
byte-identical to the original, which the manifest checksum then
certifies.  Replay fixtures are appended a reply at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple, TextIO

from ..formats import parse_graph, serialize_graph
from ..graph import Graph, Triple
from ..solvers.solution import Solution, solution_from_dict, solution_to_dict, verify_solution
from .generate import DatasetSpec, GroundTruth, ProblemInstance

if TYPE_CHECKING:
    from ..agents import Outcome


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict[str, Any]]]:
    """Each record of a JSONL file with its line number; a line ends at a
    newline byte.  Blank lines are skipped but counted; a line that is not
    UTF-8 text or not a JSON object is refused (ValueError), naming the
    file and line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not UTF-8 text ({exc})") from exc
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not valid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"{path}: line {lineno}: not a JSON object")
            yield lineno, record


def _jsonl_line(record: dict[str, Any]) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"


def write_jsonl(records: Iterable[dict[str, Any]], path: str | Path) -> None:
    """``records`` as compact JSONL lines, their keys in the order given.
    Each line goes to the file as it is made, so ``records`` may be a
    generator and the file is never held whole in memory; the file
    appears only once it is complete."""
    with complete_file(path) as fh:
        fh.writelines(map(_jsonl_line, records))


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


def _own_names(graph: Graph) -> dict[str, str]:
    """Each node name of ``graph`` mapped to itself, for reading a solution
    of it that holds the graph's strings (:func:`solution_from_dict`)."""
    return dict(zip(graph.node_names, graph.node_names))


def record_to_instance(record: dict[str, Any],
                       triples: dict[Triple, Triple] | None = None) -> ProblemInstance:
    """Rebuild an instance from a record.

    Imported records may omit the hidden section entirely (text-only
    files from outside); such instances can be solved against a live or
    replay backend but carry no truth to score exactly against.  The
    truth's node names are the graph's own strings.  The graph takes its
    edge triples from ``triples`` when given (:func:`parse_graph`).
    """
    if "id" not in record or "text" not in record:
        raise ValueError("instance record needs at least 'id' and 'text'")
    hidden = record.get("hidden") or {}
    graph = None
    if "graph" in hidden:
        graph = parse_graph(hidden["graph"], triples)
    truth = None
    if "truth" in hidden:
        stored = hidden["truth"]
        names = None if graph is None else _own_names(graph)
        optimal = solution_from_dict(stored["optimal"], names)
        # shortest_path and cycle_detection store the optimum in both slots
        approximate = (optimal if stored["approximate"] == stored["optimal"]
                       else solution_from_dict(stored["approximate"], names))
        truth = GroundTruth(optimal=optimal, approximate=approximate)
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


def text_digest(text: str) -> str:
    """The sha256 of a problem statement, which binds a result to it."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# the keys of a text-only record: all that solving an instance reads
_STATEMENT_KEYS = ("id", "problem_type", "text")


@contextlib.contextmanager
def complete_file(path: str | Path) -> Iterator[TextIO]:
    """A file to write that takes the name ``path`` only once the block
    ends, and is removed if the block raises: a partial file never shows."""
    path = Path(path)
    partial = path.with_name(path.name + ".partial")
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_instances(instances: Iterable[ProblemInstance], path: str | Path,
                    text_path: str | Path) -> None:
    """Write each instance's full record to ``path`` and its public
    statement (id, problem type and text, nothing hidden) to
    ``text_path``, an instance at a time: ``instances`` may be a
    generator, and neither file is held whole.  Each file appears only
    once it is complete."""
    with complete_file(path) as full, complete_file(text_path) as public:
        for instance in instances:
            record = instance_to_record(instance)
            full.write(_jsonl_line(record))
            public.write(_jsonl_line({key: record[key] for key in _STATEMENT_KEYS}))


def read_instances(path: str | Path, *, statements_only: bool = False) -> list[ProblemInstance]:
    """Read an instances file, naming the file and line of a bad record.

    A stored optimum that fails :func:`verify_solution` on its hidden
    graph and route, stated objective included, makes a bad record.
    With ``statements_only`` each record is read as its text-only line
    would be (id, problem type and text), so its ``hidden`` section is
    never parsed; ``solve`` needs nothing else.

    The graphs of one read are built from one table of edge triples, so
    an edge equal in several graphs of the file is one shared tuple.  The
    table is local to the call and dies with it.
    """
    instances = []
    triples: dict[Triple, Triple] = {}
    for lineno, record in read_jsonl(path):
        try:
            if statements_only:
                record = {key: record[key] for key in _STATEMENT_KEYS if key in record}
            instance = record_to_instance(record, triples)
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


def file_checksum(path: str | Path) -> str:
    """The sha256 of a file, read in blocks so it is never held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            digest.update(block)
    return digest.hexdigest()


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


# -- results files: one record per instance answered by solve or solve-direct


def result_record(instance: ProblemInstance, outcome: Outcome, **fields: Any) -> dict[str, Any]:
    """The results record of ``instance`` answered as ``outcome``: its id,
    family and the digest of the statement it was answered from, then
    ``fields`` (solve-direct's ``mode``), the solution or the failure and
    its stage, and one usage row per model call."""
    record = {"id": instance.instance_id, "problem_type": instance.problem_type,
              "text_sha256": text_digest(instance.text), **fields}
    if outcome.solution is not None:
        record.update(status="ok", solution=solution_to_dict(outcome.solution))
    else:
        record.update(status="failed", failure=outcome.failure, stage=outcome.stage)
    record["usage"] = [call._asdict() for call in outcome.calls]
    return record


class Result(NamedTuple):
    """One record of a results file, bound to the instance it answers."""

    lineno: int
    instance: ProblemInstance
    solution: Solution | None  # None when the instance failed
    failure: str | None
    usage: list[tuple[str, int, int]]  # (stage, input tokens, output tokens) per call


def read_results(path: str | Path, instances: dict[str, ProblemInstance]) -> list[Result]:
    """Read a results file against the dataset instances it answers, by id.

    Refused (ValueError), naming the file and line: a record for an id
    the dataset lacks, a second record for an id, a record whose
    ``text_sha256`` is not its statement's, and a malformed solution or
    usage row, which would make the accuracy or cost table lie.  An
    instance without ground truth is refused too: its answer cannot be
    graded.
    """
    results: list[Result] = []
    seen: set[str] = set()
    for lineno, record in read_jsonl(path):
        where = f"{path}: line {lineno}"
        record_id = record.get("id")
        instance = instances.get(record_id) if isinstance(record_id, str) else None
        if instance is None:
            raise ValueError(f"{where}: result for unknown instance {record_id!r}")
        if record_id in seen:
            raise ValueError(f"{where}: second result for instance {record_id!r}")
        seen.add(record_id)
        digest = record.get("text_sha256")
        if digest != text_digest(instance.text):
            raise ValueError(f"{where}: result for {record_id!r} was not answered from this "
                             f"dataset's statement (text_sha256 {digest!r})")
        if instance.truth is None or instance.graph is None:
            raise ValueError(f"instance {record_id} carries no ground truth; "
                             "evaluate needs the full (non text-only) dataset file")
        try:
            usage = []
            for row in record.get("usage") or []:
                stage, counts = row["stage"], (row["input_tokens"], row["output_tokens"])
                if not isinstance(stage, str):
                    raise TypeError(f"usage stage must be a string, got {stage!r}")
                if not all(type(n) is int and n >= 0 for n in counts):
                    raise ValueError(
                        f"usage token counts must be non-negative integers, got {counts}")
                usage.append((stage, *counts))
            ok = record.get("status") == "ok"
            solution = (solution_from_dict(record["solution"], _own_names(instance.graph))
                        if ok else None)
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ValueError(f"{where}: malformed result ({type(exc).__name__}: {exc})") from exc
        failure = None if ok else record.get("failure") or "solve failed"
        results.append(Result(lineno, instance, solution, failure, usage))
    return results
