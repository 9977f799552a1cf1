"""Command-line front end: generate, solve, evaluate, solve-direct.

Exit codes are part of the contract: 0 for success, 1 when some
instances failed to solve, 2 for configuration problems.  Offline runs
(stub or replay backends) are byte-reproducible end to end; the only
secret a live backend ever sees is its API key, read from the
environment variable named in the backend config, never from a flag.
"""

from __future__ import annotations

import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from .agents import (
    ConfigError,
    DirectOutcome,
    PipelineError,
    PriceConfig,
    load_backend_config,
    make_backend,
    run_direct,
    run_pipeline,
)
from .dataset import (
    DatasetSpec,
    check_manifest,
    dataset_manifest,
    generate_dataset,
    json_line,
    read_instances,
    text_digest,
    write_instances,
    write_text_only,
)
from .evaluation import (
    TruthDefectError,
    aggregate_scores,
    cost_report,
    overall_summary,
    render_accuracy_table,
    render_cost_table,
    score_failure,
    score_prediction,
    scores_to_records,
)
from .problems import (
    CYCLE_DETECTION,
    GRAPH_COLORING,
    NOISE_LEVELS,
    PROBLEM_TYPES,
    SCENARIOS,
    SHORTEST_PATH,
    TSP,
    VERTEX_COVER,
)
from .solvers import solution_from_dict, solution_to_dict

# the default sweep; cycle detection is opt-in via --type
DEFAULT_TYPES = (TSP, GRAPH_COLORING, VERTEX_COVER, SHORTEST_PATH)


def _config_guard(fn):
    """Turn configuration mistakes into exit code 2 with a clean message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(2)

    return wrapper


@click.group()
def main() -> None:
    """Graph problem workbench: generate datasets, solve them, score runs."""


def _parse_sizes(text: str) -> tuple[int, int]:
    parts = text.split("-")
    try:
        if len(parts) == 1:
            low = high = int(parts[0])
        elif len(parts) == 2:
            low, high = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise click.UsageError(f"--sizes wants N or LO-HI, got {text!r}") from None
    return low, high


@main.command("generate")
@click.option("--type", "types", multiple=True, type=click.Choice(PROBLEM_TYPES),
              help="Problem family to generate; repeatable. Default: the four standard families.")
@click.option("--sizes", default="8-25", show_default=True,
              help="Node-count range, as LO-HI or a single N.")
@click.option("--per-size", default=50, show_default=True, help="Instances per node count.")
@click.option("--seed", default=7, show_default=True, help="Master seed; all randomness flows from it.")
@click.option("--noise", default="standard", show_default=True,
              type=click.Choice(NOISE_LEVELS), help="How much irrelevant prose to add.")
@click.option("--scenario", default=None, type=click.Choice(sorted(SCENARIOS)),
              help="Cover story; default picks one per problem family.")
@click.option("--out", default="dataset", show_default=True,
              type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1),
              help="Parallel generation processes.")
@_config_guard
def cmd_generate(types, sizes, per_size, seed, noise, scenario, out, workers):
    """Generate seeded datasets with hidden ground truth."""
    low, high = _parse_sizes(sizes)
    chosen = types or DEFAULT_TYPES
    _make_dir(out)

    entries = []
    for problem_type in chosen:
        spec = DatasetSpec(
            problem_type=problem_type,
            master_seed=seed,
            min_nodes=low,
            max_nodes=high,
            instances_per_size=per_size,
            noise_level=noise,
            scenario=scenario,
        )
        instances = generate_dataset(spec, workers=workers)
        instance_path = out / f"{problem_type}.jsonl"
        write_instances(instances, instance_path)
        write_text_only(instances, out / f"{problem_type}.text.jsonl")
        entry = dataset_manifest(spec, instance_path)
        entries.append(entry)
        click.echo(f"{entry['sha256']}  {instance_path.name}  ({entry['instance_count']} instances)")

    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps({"datasets": entries}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    click.echo(f"manifest written to {manifest_path}")


def _usage_rows(calls) -> list[dict]:
    return [call._asdict() for call in calls]


def _result_head(instance) -> dict:
    """The keys that open every results record: the instance answered,
    and the digest of the statement it was answered from."""
    return {"id": instance.instance_id, "problem_type": instance.problem_type,
            "text_sha256": text_digest(instance.text)}


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the directory {path}: {exc}") from None


def _write_lines(lines: list[str], path: Path) -> None:
    path.write_text("\n".join(lines) + "\n" if lines else "", encoding="utf-8")


def _run_dataset(instances, backend_config, concurrency, out, verb, answer_one) -> None:
    """Answer every instance, write the results in dataset order and report.

    ``answer_one(backend, instance)`` returns the instance's results
    record.  One backend answers every instance, and it is given only
    the prompts.  An instance makes its calls one after another, so at
    most ``concurrency`` calls are in flight.  The directory of ``out``
    is made before the first call, so a run never pays for answers it
    cannot write.  Exits 1 when some instance failed.
    """
    _make_dir(out.parent)
    run_one = functools.partial(answer_one, make_backend(backend_config))

    if concurrency > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            records = list(pool.map(run_one, instances))
    else:
        records = [run_one(instance) for instance in instances]

    _write_lines([json_line(r) for r in records], out)
    failed = sum(1 for r in records if r["status"] != "ok")
    click.echo(f"{verb} {len(records) - failed}/{len(records)} instances -> {out}")
    if failed:
        click.echo(f"{failed} instances failed", err=True)
        sys.exit(1)


@main.command("solve")
@click.option("--dataset", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Instances file (JSONL) to solve.")
@click.option("--backend-config", "backend_config_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Backend YAML config.")
@click.option("--concurrency", default=4, show_default=True, type=click.IntRange(min=1),
              help="Instances in flight, and so model calls in flight.")
@click.option("--out", default=Path("results.jsonl"), show_default=True,
              type=click.Path(dir_okay=False, path_type=Path), help="Results file to write.")
@_config_guard
def cmd_solve(dataset, backend_config_path, concurrency, out):
    """Run the staged pipeline over a dataset."""
    instances = read_instances(dataset, statements_only=True)
    backend_config = load_backend_config(backend_config_path)

    def solve_one(backend, instance):
        record = _result_head(instance)
        try:
            outcome = run_pipeline(backend, instance.text)
        except PipelineError as exc:
            record["status"] = "failed"
            record["failure"] = str(exc)
            record["stage"] = exc.stage
            record["usage"] = _usage_rows(exc.partial_calls)
            return record
        record["status"] = "ok"
        record["solution"] = solution_to_dict(outcome.solution)
        record["algorithm"] = outcome.solution.algorithm_id
        record["explanation"] = outcome.explanation
        record["usage"] = _usage_rows(outcome.calls)
        return record

    _run_dataset(instances, backend_config, concurrency, out, "solved", solve_one)


@main.command("solve-direct")
@click.option("--dataset", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--backend-config", "backend_config_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path))
@click.option("--mode", default="direct", show_default=True,
              type=click.Choice(("direct", "cot")),
              help="Single-prompt baseline; cot prepends the step-by-step directive.")
@click.option("--concurrency", default=4, show_default=True, type=click.IntRange(min=1),
              help="Instances in flight, and so model calls in flight.")
@click.option("--out", default=Path("results_direct.jsonl"), show_default=True,
              type=click.Path(dir_okay=False, path_type=Path))
@_config_guard
def cmd_solve_direct(dataset, backend_config_path, mode, concurrency, out):
    """Ask for the answer in one prompt, no pipeline; the baseline condition."""
    instances = read_instances(dataset, statements_only=True)
    backend_config = load_backend_config(backend_config_path)

    def answer_one(backend, instance):
        outcome: DirectOutcome = run_direct(backend, instance.text, mode=mode)
        record = {**_result_head(instance), "mode": mode}
        if outcome.solution is not None:
            record["status"] = "ok"
            record["solution"] = solution_to_dict(outcome.solution)
        else:
            record["status"] = "failed"
            record["failure"] = outcome.failure
        record["usage"] = _usage_rows(outcome.calls)
        return record

    _run_dataset(instances, backend_config, concurrency, out, "answered", answer_one)


def _priced_call(row: dict) -> tuple[str, int, int]:
    """A results file's usage row as (stage, input tokens, output tokens);
    a row that would make the cost table lie is refused."""
    stage, counts = row["stage"], (row["input_tokens"], row["output_tokens"])
    if not isinstance(stage, str):
        raise TypeError(f"usage stage must be a string, got {stage!r}")
    if not all(type(n) is int and n >= 0 for n in counts):
        raise ValueError(f"usage token counts must be non-negative integers, got {counts}")
    return (stage, *counts)


@main.command("evaluate")
@click.option("--results", "results_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Results file from solve or solve-direct.")
@click.option("--dataset", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="The instances the results were produced from.")
@click.option("--backend-config", "backend_config_path", default=None,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Backend config; its price section sets the cost rates.")
@click.option("--out", "out_dir", default=None,
              type=click.Path(file_okay=False, path_type=Path),
              help="Report directory; default is next to the results file.")
@_config_guard
def cmd_evaluate(results_path, dataset, backend_config_path, out_dir):
    """Check the hidden truth, then score results against it and account for token costs."""
    check_manifest(dataset)
    instances = {inst.instance_id: inst for inst in read_instances(dataset)}
    if backend_config_path is not None:
        prices = load_backend_config(backend_config_path).prices
    else:
        prices = PriceConfig()

    scores = []
    seen: set[str] = set()
    calls: list[tuple[str, int, int]] = []
    for lineno, line in enumerate(
        results_path.read_text(encoding="utf-8").splitlines(), 1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{results_path}: line {lineno}: {exc}") from exc
        if not isinstance(record, dict):
            raise ConfigError(f"{results_path}: line {lineno}: a result must be a JSON object")
        record_id = record.get("id")
        instance = instances.get(record_id) if isinstance(record_id, str) else None
        if instance is None:
            raise ConfigError(
                f"{results_path}: line {lineno}: result for unknown instance {record_id!r}"
            )
        if instance.instance_id in seen:
            raise ConfigError(
                f"{results_path}: line {lineno}: second result for instance {instance.instance_id!r}"
            )
        seen.add(instance.instance_id)
        digest = record.get("text_sha256")
        if digest != text_digest(instance.text):
            raise ConfigError(
                f"{results_path}: line {lineno}: result for {instance.instance_id!r} was not "
                f"answered from this dataset's statement (text_sha256 {digest!r})"
            )
        if instance.truth is None or instance.graph is None:
            raise ConfigError(
                f"instance {instance.instance_id} carries no ground truth; "
                "evaluate needs the full (non text-only) dataset file"
            )
        try:
            calls += [_priced_call(row) for row in record.get("usage") or []]
            ok = record.get("status") == "ok"
            prediction = solution_from_dict(record["solution"]) if ok else None
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ConfigError(
                f"{results_path}: line {lineno}: malformed result ({type(exc).__name__}: {exc})"
            ) from exc
        if prediction is None:
            scores.append(score_failure(
                instance.instance_id,
                instance.problem_type,
                record.get("failure") or "solve failed",
            ))
            continue
        try:
            scores.append(score_prediction(
                prediction,
                instance.truth.optimal,
                instance.problem_type,
                instance.graph,
                source=instance.source,
                target=instance.target,
                instance_id=instance.instance_id,
            ))
        except TruthDefectError as exc:
            raise ConfigError(
                f"{results_path}: line {lineno}: instance {instance.instance_id!r}: {exc}; "
                "the dataset's truth is wrong"
            ) from exc

    if not scores:
        raise ConfigError(f"{results_path} holds no results")
    scores += [
        score_failure(instance_id, instance.problem_type, "no result")
        for instance_id, instance in instances.items()
        if instance_id not in seen
    ]

    summaries = aggregate_scores(scores)
    overall = overall_summary(scores)
    accuracy_text = render_accuracy_table(summaries, overall)
    sections = [accuracy_text]
    if calls:
        sections.append(render_cost_table(cost_report(calls, prices)))
    report_text = "\n\n".join(sections) + "\n"

    out_dir = out_dir or results_path.parent
    _make_dir(out_dir)
    _write_lines([json_line(r) for r in scores_to_records(scores)], out_dir / "scores.jsonl")
    (out_dir / "report.txt").write_text(report_text, encoding="utf-8")
    click.echo(report_text.rstrip("\n"))
    click.echo(f"reports written to {out_dir}")


if __name__ == "__main__":
    main()
