"""Command-line front end: generate, solve, evaluate, solve-direct.

Exit codes are part of the contract: 0 for success, 1 when some
instances failed to solve, 2 for configuration problems and for a
solver answer that fails its check, which is reported as an internal
error.  Offline runs (stub or replay backends) are byte-reproducible end
to end; the only secret a live backend ever sees is its API key, read
from the environment variable named in the backend config, never from a
flag.

Every command is a fresh process, so each imports the layers it runs
inside its own body: ``generate`` never loads the agents, the
evaluation layer, YAML or the HTTP client.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from .dataset import (
    DatasetSpec,
    check_manifest,
    complete_file,
    dataset_manifest,
    generate_dataset,
    read_instances,
    read_results,
    result_record,
    write_instances,
    write_jsonl,
)
from .execute import AnswerCheckError
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

# the default sweep; cycle detection is opt-in via --type
DEFAULT_TYPES = (TSP, GRAPH_COLORING, VERTEX_COVER, SHORTEST_PATH)


def _config_guard(fn):
    """Turn configuration mistakes into exit code 2 with a clean message;
    a solver answer that fails its check exits 2 as an internal error."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            label = "internal" if isinstance(exc, AnswerCheckError) else "configuration"
            click.echo(f"{label} error: {exc}", err=True)
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
# the other defaults are DatasetSpec's, read from its class attributes
@click.option("--sizes", default=f"{DatasetSpec.min_nodes}-{DatasetSpec.max_nodes}",
              show_default=True, help="Node-count range, as LO-HI or a single N.")
@click.option("--per-size", default=DatasetSpec.instances_per_size, show_default=True,
              help="Instances per node count.")
@click.option("--seed", default=DatasetSpec.master_seed, show_default=True,
              help="Master seed; all randomness flows from it.")
@click.option("--noise", default=DatasetSpec.noise_level, show_default=True,
              type=click.Choice(NOISE_LEVELS), help="How much irrelevant prose to add.")
@click.option("--scenario", default=None, type=click.Choice(sorted(SCENARIOS)),
              help="Cover story; default picks one per problem family.")
@click.option("--out", default="dataset", show_default=True,
              type=click.Path(file_okay=False, path_type=Path), help="Output directory.")
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1),
              help="Parallel generation processes. The output is byte-identical to "
                   "--workers 1; extra workers pay only on a host that runs the "
                   "processes in parallel.")
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
        instance_path = out / f"{problem_type}.jsonl"
        write_instances(generate_dataset(spec, workers=workers), instance_path,
                        out / f"{problem_type}.text.jsonl")
        entry = dataset_manifest(spec, instance_path)
        entries.append(entry)
        click.echo(f"{entry['sha256']}  {instance_path.name}  ({entry['instance_count']} instances)")

    manifest_path = out / "manifest.json"
    with complete_file(manifest_path) as fh:
        fh.write(json.dumps({"datasets": entries}, indent=2, sort_keys=True) + "\n")
    click.echo(f"manifest written to {manifest_path}")


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create the directory {path}: {exc}") from None


def _run_dataset(dataset, config_path, concurrency, out, verb, answer, **fields) -> None:
    """Answer every instance of ``dataset`` by the backend ``config_path``
    configures, write the results in dataset order and report.

    ``answer(backend, problem_text)`` returns an instance's outcome, and
    its results record holds ``fields`` too.  One backend answers every
    instance, and it is given only the prompts.  An instance makes its
    calls one after another, so at most ``concurrency`` calls are in
    flight.  The directory of ``out`` is made before the first call, so
    a run never pays for answers it cannot write.  Exits 1 when some
    instance failed.
    """
    from .agents import load_backend_config, make_backend

    instances = read_instances(dataset, statements_only=True)
    backend_config = load_backend_config(config_path)
    _make_dir(out.parent)
    backend = make_backend(backend_config)

    def run_one(instance):
        return result_record(instance, answer(backend, instance.text), **fields)

    if concurrency > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            records = list(pool.map(run_one, instances))
    else:
        records = [run_one(instance) for instance in instances]

    write_jsonl(records, out)
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
    from .agents import run_pipeline

    _run_dataset(dataset, backend_config_path, concurrency, out, "solved", run_pipeline)


@main.command("solve-direct")
@click.option("--dataset", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Instances file (JSONL) to solve.")
@click.option("--backend-config", "backend_config_path", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Backend YAML config.")
@click.option("--mode", default="direct", show_default=True,
              type=click.Choice(("direct", "cot")),
              help="Single-prompt baseline; cot prepends the step-by-step directive.")
@click.option("--concurrency", default=4, show_default=True, type=click.IntRange(min=1),
              help="Instances in flight, and so model calls in flight.")
@click.option("--out", default=Path("results_direct.jsonl"), show_default=True,
              type=click.Path(dir_okay=False, path_type=Path), help="Results file to write.")
@_config_guard
def cmd_solve_direct(dataset, backend_config_path, mode, concurrency, out):
    """Ask for the answer in one prompt, no pipeline; the baseline condition."""
    from .agents import run_direct

    _run_dataset(dataset, backend_config_path, concurrency, out, "answered",
                 functools.partial(run_direct, mode=mode), mode=mode)


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
    from .evaluation import PriceConfig, render_report, score_results, scores_to_records

    check_manifest(dataset)
    instances = {inst.instance_id: inst for inst in read_instances(dataset)}
    if backend_config_path is not None:
        from .agents import load_backend_config

        prices = load_backend_config(backend_config_path).prices
    else:
        prices = PriceConfig()

    results = read_results(results_path, instances)
    if not results:
        raise ValueError(f"{results_path} holds no results")
    scores = score_results(results, instances, results_path)
    calls = [call for result in results for call in result.usage]
    report_text = render_report(scores, calls, prices)

    out_dir = out_dir or results_path.parent
    _make_dir(out_dir)
    write_jsonl(scores_to_records(scores), out_dir / "scores.jsonl")
    with complete_file(out_dir / "report.txt") as fh:
        fh.write(report_text)
    click.echo(report_text.rstrip("\n"))
    click.echo(f"reports written to {out_dir}")


if __name__ == "__main__":
    main()
