"""Seeded benchmark generation: hidden graphs wrapped in prose."""

from .names import generate_names
from .text import SCENARIO_STYLES, render_problem_text
from .generate import (
    DatasetSpec,
    GroundTruth,
    ProblemInstance,
    build_instance,
    generate_dataset,
    ground_truth,
    instance_seed,
)
from .records import (
    check_manifest,
    complete_file,
    dataset_manifest,
    Result,
    instance_to_record,
    read_instances,
    read_jsonl,
    read_results,
    record_to_instance,
    result_record,
    text_digest,
    write_instances,
    write_jsonl,
)

__all__ = [
    "DatasetSpec",
    "GroundTruth",
    "ProblemInstance",
    "Result",
    "SCENARIO_STYLES",
    "build_instance",
    "check_manifest",
    "complete_file",
    "dataset_manifest",
    "generate_dataset",
    "generate_names",
    "ground_truth",
    "instance_seed",
    "instance_to_record",
    "read_instances",
    "read_jsonl",
    "read_results",
    "record_to_instance",
    "render_problem_text",
    "result_record",
    "text_digest",
    "write_instances",
    "write_jsonl",
]
