"""Seeded benchmark generation: hidden graphs wrapped in prose."""

from .names import generate_names, load_reserved_words
from .text import SCENARIO_STYLES, render_problem_text
from .extract import ExtractedProblem, ExtractionError, reference_extract
from .generate import (
    DatasetSpec,
    GroundTruth,
    NoExactTruthError,
    ProblemInstance,
    build_instance,
    generate_dataset,
    ground_truth,
    instance_seed,
)
from .records import (
    dataset_manifest,
    instance_to_record,
    read_instances,
    record_to_instance,
    write_instances,
    write_text_only,
)

__all__ = [
    "DatasetSpec",
    "ExtractedProblem",
    "ExtractionError",
    "GroundTruth",
    "NoExactTruthError",
    "ProblemInstance",
    "SCENARIO_STYLES",
    "build_instance",
    "dataset_manifest",
    "generate_dataset",
    "generate_names",
    "ground_truth",
    "instance_seed",
    "instance_to_record",
    "load_reserved_words",
    "read_instances",
    "record_to_instance",
    "reference_extract",
    "render_problem_text",
    "write_instances",
    "write_text_only",
]
