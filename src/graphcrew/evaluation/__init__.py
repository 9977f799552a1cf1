"""Scoring, cost accounting, and report rendering for solve runs."""

from .scoring import (
    InstanceScore,
    TaskSummary,
    TruthDefectError,
    aggregate_scores,
    overall_summary,
    score_failure,
    score_prediction,
    score_results,
)
from .costs import (
    CostReport,
    PriceConfig,
    StageCost,
    cost_report,
    price_of,
)
from .reports import (
    render_accuracy_table,
    render_cost_table,
    render_report,
    scores_to_records,
)

__all__ = [
    "CostReport",
    "InstanceScore",
    "PriceConfig",
    "StageCost",
    "TaskSummary",
    "TruthDefectError",
    "aggregate_scores",
    "cost_report",
    "overall_summary",
    "price_of",
    "render_accuracy_table",
    "render_cost_table",
    "render_report",
    "score_failure",
    "score_prediction",
    "score_results",
    "scores_to_records",
]
