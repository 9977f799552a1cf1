"""Human tables and machine records for evaluation output.

Fractions stay exact until the last moment; tables show percentages to
one decimal and prices to six, records carry the raw rationals as
strings so a round-trip loses nothing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from ..prices import PriceConfig
from .costs import CostReport, cost_report
from .scoring import InstanceScore, TaskSummary, aggregate_scores, overall_summary


def _pct(value: Fraction) -> str:
    return f"{float(value) * 100:.1f}%"


def _money(value: Fraction, currency: str) -> str:
    unit = "$" if currency == "USD" else currency + " "
    return f"{unit}{float(value):.6f}"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: list[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_accuracy_table(
    summaries: dict[str, TaskSummary], overall: TaskSummary | None = None
) -> str:
    headers = ["task", "instances", "acc_all", "acc_nodes", "acc_result", "error_rate"]
    named = sorted(summaries.items())
    if overall is not None:
        named.append(("overall", overall))
    rows = [
        [name, str(s.instance_count),
         *map(_pct, (s.mean_acc_all, s.mean_acc_nodes, s.mean_acc_result, s.error_rate))]
        for name, s in named
    ]
    return _table(headers, rows)


def render_cost_table(report: CostReport) -> str:
    headers = ["stage", "calls", "input_tokens", "output_tokens", "price"]
    rows = [
        [s.stage, str(s.calls), str(s.input_tokens), str(s.output_tokens),
         _money(s.price, report.currency)]
        for s in (*report.stages, report.total)
    ]
    return _table(headers, rows)


def render_report(scores: list[InstanceScore], calls: list[tuple[str, int, int]],
                  prices: PriceConfig) -> str:
    """The report of a graded run: the accuracy table by task and overall,
    then the cost table of ``calls`` when there are any usage rows."""
    sections = [render_accuracy_table(aggregate_scores(scores), overall_summary(scores))]
    if calls:
        sections.append(render_cost_table(cost_report(calls, prices)))
    return "\n\n".join(sections) + "\n"


def scores_to_records(scores: list[InstanceScore]) -> list[dict[str, Any]]:
    records = []
    for score in scores:
        record: dict[str, Any] = {
            "id": score.instance_id,
            "problem_type": score.problem_type,
            "acc_nodes": str(score.acc_nodes),
            "acc_result": str(score.acc_result),
            "acc_all": str(score.acc_all),
        }
        if score.failure_reason is not None:
            record["failure_reason"] = score.failure_reason
        records.append(record)
    return records
