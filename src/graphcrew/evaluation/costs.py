"""Token and price accounting over the usage rows of a run.

The input is one ``(stage, input_tokens, output_tokens)`` row per model
call, in the order the results file lists them, with counts already
checked as non-negative integers.  Prices are exact rationals: tokens
times a per-million rate, summed with no floating point anywhere.
Rendering to dollars happens only at the report layer, so totals always
equal the sum of their parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from ..prices import PriceConfig

MILLION = 1_000_000


@dataclass(frozen=True)
class StageCost:
    stage: str
    calls: int
    input_tokens: int
    output_tokens: int
    price: Fraction


@dataclass(frozen=True)
class CostReport:
    stages: tuple[StageCost, ...]
    total: StageCost
    currency: str


def price_of(input_tokens: int, output_tokens: int, prices: PriceConfig) -> Fraction:
    return (
        input_tokens * prices.input_per_million + output_tokens * prices.output_per_million
    ) / MILLION


def _stage_cost(stage: str, calls: int, input_tokens: int, output_tokens: int,
                prices: PriceConfig) -> StageCost:
    return StageCost(stage, calls, input_tokens, output_tokens,
                     price_of(input_tokens, output_tokens, prices))


def cost_report(calls: Iterable[tuple[str, int, int]], prices: PriceConfig) -> CostReport:
    """One row per stage, in first-seen order, and the run's total."""
    counts: dict[str, list[int]] = {}
    for stage, input_tokens, output_tokens in calls:
        row = counts.setdefault(stage, [0, 0, 0])
        row[0] += 1
        row[1] += input_tokens
        row[2] += output_tokens
    stages = tuple(_stage_cost(stage, *row, prices) for stage, row in counts.items())
    total = _stage_cost(
        "total",
        sum(s.calls for s in stages),
        sum(s.input_tokens for s in stages),
        sum(s.output_tokens for s in stages),
        prices,
    )
    return CostReport(stages=stages, total=total, currency=prices.currency)
