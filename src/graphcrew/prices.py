"""Per-million token rates.

The backend config loader reads them and cost accounting spends them.
They live in neither layer, so ``solve`` does not load the evaluation
code and ``evaluate`` does not load the agents to price a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class PriceConfig:
    """Per-million token rates, exact and non-negative once loaded."""

    input_per_million: Fraction = Fraction(0)
    output_per_million: Fraction = Fraction(0)
    currency: str = "USD"
