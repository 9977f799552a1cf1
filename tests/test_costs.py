"""Cost accounting is exact rational arithmetic, no tolerance."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from graphcrew.evaluation import PriceConfig, cost_report, price_of

from oracles import exact_price

RATES = PriceConfig(Fraction("0.15"), Fraction("0.60"))


class TestPriceOf:
    def test_matches_oracle(self):
        assert price_of(100, 50, RATES) == exact_price(
            100, 50, Fraction("0.15"), Fraction("0.60")
        )

    def test_known_hand_value(self):
        # 100 in at $0.15/M plus 50 out at $0.60/M is $0.000045
        assert price_of(100, 50, RATES) == Fraction(45, 1_000_000)

    def test_published_rate_example(self):
        # 13.32k input and 4.56k output tokens at these rates cost $0.004734
        price = price_of(13_320, 4_560, RATES)
        assert price == Fraction(2367, 500_000)
        assert float(price) == 0.004734

    def test_zero_tokens_zero_price(self):
        assert price_of(0, 0, RATES) == 0

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_always_equals_oracle(self, ins, outs):
        assert price_of(ins, outs, RATES) == exact_price(
            ins, outs, Fraction("0.15"), Fraction("0.60")
        )


class TestCostReport:
    def test_default_prices_are_zero(self):
        assert price_of(10**6, 10**6, PriceConfig()) == 0

    def test_stage_totals_sum_to_the_total(self):
        calls = [("extract_graph", 100, 10), ("classify", 200, 20),
                 ("extract_graph", 50, 5), ("audit", 10, 1)]
        report = cost_report(calls, RATES)
        assert [s.stage for s in report.stages] == ["extract_graph", "classify", "audit"]
        assert report.total.input_tokens == sum(
            s.input_tokens for s in report.stages
        ) == 360
        assert report.total.output_tokens == 36
        assert report.total.price == sum((s.price for s in report.stages), Fraction(0))

    def test_retries_counted_as_separate_calls(self):
        report = cost_report([("classify", 10, 1), ("classify", 12, 2)], RATES)
        assert report.total.calls == 2
        assert report.stages[0].calls == 2

    def test_disjoint_trails_costs_add(self):
        a = [("extract_graph", 123, 45)]
        b = [("select", 67, 8), ("audit", 9, 10)]
        combined = cost_report(a + b, RATES)
        assert combined.total.price == (
            cost_report(a, RATES).total.price + cost_report(b, RATES).total.price
        )

    def test_empty_trails_zero_cost(self):
        report = cost_report([], RATES)
        assert report.total.calls == 0
        assert report.total.price == 0
        assert report.stages == ()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["extract_graph", "classify", "select"]),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=0, max_value=10_000),
            ),
            max_size=20,
        )
    )
    def test_total_price_equals_oracle_on_totals(self, calls):
        report = cost_report(calls, RATES)
        total_in = sum(ins for _, ins, _ in calls)
        total_out = sum(outs for _, _, outs in calls)
        assert report.total.price == exact_price(
            total_in, total_out, Fraction("0.15"), Fraction("0.60")
        )
