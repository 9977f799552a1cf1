"""Cost accounting is exact rational arithmetic, no tolerance."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from graphcrew.agents import CallRecord, PriceConfig
from graphcrew.evaluation import RateConfig, cost_report, price_of

from oracles import exact_price

RATES = RateConfig(Fraction("0.15"), Fraction("0.60"))


def _call(stage, input_tokens, output_tokens, attempt=1):
    return CallRecord(
        stage=stage,
        attempt=attempt,
        system_prompt="s",
        user_prompt="u",
        response_text="r",
        input_tokens=input_tokens,
        output_tokens=output_tokens,
    )


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


class TestRateConfig:
    def test_from_prices_parses_strings_exactly(self):
        rates = RateConfig.from_prices(
            PriceConfig(input_per_million="0.15", output_per_million="0.60")
        )
        assert rates.input_per_million == Fraction(3, 20)
        assert rates.output_per_million == Fraction(3, 5)
        assert rates.currency == "USD"

    def test_default_prices_are_zero(self):
        rates = RateConfig.from_prices(PriceConfig())
        assert price_of(10**6, 10**6, rates) == 0


class TestCostReport:
    def test_stage_totals_sum_to_instance_totals(self):
        trails = {
            "a": [_call("extract_graph", 100, 10), _call("classify", 200, 20)],
            "b": [_call("extract_graph", 50, 5), _call("audit", 10, 1)],
        }
        report = cost_report(trails, RATES)
        assert report.total_input_tokens == sum(
            s.input_tokens for s in report.stages
        ) == sum(i.input_tokens for i in report.instances) == 360
        assert report.total_output_tokens == 36
        assert report.total_price == sum(
            (s.price for s in report.stages), Fraction(0)
        ) == sum((i.price for i in report.instances), Fraction(0))

    def test_retries_counted_as_separate_calls(self):
        trails = {"a": [_call("classify", 10, 1), _call("classify", 12, 2, attempt=2)]}
        report = cost_report(trails, RATES)
        assert report.total_calls == 2
        assert report.stages[0].calls == 2

    def test_disjoint_trails_costs_add(self):
        a = {"a": [_call("extract_graph", 123, 45)]}
        b = {"b": [_call("select", 67, 8), _call("audit", 9, 10)]}
        combined = cost_report({**a, **b}, RATES)
        assert combined.total_price == (
            cost_report(a, RATES).total_price + cost_report(b, RATES).total_price
        )

    def test_empty_trails_zero_cost(self):
        report = cost_report({}, RATES)
        assert report.total_calls == 0
        assert report.total_price == 0
        assert report.stages == ()

    @given(
        st.dictionaries(
            st.text(alphabet="ab", min_size=1, max_size=3),
            st.lists(
                st.tuples(
                    st.sampled_from(["extract_graph", "classify", "select"]),
                    st.integers(min_value=0, max_value=10_000),
                    st.integers(min_value=0, max_value=10_000),
                ),
                max_size=5,
            ),
            max_size=4,
        )
    )
    def test_total_price_equals_oracle_on_totals(self, raw):
        trails = {
            key: [_call(stage, ins, outs) for stage, ins, outs in calls]
            for key, calls in raw.items()
        }
        report = cost_report(trails, RATES)
        total_in = sum(c.input_tokens for calls in trails.values() for c in calls)
        total_out = sum(c.output_tokens for calls in trails.values() for c in calls)
        assert report.total_price == exact_price(
            total_in, total_out, Fraction("0.15"), Fraction("0.60")
        )
