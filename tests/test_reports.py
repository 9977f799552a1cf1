"""Report rendering and the exact score records."""

from fractions import Fraction

from graphcrew.evaluation import (
    InstanceScore,
    PriceConfig,
    aggregate_scores,
    cost_report,
    overall_summary,
    render_accuracy_table,
    render_cost_table,
    scores_to_records,
)


def _score(ident, ptype, nodes, result, failed=False):
    nodes = Fraction(nodes)
    result = Fraction(result)
    return InstanceScore(
        instance_id=ident,
        problem_type=ptype,
        acc_nodes=nodes,
        acc_result=result,
        acc_all=(nodes + result) / 2,
        failure_reason="it broke" if failed else None,
    )


SCORES = [
    _score("a", "tsp", 1, 1),
    _score("b", "tsp", 0, 1),
    _score("c", "shortest_path", 0, 0, failed=True),
]


class TestAccuracyTable:
    def test_columns_and_rows(self):
        table = render_accuracy_table(
            aggregate_scores(SCORES), overall_summary(SCORES)
        )
        lines = table.splitlines()
        assert lines[0].split() == [
            "task", "instances", "acc_all", "acc_nodes", "acc_result", "error_rate",
        ]
        assert any(line.startswith("tsp") and "75.0%" in line for line in lines)
        assert any(line.startswith("shortest_path") and "100.0%" in line for line in lines)
        assert lines[-1].startswith("overall")

    def test_overall_row_optional(self):
        table = render_accuracy_table(aggregate_scores(SCORES))
        assert "overall" not in table


class TestCostTable:
    def test_total_row_present(self):
        prices = PriceConfig(Fraction("0.15"), Fraction("0.60"))
        report = cost_report([("direct", 1000, 100)], prices)
        table = render_cost_table(report)
        assert table.splitlines()[-1].startswith("total")
        assert "$0.000210" in table

    def test_non_dollar_currency_labelled(self):
        report = cost_report([("direct", 10, 1)], PriceConfig(Fraction(1), Fraction(1), "EUR"))
        assert "EUR" in render_cost_table(report)


class TestScoreRecords:
    def test_records_keep_fractions_exact(self):
        half = _score("x", "tsp", 1, 0)
        record = scores_to_records([half])[0]
        assert record == {
            "id": "x",
            "problem_type": "tsp",
            "acc_nodes": "1",
            "acc_result": "0",
            "acc_all": "1/2",
        }

    def test_failure_reason_only_when_present(self):
        records = scores_to_records(SCORES)
        assert "failure_reason" not in records[0]
        assert records[2]["failure_reason"] == "it broke"
