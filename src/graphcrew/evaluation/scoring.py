"""Instance scoring: half for the node set, half for the value.

A prediction earns its result point by stating the true objective value
exactly, and its node point by presenting a payload that is structurally
valid on the hidden graph and whose own objective matches the optimum.
The node point and the truth check below come from one
:func:`verify_solution` call, whose report carries the objective the
payload itself implies (None when its structure is broken).  Measured,
not quoted: a payload cannot vouch for itself, so
the stated objective is ignored when judging the node set.  Any optimal
payload is accepted, since optima are rarely unique.

Boolean tasks have no node set; their composite score is the result
score, and the node score mirrors it so both composition rules hold.

Every other family minimises, so a valid payload whose own
objective is below the stored optimum proves the stored optimum wrong;
scoring refuses it rather than marking the answer wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..graph import Graph, Weight, format_weight
from ..problems import BOOLEAN, KIND_BY_PROBLEM, check_problem_type
from ..solvers import KindMismatchError, Solution, verify_solution

HALF = Fraction(1, 2)


class TruthDefectError(ValueError):
    """A valid answer beats the stored optimum, so the stored optimum is wrong."""

    def __init__(self, objective: Weight, optimum: Weight):
        super().__init__(
            f"a valid answer has objective {format_weight(objective)}, "
            f"below the stored optimum {format_weight(optimum)}"
        )
        self.objective = objective
        self.optimum = optimum


@dataclass(frozen=True)
class InstanceScore:
    instance_id: str
    problem_type: str
    acc_nodes: Fraction
    acc_result: Fraction
    acc_all: Fraction
    failure_reason: str | None = None


@dataclass(frozen=True)
class TaskSummary:
    problem_type: str
    instance_count: int
    mean_acc_all: Fraction
    mean_acc_nodes: Fraction
    mean_acc_result: Fraction
    error_rate: Fraction


def score_instance(
    prediction: Solution,
    truth: Solution,
    problem_type: str,
    graph: Graph,
    source: str | None = None,
    target: str | None = None,
    instance_id: str = "",
) -> InstanceScore:
    """Score one prediction against the known best solution.

    Raises KindMismatchError when the prediction answers a different
    problem shape than the task asks for, and TruthDefectError when its
    payload is valid and beats the optimum.
    """
    check_problem_type(problem_type)
    expected_kind = KIND_BY_PROBLEM[problem_type]
    if prediction.kind != expected_kind:
        raise KindMismatchError(
            f"{problem_type} expects a {expected_kind} answer, got {prediction.kind}"
        )

    acc_result = Fraction(int(prediction.objective == truth.objective))
    if expected_kind == BOOLEAN:
        acc_nodes = acc_result
    else:
        objective = verify_solution(
            problem_type, graph, prediction, source=source, target=target
        ).objective
        if objective is not None and objective < truth.objective:
            raise TruthDefectError(objective, truth.objective)
        acc_nodes = Fraction(int(objective == truth.objective))
    acc_all = HALF * acc_nodes + HALF * acc_result

    return InstanceScore(
        instance_id=instance_id,
        problem_type=problem_type,
        acc_nodes=acc_nodes,
        acc_result=acc_result,
        acc_all=acc_all,
    )


def score_failure(instance_id: str, problem_type: str, reason: str) -> InstanceScore:
    """A pipeline or parse failure scores zero and carries its reason."""
    zero = Fraction(0)
    return InstanceScore(
        instance_id=instance_id,
        problem_type=problem_type,
        acc_nodes=zero,
        acc_result=zero,
        acc_all=zero,
        failure_reason=reason,
    )


def score_prediction(
    prediction: Solution | None,
    truth: Solution,
    problem_type: str,
    graph: Graph,
    source: str | None = None,
    target: str | None = None,
    instance_id: str = "",
    failure: str | None = None,
) -> InstanceScore:
    """Lenient front door: failures and wrong-kind answers score zero; a
    truth defect still raises."""
    if prediction is None:
        return score_failure(instance_id, problem_type, failure or "no answer produced")
    try:
        return score_instance(
            prediction, truth, problem_type, graph,
            source=source, target=target, instance_id=instance_id,
        )
    except KindMismatchError as exc:
        return score_failure(instance_id, problem_type, str(exc))


def _summarize(problem_type: str, scores: list[InstanceScore]) -> TaskSummary:
    count = len(scores)
    failures = sum(1 for s in scores if s.failure_reason is not None)
    return TaskSummary(
        problem_type=problem_type,
        instance_count=count,
        mean_acc_all=sum((s.acc_all for s in scores), Fraction(0)) / count,
        mean_acc_nodes=sum((s.acc_nodes for s in scores), Fraction(0)) / count,
        mean_acc_result=sum((s.acc_result for s in scores), Fraction(0)) / count,
        error_rate=Fraction(failures, count),
    )


def aggregate_scores(scores: list[InstanceScore]) -> dict[str, TaskSummary]:
    """Per-task summary table, tasks in sorted order."""
    if not scores:
        raise ValueError("cannot aggregate an empty score list")
    by_task: dict[str, list[InstanceScore]] = {}
    for score in scores:
        by_task.setdefault(score.problem_type, []).append(score)
    return {
        task: _summarize(task, group) for task, group in sorted(by_task.items())
    }


def overall_summary(scores: list[InstanceScore]) -> TaskSummary:
    if not scores:
        raise ValueError("cannot summarize an empty score list")
    return _summarize("all", scores)
