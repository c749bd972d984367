"""Episode and run metrics: exploitation outcome and stage-inference agreement.

Per episode the inference score is TP / (TP + FP + FN), where the counts
compare the policy's predicted stage set against the ground-truth set of
completed stages, epoch by epoch, summed over the episode. The degenerate
0/0 case (nothing to predict, nothing predicted) counts as perfect agreement.

Run-level numbers only consider the attackers common to every deployment
(GitLab and Apache Struts) so cells stay comparable across configurations.
"""

from __future__ import annotations

import csv
import io
import statistics
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .catalog import AttackStage
from .engine import EpisodeRecord

COMMON_TARGETS = ("gitlab", "apache_struts")

SCORE_MODE_SETS = "cumulative_sets"
SCORE_MODE_CURRENT = "current_stage"


def exploitation_achieved(rec: EpisodeRecord) -> bool:
    """True when the attacker's objective stage shows up in the final ground truth."""
    return rec.objective_stage in rec.final_gt_stages()


def inference_score(rec: EpisodeRecord, mode: str = SCORE_MODE_SETS) -> tuple[int, int, int, float]:
    """Accumulate (tp, fp, fn) across epochs and return them with the score."""
    tp = fp = fn = 0
    for epoch in rec.epochs:
        gt = set(epoch.gt_stages)
        pred = set(epoch.prediction)
        if mode == SCORE_MODE_SETS:
            tp += len(pred & gt)
            fp += len(pred - gt)
            fn += len(gt - pred)
        elif mode == SCORE_MODE_CURRENT:
            gt_top = max(gt, key=AttackStage.from_label, default=None)
            pred_top = max(pred, key=AttackStage.from_label, default=None)
            if gt_top is None and pred_top is None:
                continue
            if gt_top == pred_top:
                tp += 1
            elif pred_top is None:
                fn += 1
            elif gt_top is None:
                fp += 1
            else:
                fp += 1
                fn += 1
        else:
            raise ValueError(f"unknown score mode {mode!r}")
    return tp, fp, fn, score_from_counts(tp, fp, fn)


def score_from_counts(tp: int, fp: int, fn: int) -> float:
    denominator = tp + fp + fn
    if denominator == 0:
        return 1.0
    return tp / denominator


@dataclass(frozen=True)
class EpisodeMetrics:
    label: str
    target_service: str
    exploitation: bool
    tp: int
    fp: int
    fn: int
    score: float


def episode_metrics(rec: EpisodeRecord, mode: str = SCORE_MODE_SETS) -> EpisodeMetrics:
    tp, fp, fn, score = inference_score(rec, mode)
    return EpisodeMetrics(
        label=rec.attacker_label,
        target_service=rec.target_service,
        exploitation=exploitation_achieved(rec),
        tp=tp,
        fp=fp,
        fn=fn,
        score=score,
    )


@dataclass(frozen=True)
class RunResult:
    """One cell execution: a policy against one deployment and persistence mode."""

    policy: str
    deployment: str
    persistence: str
    seed: int
    records: tuple[EpisodeRecord, ...]


@dataclass(frozen=True)
class RunMetrics:
    """One run reduced to what the summary tables need; it keeps no episode record."""

    policy: str
    deployment: str
    persistence: str
    seed: int
    exploitation: bool
    score: float

    @property
    def records(self) -> tuple:
        # perfbench/tracer.py counts len(run.records) for every run passed to
        # harness.write_summaries; a reduced run holds none, so it counts 0
        return ()


def run_metrics(result: RunResult, mode: str = SCORE_MODE_SETS) -> RunMetrics:
    """Reduce one run to comparable numbers over the common attackers.

    A run counts as exploitation-achieved only if every common attacker
    completed its chain; the run score is the mean of their episode scores.
    Custom deployments without common attackers fall back to all episodes.
    """
    all_eps = [episode_metrics(r, mode) for r in result.records]
    common = [e for e in all_eps if e.target_service in COMMON_TARGETS] or all_eps
    return RunMetrics(
        policy=result.policy,
        deployment=result.deployment,
        persistence=result.persistence,
        seed=result.seed,
        exploitation=all(e.exploitation for e in common),
        score=statistics.mean(e.score for e in common),
    )


def _ordered(values: Iterable[str], preferred: Optional[Sequence[str]]) -> list[str]:
    seen: list[str] = []
    for v in values:
        if v not in seen:
            seen.append(v)
    if preferred:
        head = [v for v in preferred if v in seen]
        return head + [v for v in seen if v not in head]
    return seen


def success_cell(achieved: int, total: int) -> str:
    pct = round(100 * achieved / total)
    return f"{achieved}/{total} ({pct}%)"


def score_cell(scores: Sequence[float]) -> str:
    mean = 100.0 * statistics.mean(scores)
    # population std: cells pool few repeats, not a sample of a larger design
    std = 100.0 * statistics.pstdev(scores)
    return f"{mean:.1f} ± {std:.1f}"


@dataclass
class SummaryTables:
    success_by_deployment: list[dict]
    success_by_persistence: list[dict]
    scores: list[dict]
    policy_order: list[str]


def aggregate(
    metrics: Sequence[RunMetrics],
    *,
    policies: Optional[Sequence[str]] = None,
    deployments: Optional[Sequence[str]] = None,
    modes: Optional[Sequence[str]] = None,
) -> SummaryTables:
    """Group reduced runs into the three summary tables used by the harness.

    Each run arrives already reduced by ``run_metrics``, which applies the
    score mode, so memory grows with the number of runs, not their episodes.
    """
    if not metrics:
        raise ValueError("no run metrics to aggregate")
    policy_order = _ordered((m.policy for m in metrics), policies)
    deployment_order = _ordered((m.deployment for m in metrics), deployments)
    mode_order = _ordered((m.persistence for m in metrics), modes)

    by_deployment = []
    for policy in policy_order:
        for deployment in deployment_order:
            cell = [m for m in metrics if m.policy == policy and m.deployment == deployment]
            if not cell:
                continue
            achieved = sum(1 for m in cell if m.exploitation)
            by_deployment.append(
                {
                    "policy": policy,
                    "deployment": deployment,
                    "achieved": achieved,
                    "total": len(cell),
                    "cell": success_cell(achieved, len(cell)),
                }
            )

    by_persistence = []
    for policy in policy_order:
        for mode in mode_order:
            cell = [m for m in metrics if m.policy == policy and m.persistence == mode]
            if not cell:
                continue
            achieved = sum(1 for m in cell if m.exploitation)
            by_persistence.append(
                {
                    "policy": policy,
                    "persistence": mode,
                    "achieved": achieved,
                    "total": len(cell),
                    "cell": success_cell(achieved, len(cell)),
                }
            )

    scores = []
    for deployment in deployment_order:
        for mode in mode_order:
            row: dict = {"deployment": deployment, "persistence": mode}
            any_cell = False
            for policy in policy_order:
                cell = [
                    m.score
                    for m in metrics
                    if m.policy == policy and m.deployment == deployment and m.persistence == mode
                ]
                row[policy] = score_cell(cell) if cell else "-"
                any_cell = any_cell or bool(cell)
            if any_cell:
                scores.append(row)

    return SummaryTables(
        success_by_deployment=by_deployment,
        success_by_persistence=by_persistence,
        scores=scores,
        policy_order=policy_order,
    )


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def success_csv(rows: list[dict], axis: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["policy", axis, "achieved", "total", "exploitation_achieved"])
    for row in rows:
        writer.writerow([row["policy"], row[axis], row["achieved"], row["total"], row["cell"]])
    return buf.getvalue()


def scores_csv(rows: list[dict], policy_order: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["deployment", "persistence", *policy_order])
    for row in rows:
        writer.writerow([row["deployment"], row["persistence"], *(row[p] for p in policy_order)])
    return buf.getvalue()


def _aligned(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def success_text(rows: list[dict], axis: str, title: str) -> str:
    table = [["policy", axis, "exploitation achieved"]]
    for row in rows:
        table.append([row["policy"], row[axis], row["cell"]])
    return f"{title}\n{_aligned(table)}"


def scores_text(rows: list[dict], policy_order: Sequence[str], title: str) -> str:
    table = [["deployment", "persistence", *policy_order]]
    for row in rows:
        table.append([row["deployment"], row["persistence"], *(row[p] for p in policy_order)])
    return f"{title}\n{_aligned(table)}"
