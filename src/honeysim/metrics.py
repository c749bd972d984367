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
import itertools
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .catalog import COMMON_TARGETS, AttackStage

SCORE_MODE_SETS = "cumulative_sets"
SCORE_MODE_CURRENT = "current_stage"
SCORE_MODES = (SCORE_MODE_SETS, SCORE_MODE_CURRENT)
# the scores table's columns before its one column per policy label
SCORE_COORDINATES = ("deployment", "persistence")


def exploitation_achieved(rec: dict) -> bool:
    """True when the attacker's objective stage shows up in the final ground truth."""
    epochs = rec["epochs"]
    return bool(epochs) and rec["objective_stage"] in epochs[-1]["gt_stages"]


def inference_score(rec: dict, mode: str = SCORE_MODE_SETS) -> tuple[int, int, int, float]:
    """Accumulate (tp, fp, fn) across epochs and return them with the score."""
    if mode == SCORE_MODE_SETS:
        tp, fp, fn = _set_counts(rec["epochs"])
    elif mode == SCORE_MODE_CURRENT:
        tp, fp, fn = _current_stage_counts(rec["epochs"])
    else:
        raise ValueError(f"unknown score mode {mode!r}")
    return tp, fp, fn, score_from_counts(tp, fp, fn)


def _set_counts(epochs: list) -> tuple[int, int, int]:
    """Each epoch's predicted stage set against its completed stage set."""
    tp = fp = fn = 0
    for epoch in epochs:
        gt = set(epoch["gt_stages"])
        pred = set(epoch["prediction"])
        hits = len(pred & gt)
        tp += hits
        fp += len(pred) - hits
        fn += len(gt) - hits
    return tp, fp, fn


def _current_stage_counts(epochs: list) -> tuple[int, int, int]:
    """Each epoch's furthest predicted stage against its furthest completed stage; None when a set is empty."""
    tp = fp = fn = 0
    for epoch in epochs:
        gt_top = max(epoch["gt_stages"], key=AttackStage.from_label, default=None)
        pred_top = max(epoch["prediction"], key=AttackStage.from_label, default=None)
        if gt_top == pred_top:
            tp += gt_top is not None  # two empty sets agree without counting
        else:
            fp += pred_top is not None
            fn += gt_top is not None
    return tp, fp, fn


def score_from_counts(tp: int, fp: int, fn: int) -> float:
    denominator = tp + fp + fn
    if denominator == 0:
        return 1.0
    return tp / denominator


@dataclass(frozen=True)
class RunMetrics:
    """One run reduced to what the summary tables need; it keeps no episode record."""

    policy: str
    deployment: str
    persistence: str
    exploitation: bool
    score: float

    @property
    def records(self) -> tuple:
        # perfbench/tracer.py counts len(run.records) for every run passed to
        # harness.write_summaries; a reduced run holds none, so it counts 0
        return ()


def _mean(values: Iterable[float]) -> float:
    """The mean of ``values``, the float ``statistics.mean`` gives; ValueError when there are none.

    Each float is an integer over a power of two, so the numerators scaled to
    the largest denominator sum exactly as ints, and one int true division
    rounds the mean once, correctly. ``statistics.mean`` sums in Fractions.
    """
    ratios = [value.as_integer_ratio() for value in values]
    if not ratios:
        raise ValueError("no values to average")
    denominator = max([d for _, d in ratios])
    return sum([n * (denominator // d) for n, d in ratios]) / (len(ratios) * denominator)


def run_metrics(cell, records: Sequence[dict], mode: str = SCORE_MODE_SETS) -> RunMetrics:
    """Reduce one cell's run to comparable numbers over the common attackers.

    ``cell`` gives the run's ``policy`` label, ``deployment`` and
    ``persistence``, as a ``harness.CellSpec`` does. ``records`` are its
    episodes as mappings with the keys of their ``episodes.jsonl`` lines:
    built by the epoch loop in a run, decoded from the log in a replay; both
    score the same. A run counts as exploitation-achieved only if every
    common attacker completed its chain; the run score is the mean of their
    episode scores. Custom deployments without common attackers fall back to
    all episodes.
    """
    common = [r for r in records if r["target_service"] in COMMON_TARGETS] or records
    return RunMetrics(
        policy=cell.policy,
        deployment=cell.deployment,
        persistence=cell.persistence,
        exploitation=all(map(exploitation_achieved, common)),
        score=_mean(inference_score(r, mode)[3] for r in common),
    )


def success_cell(achieved: int, total: int) -> str:
    pct = round(100 * achieved / total)
    return f"{achieved}/{total} ({pct}%)"


def score_cell(scores: Sequence[float]) -> str:
    mean = 100.0 * _mean(scores)
    # population std: cells pool few repeats, not a sample of a larger design
    std = 100.0 * statistics.pstdev(scores)
    return f"{mean:.1f} ± {std:.1f}"


@dataclass(frozen=True)
class SummaryTables:
    """The reduced runs of each (policy, deployment, persistence) cell, and the order of each axis."""

    cells: dict[tuple[str, str, str], list[RunMetrics]]
    policies: Sequence[str]
    deployments: Sequence[str]
    modes: Sequence[str]

    def files(self) -> list[tuple[str, str]]:
        """Each summary file's name and text; the one place that names them."""
        files = []
        for index, axis, order in ((1, "deployment", self.deployments), (2, "persistence", self.modes)):
            rows = []
            for policy, value in itertools.product(self.policies, order):
                # the policy's runs at this value of the axis, pooled over the other axis
                cell = [m.exploitation for key, runs in self.cells.items() for m in runs
                        if key[0] == policy and key[index] == value]
                if cell:
                    rows.append([policy, value, sum(cell), len(cell), success_cell(sum(cell), len(cell))])
            files.append((
                f"summary_success_by_{axis}.csv",
                _csv(["policy", axis, "achieved", "total", "exploitation_achieved"], rows),
            ))
            files.append((
                f"summary_success_by_{axis}.txt",
                _text(
                    f"Exploitation success by {axis}",
                    ["policy", axis, "exploitation achieved"],
                    [[policy, value, text] for policy, value, _, _, text in rows],
                ),
            ))
        scores = []
        for deployment, mode in itertools.product(self.deployments, self.modes):
            cells = [self.cells[policy, deployment, mode] for policy in self.policies]
            if any(cells):
                texts = (score_cell([m.score for m in runs]) if runs else "-" for runs in cells)
                scores.append([deployment, mode, *texts])
        header = [*SCORE_COORDINATES, *self.policies]
        files.append(("summary_scores.csv", _csv(header, scores)))
        files.append(("summary_scores.txt", _text("Stage-inference score (mean ± std over seeds)", header, scores)))
        return files


def aggregate(
    metrics: Sequence[RunMetrics], *, policies: Sequence[str], deployments: Sequence[str], modes: Sequence[str]
) -> SummaryTables:
    """Group reduced runs by cell, the tables' rows and columns in the given axis orders.

    Each run arrives already reduced by ``run_metrics``, which applies the
    score mode, so memory grows with the number of runs, not their episodes.
    A run off the axes is a ValueError.
    """
    if not metrics:
        raise ValueError("no run metrics to aggregate")
    cells: dict[tuple[str, str, str], list[RunMetrics]] = {
        key: [] for key in itertools.product(policies, deployments, modes)
    }
    for m in metrics:
        try:
            cells[m.policy, m.deployment, m.persistence].append(m)
        except KeyError:
            raise ValueError(f"run {m.policy}/{m.deployment}/{m.persistence} is off the axes") from None
    return SummaryTables(cells, policies, deployments, modes)


# ---------------------------------------------------------------------------
# Emitters
# ---------------------------------------------------------------------------


def _csv(header: list, rows: Iterable[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def _text(title: str, header: list[str], rows: list[list[str]]) -> str:
    """``title`` over the table, each column padded to its widest cell."""
    table = [header, *rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return title + "\n" + "\n".join(lines) + "\n"
