"""Cross-run diffs: is this run's per-stage time surprising?

:func:`diff_stage_seconds` / :class:`RunDiff` compare a run's per-stage
engine seconds (:func:`~repro.obs.analyze.trace_stage_seconds`) against
the ledger's other runs of the same pipeline and store key
(:mod:`repro.sched.ledger`) — the same measure on both sides.  The
regression threshold is **robust**: a stage regresses when it exceeds
``median + max(k·1.4826·MAD, DEFAULT_REL_FLOOR·median,
DEFAULT_ABS_FLOOR)`` of the history (:func:`regression_limit`), so one
slow outlier run widens nothing and microsecond stages never flag on
jitter.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.analyze import median_mad

__all__ = [
    "StageDiff",
    "RunDiff",
    "regression_limit",
    "diff_stage_seconds",
]

#: robustness knobs for the regression gate: the limit sits MAD_THRESHOLD
#: robust sigmas above the median, and never closer to it than the floors
MAD_THRESHOLD = 3.0
DEFAULT_REL_FLOOR = 0.25
DEFAULT_ABS_FLOOR = 0.005

#: 1.4826 scales MAD to the standard deviation of a normal distribution,
#: so "k MADs" reads like "k sigmas" for well-behaved timings
_MAD_SIGMA = 1.4826


def regression_limit(history: Sequence[float]) -> Tuple[float, float]:
    """(robust centre, regression limit) for a history of measurements.

    The limit is ``median + max(k·1.4826·MAD, DEFAULT_REL_FLOOR·median,
    DEFAULT_ABS_FLOOR)``.  With a single observation the MAD term is
    zero and only the floors remain.
    """
    center, mad = median_mad(history)
    band = max(MAD_THRESHOLD * _MAD_SIGMA * mad, DEFAULT_REL_FLOOR * center, DEFAULT_ABS_FLOOR)
    return center, center + band


@dataclasses.dataclass(frozen=True)
class StageDiff:
    """One stage's current figure against its history."""

    stage: str
    current: Optional[float]
    baseline: Optional[float]
    limit: float
    n_history: int
    #: "ok" | "regressed" | "improved" | "new" | "missing"
    verdict: str

    @property
    def ratio(self) -> float:
        if self.current is None or not self.baseline:
            return 0.0
        return self.current / self.baseline

    def to_dict(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "current": round(self.current, 6) if self.current is not None else None,
            "baseline": round(self.baseline, 6) if self.baseline is not None else None,
            "limit": round(self.limit, 6),
            "n_history": self.n_history,
            "verdict": self.verdict,
        }


@dataclasses.dataclass(frozen=True)
class RunDiff:
    """A full current-vs-history comparison, renderable and JSON-stable."""

    pipeline: str
    metric: str
    baseline_label: str
    n_history: int
    stages: Tuple[StageDiff, ...]
    total_current: float = 0.0
    total_baseline: float = 0.0

    @property
    def regressions(self) -> List[StageDiff]:
        return [s for s in self.stages if s.verdict == "regressed"]

    @property
    def regressed(self) -> bool:
        return bool(self.regressions)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pipeline": self.pipeline,
            "metric": self.metric,
            "baseline": self.baseline_label,
            "n_history": self.n_history,
            "total_current": round(self.total_current, 6),
            "total_baseline": round(self.total_baseline, 6),
            "regressed": self.regressed,
            "stages": [s.to_dict() for s in self.stages],
        }

    def render_table(self) -> str:
        from repro.core.report import render_table

        rows = []
        for s in self.stages:
            rows.append(
                (
                    s.stage,
                    f"{s.current:.4f}" if s.current is not None else "-",
                    f"{s.baseline:.4f}" if s.baseline is not None else "-",
                    f"{s.limit:.4f}" if s.baseline is not None else "-",
                    f"{s.ratio:.2f}x" if s.ratio else "-",
                    s.verdict,
                )
            )
        return render_table(
            ["stage", "current", "baseline", "limit", "ratio", "verdict"],
            rows,
            align_right=[False, True, True, True, True, False],
        )

    def summary(self) -> str:
        n_reg = len(self.regressions)
        verdict = (
            f"{n_reg} stage(s) REGRESSED" if n_reg else "no regressions"
        )
        return (
            f"{self.pipeline} {self.metric} vs {self.baseline_label} "
            f"({self.n_history} baseline run(s)): {verdict}"
        )


def diff_stage_seconds(
    current: Mapping[str, float],
    history: Sequence[Mapping[str, float]],
    *,
    pipeline: str = "",
    baseline_label: str = "history",
) -> RunDiff:
    """Compare one run's per-stage figures against a history of runs.

    Stages present only in *current* are ``new``; stages the history has
    but the run lacks are ``missing``; the rest are judged against the
    robust limit from :func:`regression_limit`: more seconds than the
    limit regress, fewer than its mirror below the centre improve.
    """
    stage_names = sorted(
        set(current) | {name for h in history for name in h}
    )
    rows: List[StageDiff] = []
    for name in stage_names:
        values = [float(h[name]) for h in history if name in h]
        cur = float(current[name]) if name in current else None
        if cur is None:
            rows.append(
                StageDiff(
                    stage=name,
                    current=None,
                    baseline=median_mad(values)[0] if values else None,
                    limit=0.0,
                    n_history=len(values),
                    verdict="missing",
                )
            )
            continue
        if not values:
            rows.append(
                StageDiff(
                    stage=name, current=cur, baseline=None, limit=0.0,
                    n_history=0, verdict="new",
                )
            )
            continue
        center, limit = regression_limit(values)
        band = limit - center
        if cur > limit:
            verdict = "regressed"
        elif cur < center - band:
            verdict = "improved"
        else:
            verdict = "ok"
        rows.append(
            StageDiff(
                stage=name,
                current=cur,
                baseline=center,
                limit=limit,
                n_history=len(values),
                verdict=verdict,
            )
        )
    return RunDiff(
        pipeline=pipeline,
        metric="stage_seconds",
        baseline_label=baseline_label,
        n_history=len(history),
        stages=tuple(rows),
        total_current=sum(float(v) for v in current.values()),
        total_baseline=sum(
            median_mad([float(h[n]) for h in history if n in h])[0]
            for n in stage_names
            if any(n in h for h in history)
        ),
    )

