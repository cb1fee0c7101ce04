"""Cross-run diffs: is this run's per-stage time surprising?

:func:`diff_stage_seconds` / :class:`RunDiff` compare a run's per-stage
engine seconds (:func:`~repro.obs.analyze.trace_stage_seconds`) against
the ledger's other runs of the same pipeline (:mod:`repro.sched.ledger`)
or a committed ``BENCH_*.json`` baseline — the same measure on both
sides.  The regression threshold is **robust**: a stage regresses when
it exceeds ``median + max(k·1.4826·MAD, rel_floor·median, abs_floor)``
of the history, so one slow outlier run widens nothing and microsecond
stages never flag on jitter.  With a single-sample history (a BENCH
file) the MAD term vanishes and the gate degrades exactly to the classic
``tolerance % + noise floor`` rule the CI bench gate uses — one
codepath (:func:`regression_limit`).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.analyze import median_mad

__all__ = [
    "StageDiff",
    "RunDiff",
    "regression_limit",
    "diff_stage_seconds",
    "load_baseline_stages",
]

#: robustness knobs for the regression gate: the limit sits MAD_THRESHOLD
#: robust sigmas above the median (the floors may be overridden per call)
MAD_THRESHOLD = 3.0
DEFAULT_REL_FLOOR = 0.25
DEFAULT_ABS_FLOOR = 0.005

#: 1.4826 scales MAD to the standard deviation of a normal distribution,
#: so "k MADs" reads like "k sigmas" for well-behaved timings
_MAD_SIGMA = 1.4826


def regression_limit(
    history: Sequence[float],
    *,
    rel_floor: float = DEFAULT_REL_FLOOR,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> Tuple[float, float]:
    """(robust centre, regression limit) for a history of measurements.

    The limit is ``median + max(k·1.4826·MAD, rel_floor·median,
    abs_floor)``.  This is THE comparison codepath: the cross-run diff
    and the CI bench gate both price "is this measurement surprising?"
    through it.  With a single
    observation the MAD term is zero and the rule degrades exactly to
    the tolerance-plus-noise-floor gate.
    """
    center, mad = median_mad(history)
    band = max(MAD_THRESHOLD * _MAD_SIGMA * mad, rel_floor * center, abs_floor)
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


def load_baseline_stages(path: Union[str, Path]) -> Tuple[str, Dict[str, float]]:
    """(label, stage_seconds) from a committed baseline file.

    Accepts the two shapes the repo produces: a ``BENCH_*.json`` bench
    baseline (``stage_seconds`` at the top level) or a serialized
    :class:`TraceReport` (per-stage ``wall_s``).  Raises :class:`ValueError` for anything else.
    """
    path = Path(path)
    try:
        blob = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(f"baseline file {path} does not exist")
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline file {path} is not valid JSON ({exc})")
    if isinstance(blob, Mapping) and isinstance(blob.get("stage_seconds"), Mapping):
        stages = {str(k): float(v) for k, v in blob["stage_seconds"].items()}
    elif isinstance(blob, Mapping) and isinstance(blob.get("stages"), list):
        stages = {
            str(r.get("stage")): float(r.get("wall_s", 0.0))
            for r in blob["stages"]
            if isinstance(r, Mapping) and r.get("stage")
        }
    else:
        raise ValueError(
            f"baseline file {path} has neither 'stage_seconds' nor 'stages'"
        )
    if not stages:
        raise ValueError(f"baseline file {path} holds no stage figures")
    return path.name, stages
