"""Run history: a content-addressed archive of runs, and cross-run diffs.

Readiness evidence should be *derived from recorded measurements, not
asserted* — and so should performance evidence.  This module gives every
run a durable, comparable identity:

* :class:`RunArchive` — a ``runs/`` root holding one directory per
  archived run, **content-addressed** by the hash of the run's record
  (its trace analysis, manifest identity, schedule decision, and
  readiness certificate), plus an append-only ``index.jsonl``.
  Archiving the same run twice is idempotent; two identical runs (same
  trace bytes) collapse to one entry.
* :func:`diff_stage_seconds` / :class:`RunDiff` — compare a run's
  per-stage figures against the N previous runs of the same pipeline,
  or against a committed ``BENCH_*.json`` baseline.  The regression
  threshold is **robust**: a stage regresses when it exceeds
  ``median + max(k·1.4826·MAD, rel_floor·median, abs_floor)`` of the
  history, so one slow outlier run widens nothing and microsecond
  stages never flag on jitter.  With a single-sample history (a BENCH
  file) the MAD term vanishes and the gate degrades exactly to the
  classic ``tolerance % + noise floor`` rule the CI bench gate has
  always used — the CI gate and this diff are now literally one
  codepath (:func:`regression_limit`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.durability.atomic import append_jsonl_durable, atomic_write_text
from repro.obs.analyze import TraceReport, analyze_trace, median_mad
from repro.obs.sinks import read_jsonl, read_trace, write_jsonl

__all__ = [
    "RUN_RECORD_SCHEMA",
    "RUNS_INDEX_NAME",
    "RECORD_NAME",
    "RunRecord",
    "RunArchive",
    "StageDiff",
    "RunDiff",
    "regression_limit",
    "diff_stage_seconds",
    "load_baseline_stages",
]

#: bump when the archived record's shape changes
RUN_RECORD_SCHEMA = 1

RUNS_INDEX_NAME = "index.jsonl"
RECORD_NAME = "record.json"
TRACE_SUBDIR = "trace"

#: default robustness knobs for the regression gate
DEFAULT_MAD_THRESHOLD = 3.0
DEFAULT_REL_FLOOR = 0.25
DEFAULT_ABS_FLOOR = 0.005

#: 1.4826 scales MAD to the standard deviation of a normal distribution,
#: so "k MADs" reads like "k sigmas" for well-behaved timings
_MAD_SIGMA = 1.4826


# ---------------------------------------------------------------------------
# the archived record
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One archived run: identity, headline figures, and linked artifacts."""

    run_id: str
    pipeline: str
    backend: str
    status: str
    total_wall_s: float
    #: stage name -> wall seconds / items-per-second / peak RSS bytes
    stage_seconds: Dict[str, float]
    stage_items_per_s: Dict[str, float]
    stage_max_rss_bytes: Dict[str, int]
    #: the full trace analysis this record was derived from
    report: Dict[str, Any]
    #: sha256 of the shard manifest JSON ("" when the run shipped none)
    manifest_fingerprint: str = ""
    schedule: Optional[Dict[str, Any]] = None
    certificate: Optional[Dict[str, Any]] = None
    #: free-form caller labels (seed, workdir); excluded from the run_id
    labels: Dict[str, str] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": RUN_RECORD_SCHEMA,
            "run_id": self.run_id,
            "pipeline": self.pipeline,
            "backend": self.backend,
            "status": self.status,
            "total_wall_s": self.total_wall_s,
            "stage_seconds": dict(self.stage_seconds),
            "stage_items_per_s": dict(self.stage_items_per_s),
            "stage_max_rss_bytes": dict(self.stage_max_rss_bytes),
            "report": self.report,
            "manifest_fingerprint": self.manifest_fingerprint,
            "schedule": self.schedule,
            "certificate": self.certificate,
            "labels": dict(self.labels),
        }

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(row.get("run_id", "")),
            pipeline=str(row.get("pipeline", "")),
            backend=str(row.get("backend", "")),
            status=str(row.get("status", "")),
            total_wall_s=float(row.get("total_wall_s", 0.0)),
            stage_seconds={
                str(k): float(v)
                for k, v in (row.get("stage_seconds") or {}).items()
            },
            stage_items_per_s={
                str(k): float(v)
                for k, v in (row.get("stage_items_per_s") or {}).items()
            },
            stage_max_rss_bytes={
                str(k): int(v)
                for k, v in (row.get("stage_max_rss_bytes") or {}).items()
            },
            report=dict(row.get("report") or {}),
            manifest_fingerprint=str(row.get("manifest_fingerprint", "")),
            schedule=dict(row["schedule"]) if row.get("schedule") else None,
            certificate=dict(row["certificate"]) if row.get("certificate") else None,
            labels={str(k): str(v) for k, v in (row.get("labels") or {}).items()},
        )


def _record_hash(record: Mapping[str, Any]) -> str:
    """Content address of a record (run_id and labels excluded)."""
    body = {k: v for k, v in record.items() if k not in ("run_id", "labels")}
    encoded = json.dumps(body, sort_keys=True, default=str).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def manifest_fingerprint(manifest: Any) -> str:
    """sha256 of a shard manifest's canonical JSON ("" for None)."""
    if manifest is None:
        return ""
    if hasattr(manifest, "to_json"):
        text = manifest.to_json()
    else:
        text = json.dumps(manifest, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RunArchive:
    """Content-addressed run storage under one ``runs/`` root.

    Layout::

        <root>/index.jsonl                  # append-only, one line per run
        <root>/<run_id>/record.json         # the full RunRecord
        <root>/<run_id>/trace/*.jsonl       # a copy of the trace directory

    ``run_id`` is the first 16 hex chars of the record's content hash, so
    re-archiving an identical run is a no-op and the index never holds
    duplicates.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    @property
    def index_path(self) -> Path:
        return self.root / RUNS_INDEX_NAME

    def run_dir(self, run_id: str) -> Path:
        return self.root / run_id

    # -- writing -----------------------------------------------------------------
    def archive(
        self,
        trace: Union[str, Path, Mapping[str, Sequence[Mapping[str, Any]]]],
        *,
        manifest: Any = None,
        schedule: Optional[Mapping[str, Any]] = None,
        certificate: Optional[Mapping[str, Any]] = None,
        labels: Optional[Mapping[str, str]] = None,
        report: Optional[TraceReport] = None,
    ) -> RunRecord:
        """Index one run; returns its (possibly pre-existing) record.

        *trace* is a trace directory (copied into the archive) or a
        pre-read trace dict (written into the archive as fresh JSONL).
        """
        trace_dir: Optional[Path] = None
        if isinstance(trace, (str, Path)):
            trace_dir = Path(trace)
            trace = read_trace(trace_dir)
        if report is None:
            report = analyze_trace(trace)
        report_dict = report.to_dict()
        stage_items_per_s = {
            r.stage: round(r.items_per_s, 6) for r in report.stages
        }
        stage_max_rss = {r.stage: r.max_rss_bytes for r in report.stages}
        body: Dict[str, Any] = {
            "schema": RUN_RECORD_SCHEMA,
            "pipeline": report.pipeline,
            "backend": report.backend,
            "status": report.status,
            "total_wall_s": round(report.total_wall_s, 6),
            "stage_seconds": {k: round(v, 6) for k, v in report.stage_seconds.items()},
            "stage_items_per_s": stage_items_per_s,
            "stage_max_rss_bytes": stage_max_rss,
            "report": report_dict,
            "manifest_fingerprint": manifest_fingerprint(manifest),
            "schedule": dict(schedule) if schedule is not None else None,
            "certificate": dict(certificate) if certificate is not None else None,
        }
        run_id = _record_hash(body)[:16]
        body["run_id"] = run_id
        body["labels"] = {str(k): str(v) for k, v in (labels or {}).items()}
        record = RunRecord.from_dict(body)

        run_dir = self.run_dir(run_id)
        if not (run_dir / RECORD_NAME).exists():
            run_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                run_dir / RECORD_NAME,
                json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n",
                site="run-record",
            )
            trace_out = run_dir / TRACE_SUBDIR
            if trace_dir is not None and trace_dir.is_dir():
                trace_out.mkdir(parents=True, exist_ok=True)
                for path in sorted(trace_dir.glob("*.jsonl")):
                    shutil.copyfile(path, trace_out / path.name)
            else:
                for kind, name in (
                    ("spans", "spans.jsonl"),
                    ("metrics", "metrics.jsonl"),
                    ("events", "events.jsonl"),
                ):
                    rows = list(trace.get(kind, ()))
                    if rows:
                        write_jsonl(trace_out / name, rows)
        if run_id not in {r.run_id for r in self.records()}:
            index_row = {
                "run_id": run_id,
                "pipeline": record.pipeline,
                "backend": record.backend,
                "status": record.status,
                "total_wall_s": record.total_wall_s,
            }
            # durable append: heals any torn tail a crashed archival left,
            # then fsyncs — concurrent archivers each land a whole line
            append_jsonl_durable(self.index_path, [index_row], site="run-index")
        return record

    # -- reading -----------------------------------------------------------------
    def records(self, pipeline: Optional[str] = None) -> List[RunRecord]:
        """All archived runs in index (archival) order, oldest first."""
        out: List[RunRecord] = []
        seen = set()
        for row in read_jsonl(self.index_path):
            run_id = str(row.get("run_id", ""))
            if not run_id or run_id in seen:
                continue
            seen.add(run_id)
            record_path = self.run_dir(run_id) / RECORD_NAME
            if not record_path.exists():
                continue
            try:
                record = RunRecord.from_dict(json.loads(record_path.read_text()))
            except (json.JSONDecodeError, KeyError, ValueError):
                continue
            if pipeline is None or record.pipeline == pipeline:
                out.append(record)
        return out

    def get(self, run_id_prefix: str) -> RunRecord:
        """One record by id prefix; raises KeyError when absent/ambiguous."""
        matches = [
            r for r in self.records() if r.run_id.startswith(run_id_prefix)
        ]
        if not matches:
            raise KeyError(f"no archived run matches {run_id_prefix!r}")
        if len(matches) > 1:
            ids = ", ".join(r.run_id for r in matches)
            raise KeyError(f"ambiguous run id prefix {run_id_prefix!r} ({ids})")
        return matches[0]

    def __len__(self) -> int:
        return len(self.records())


# ---------------------------------------------------------------------------
# cross-run diffing
# ---------------------------------------------------------------------------


def regression_limit(
    history: Sequence[float],
    *,
    mad_threshold: float = DEFAULT_MAD_THRESHOLD,
    rel_floor: float = DEFAULT_REL_FLOOR,
    abs_floor: float = DEFAULT_ABS_FLOOR,
) -> Tuple[float, float]:
    """(robust centre, regression limit) for a history of measurements.

    The limit is ``median + max(k·1.4826·MAD, rel_floor·median,
    abs_floor)``.  This is THE comparison codepath: the cross-run diff,
    the CI bench gate, and the calibration store's outlier rejection all
    price "is this measurement surprising?" through it.  With a single
    observation the MAD term is zero and the rule degrades exactly to
    the tolerance-plus-noise-floor gate.
    """
    center, mad = median_mad(history)
    band = max(mad_threshold * _MAD_SIGMA * mad, rel_floor * center, abs_floor)
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
    metric: str = "stage_seconds",
    baseline_label: str = "history",
    mad_threshold: float = DEFAULT_MAD_THRESHOLD,
    rel_floor: float = DEFAULT_REL_FLOOR,
    abs_floor: float = DEFAULT_ABS_FLOOR,
    higher_is_worse: bool = True,
) -> RunDiff:
    """Compare one run's per-stage figures against a history of runs.

    Stages present only in *current* are ``new``; stages the history has
    but the run lacks are ``missing``; the rest are judged against the
    robust limit from :func:`regression_limit`.  ``higher_is_worse=False``
    flips the comparison for throughput-style metrics (a *drop* below
    the mirrored limit regresses).
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
        center, limit = regression_limit(
            values,
            mad_threshold=mad_threshold,
            rel_floor=rel_floor,
            abs_floor=abs_floor,
        )
        band = limit - center
        if higher_is_worse:
            if cur > limit:
                verdict = "regressed"
            elif cur < center - band:
                verdict = "improved"
            else:
                verdict = "ok"
        else:
            if cur < center - band:
                verdict = "regressed"
            elif cur > limit:
                verdict = "improved"
            else:
                verdict = "ok"
            limit = center - band
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
        metric=metric,
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

    Accepts the three shapes the repo produces: a ``BENCH_*.json`` bench
    baseline (``stage_seconds`` at the top level), an archived run
    ``record.json``, or a serialized :class:`TraceReport` (per-stage
    ``wall_s``).  Raises :class:`ValueError` for anything else.
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
