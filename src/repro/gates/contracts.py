"""Declarative per-stage data contracts: what a payload must satisfy.

A :class:`StageContract` is the *readiness gate* the paper's maturity
bands imply but current practice never enforces: a declarative bundle of
column checks (finiteness, physical bounds, floating-point precision),
schema conformance, and drift-baseline comparisons, composed from the
existing :mod:`repro.quality` primitives.  Contracts attach to
:class:`~repro.core.plan.PipelineStage` boundaries and are enforced by
the :class:`~repro.core.runner.PipelineRunner` under a configurable
:class:`GatePolicy`.

Contracts are pure data: :meth:`StageContract.content_hash` is a stable
sha256 of the declarative parts, recorded in provenance annotations and
the shard-manifest readiness certificate, so a consumer can verify
*which* contract a dataset passed — not merely that "validation ran".
The verdict policy is deliberately excluded from the hash: how strictly
a contract is enforced is an execution concern, like retry budgets.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.quality.drift import PSI_ACT, population_stability_index
from repro.quality.validation import (
    ValidationIssue,
    bounds_flags,
    check_bounds,
    check_finite,
    check_precision,
    finite_flags,
)

__all__ = [
    "GatePolicy",
    "ColumnCheck",
    "DriftCheck",
    "StageContract",
]


class GatePolicy(enum.Enum):
    """What the runner does when a contract is violated.

    ``fail`` aborts the run at the gate; ``quarantine`` splits violating
    *records* out to the quarantine store and lets survivors continue
    (the run completes flagged degraded); ``warn`` records the verdict in
    telemetry and provenance but never blocks.
    """

    FAIL = "fail"
    QUARANTINE = "quarantine"
    WARN = "warn"

    @classmethod
    def coerce(cls, value: "GatePolicy | str | None") -> "GatePolicy":
        """Accept a member, its value string, or None (-> FAIL)."""
        if value is None:
            return cls.FAIL
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            choices = ", ".join(m.value for m in cls)
            raise ValueError(
                f"unknown gate policy {value!r}; expected one of: {choices}"
            ) from None


@dataclasses.dataclass(frozen=True)
class ColumnCheck:
    """One declarative per-column constraint.

    ``kind`` selects the :mod:`repro.quality.validation` primitive:
    ``finite`` (NaN/Inf are errors), ``bounds`` (physical range
    ``[lo, hi]``), or ``precision`` (floating width >= ``minimum_bits``,
    advisory).  ``required=False`` makes a missing field a non-issue —
    for heterogeneous record streams where some sources legitimately
    lack a channel.  ``scope`` decides the unit of blame: ``record``
    checks (and can quarantine) each record independently; ``payload``
    checks the whole payload at once and can only warn or fail.
    """

    kind: str
    column: str
    lo: Optional[float] = None
    hi: Optional[float] = None
    minimum_bits: int = 32
    required: bool = True
    scope: str = "record"

    _KINDS = ("finite", "bounds", "precision")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown check kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind == "bounds" and (self.lo is None or self.hi is None):
            raise ValueError(f"bounds check on {self.column!r} needs lo and hi")
        if self.scope not in ("record", "payload"):
            raise ValueError(f"scope must be 'record' or 'payload', got {self.scope!r}")

    def run(self, values: Any) -> List[ValidationIssue]:
        """Apply the underlying quality primitive to resolved values."""
        values = np.asarray(values)
        if self.kind == "finite":
            return check_finite(values, self.column)
        if self.kind == "bounds":
            return check_bounds(values, float(self.lo), float(self.hi), self.column)
        return check_precision(values, self.minimum_bits, self.column)

    def flag_rows(self, column: np.ndarray) -> Optional[np.ndarray]:
        """Per row of a whole *column*: can :meth:`run` on that row find an
        issue?  From one pass over the column; None when it cannot tell
        (a ``precision`` check, or a dtype whose rows differ)."""
        if self.kind == "finite":
            return finite_flags(column)
        if self.kind == "bounds":
            return bounds_flags(column, float(self.lo), float(self.hi))
        return None

    def to_blob(self) -> dict:
        """Deterministic JSON-able identity (feeds the contract hash)."""
        blob: dict = {
            "kind": self.kind,
            "column": self.column,
            "required": self.required,
            "scope": self.scope,
        }
        if self.kind == "bounds":
            blob["lo"] = float(self.lo)
            blob["hi"] = float(self.hi)
        if self.kind == "precision":
            blob["minimum_bits"] = int(self.minimum_bits)
        return blob


@dataclasses.dataclass(frozen=True)
class DriftCheck:
    """Advisory drift comparison against a frozen baseline sample.

    Computes the population stability index of the payload column
    against ``baseline`` (see :mod:`repro.quality.drift`); a PSI above
    ``threshold`` yields an issue at ``severity`` (default ``warning`` —
    drift is a refit signal, not a record defect, so it never
    quarantines individual records).  Always payload-scope.
    """

    column: str
    baseline: Tuple[float, ...]
    threshold: float = PSI_ACT
    severity: str = "warning"

    def run(self, values: Any) -> List[ValidationIssue]:
        # mask in the column's own dtype; the PSI makes the one float64 copy
        values = np.asarray(values).ravel()
        psi = population_stability_index(np.asarray(self.baseline), values[np.isfinite(values)])
        if psi > self.threshold:
            return [
                ValidationIssue(
                    check="drift",
                    column=self.column,
                    severity=self.severity,
                    message=f"PSI {psi:.4f} above threshold {self.threshold}",
                )
            ]
        return []

    def to_blob(self) -> dict:
        return {
            "column": self.column,
            "baseline_sha256": hashlib.sha256(
                json.dumps([float(x) for x in self.baseline]).encode()
            ).hexdigest(),
            "threshold": float(self.threshold),
            "severity": self.severity,
        }


@dataclasses.dataclass(frozen=True)
class StageContract:
    """The data contract one stage boundary must satisfy.

    ``checks`` are per-column constraints; ``drift`` are advisory
    baseline comparisons; ``validate_schema=True`` additionally runs
    full schema conformance when the payload is a
    :class:`~repro.core.dataset.Dataset`.  ``policy`` optionally
    overrides the runner's gate policy for this contract alone.
    """

    name: str
    checks: Tuple[ColumnCheck, ...] = ()
    drift: Tuple[DriftCheck, ...] = ()
    validate_schema: bool = False
    policy: Optional[GatePolicy] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "checks", tuple(self.checks))
        object.__setattr__(self, "drift", tuple(self.drift))
        if self.policy is not None:
            object.__setattr__(self, "policy", GatePolicy.coerce(self.policy))

    @property
    def record_checks(self) -> Tuple[ColumnCheck, ...]:
        return tuple(c for c in self.checks if c.scope == "record")

    @property
    def payload_checks(self) -> Tuple[ColumnCheck, ...]:
        return tuple(c for c in self.checks if c.scope == "payload")

    def content_hash(self) -> str:
        """Stable identity of the declarative contract (policy excluded)."""
        blob = {
            "name": self.name,
            "checks": [c.to_blob() for c in self.checks],
            "drift": [d.to_blob() for d in self.drift],
            "validate_schema": self.validate_schema,
        }
        encoded = json.dumps(blob, sort_keys=True).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()

    def describe(self) -> str:
        parts = [f"{c.kind}({c.column})" for c in self.checks]
        parts += [f"drift({d.column})" for d in self.drift]
        if self.validate_schema:
            parts.append("schema")
        return f"{self.name}: " + ", ".join(parts)
