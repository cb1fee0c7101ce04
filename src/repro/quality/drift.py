"""Distribution drift detection between dataset versions.

Section 2.1 makes the pipeline iterative and Section 5 asks for "feedback
loops from model evaluation" — both need a way to notice that a new data
drop no longer looks like what the normalizers and models were fitted on.
This module provides the per-feature statistic the drift gate
(:class:`repro.gates.contracts.DriftCheck`) evaluates: **PSI** (population
stability index) — the industry-standard binned divergence with the usual
0.1/0.25 watch/act thresholds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["population_stability_index"]

#: the conventional PSI threshold for acting on drift
PSI_ACT = 0.25


def population_stability_index(reference: np.ndarray, current: np.ndarray) -> float:
    """PSI over quantile bins of the reference distribution.

    Bins are the reference's deciles, so the reference is uniform across
    bins by construction; drift shows up as current-mass imbalance.
    Zero-count cells are floored at a small epsilon (the standard fix).
    """
    reference = np.asarray(reference, dtype=np.float64).ravel()
    current = np.asarray(current, dtype=np.float64).ravel()
    if reference.size < 10 or current.size == 0:
        return 0.0
    if reference.std() == 0:
        # a constant reference cannot be binned meaningfully; the mean-shift
        # statistic (not PSI) is the right detector for this case
        return 0.0
    edges = np.quantile(reference, np.linspace(0, 1, 11))
    edges[0], edges[-1] = -np.inf, np.inf
    edges = np.unique(edges)  # constant features collapse bins
    if edges.size < 3:
        return 0.0
    ref_counts, _ = np.histogram(reference, bins=edges)
    cur_counts, _ = np.histogram(current, bins=edges)
    ref_frac = np.maximum(ref_counts / reference.size, 1e-6)
    cur_frac = np.maximum(cur_counts / current.size, 1e-6)
    return float(((cur_frac - ref_frac) * np.log(cur_frac / ref_frac)).sum())
