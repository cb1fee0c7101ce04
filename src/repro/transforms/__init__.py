"""Shared preprocessing transforms implementing the Figure 1 steps:
cleaning, normalization, encoding, augmentation, labeling, feature
engineering, splitting, temporal alignment, and spatial regridding.
"""

from repro.transforms.cleaning import (
    CleaningReport,
    clean_dataset,
    clip_outliers,
    harmonize_units,
    impute,
    missing_fraction,
    missing_mask,
    UnitConverter,
)
from repro.transforms.normalize import Normalizer, ZScoreNormalizer, normalize_dataset
from repro.transforms.encode import (
    Vocabulary,
    dna_codes,
    dna_one_hot,
)
from repro.transforms.augment import smote_like
from repro.transforms.label import (
    UNLABELED,
    NearestCentroidModel,
    PseudoLabelResult,
    labeled_fraction,
    propagate_labels,
    pseudo_label,
)
from repro.transforms.features import (
    SelectionReport,
    mutual_information,
    select_k_best,
)
from repro.transforms.split import (
    SplitSpec,
    group_split,
    random_split,
    stratified_split,
    temporal_split,
)
from repro.transforms.align import (
    Signal,
    align_signals,
    common_time_base,
    resample,
    sliding_windows,
    window_series,
)
from repro.transforms.regrid import RegularGrid, area_weighted_mean, regrid

__all__ = [
    "CleaningReport", "clean_dataset", "clip_outliers",
    "harmonize_units", "impute", "missing_fraction", "missing_mask", "UnitConverter",
    "Normalizer", "ZScoreNormalizer", "normalize_dataset",
    "Vocabulary", "dna_codes", "dna_one_hot",
    "smote_like",
    "UNLABELED", "NearestCentroidModel", "PseudoLabelResult",
    "labeled_fraction", "propagate_labels", "pseudo_label",
    "SelectionReport", "mutual_information", "select_k_best",
    "SplitSpec", "group_split", "random_split", "stratified_split", "temporal_split",
    "Signal", "align_signals", "common_time_base", "resample",
    "sliding_windows", "window_series",
    "RegularGrid", "area_weighted_mean", "regrid",
]
