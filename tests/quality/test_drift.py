"""Drift detection between dataset versions."""

import numpy as np

from repro.quality.drift import PSI_ACT, population_stability_index


class TestPSI:
    def test_identical_distributions_near_zero(self, rng):
        reference = rng.normal(size=5000)
        current = rng.normal(size=5000)
        assert population_stability_index(reference, current) < 0.02

    def test_mean_shift_detected(self, rng):
        reference = rng.normal(0, 1, 5000)
        shifted = rng.normal(1.5, 1, 5000)
        assert population_stability_index(reference, shifted) > PSI_ACT

    def test_variance_change_detected(self, rng):
        reference = rng.normal(0, 1, 5000)
        widened = rng.normal(0, 3, 5000)
        assert population_stability_index(reference, widened) > PSI_ACT

    def test_psi_grows_with_shift(self, rng):
        reference = rng.normal(0, 1, 5000)
        values = [
            population_stability_index(reference, rng.normal(mu, 1, 5000))
            for mu in (0.0, 0.5, 1.0, 2.0)
        ]
        assert values == sorted(values)

    def test_constant_reference_degenerate(self, rng):
        assert population_stability_index(np.ones(100), rng.normal(size=100)) == 0.0

    def test_tiny_samples_return_zero(self, rng):
        assert population_stability_index(np.ones(3), np.ones(3)) == 0.0
