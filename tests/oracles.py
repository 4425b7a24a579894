"""Reference oracles and inputs that more than one test module uses.

The name has no test_ prefix, so pytest imports it only from the modules that do.
"""

import numpy as np

from vmbpbb import kzft_apply, reconstruct_component, select_filter_specs


def convolution_oracle(m, k):
    """Expand (1 + z + ... + z^(m-1))^k with pure-Python integer arithmetic."""
    coeffs = [1] * m
    for _ in range(k - 1):
        out = [0] * (len(coeffs) + m - 1)
        for i, c in enumerate(coeffs):
            for j in range(m):
                out[i + j] += c
        coeffs = out
    return coeffs


def decompose(series, periods):
    """One designed bandpass component per period, as the VMBPBB pipeline filters them."""
    return [reconstruct_component(kzft_apply(series, spec)) for spec in select_filter_specs(periods)]


def bincount_means(values, p):
    """Reference oracle: each phase's np.bincount weight sum over its member count."""
    phases = np.arange(len(values)) % p
    return np.bincount(phases, weights=values, minlength=p) / np.bincount(phases, minlength=p)


def hourly_values(n):
    """n hourly samples: a daily and a weekly sine plus Gaussian noise (seed 7); the pinned tests' input."""
    t = np.arange(n)
    rng = np.random.default_rng(7)
    return (2.0 * np.sin(2 * np.pi * t / 24) + np.sin(2 * np.pi * t / 168 + 1.0)
            + rng.normal(0.0, 1.5, n))
