"""Seeded point sets for the benchmark workloads.

The benchmark generates its own inputs instead of calling
``repro.datasets``: a change to the library's stand-in generators must
not change what the benchmark measures.  Both generators follow the
geometry and constants of the library's stand-ins, with one difference:
the scene (where the congestion waves sit on each corridor, where the
halos sit and how heavy each is) is fixed, drawn from ``SCENE_SEED``, and
the run's seed draws every point within it.  With the stand-ins' own
scene-per-seed, the mean neighbour count at eps=0.01 swings from 744 to
1,335 across seeds 0-9, so each seed would be a different density regime
and the run-to-run spread would measure the data, not the code.
"""

from __future__ import annotations

import numpy as np

#: Seed of the fixed scene; every run seed draws its points inside it.
SCENE_SEED = 0

# NGSIM: three short multi-lane highway corridors, traffic bunched into
# congestion waves.  Neighbourhoods at eps=0.01 hold ~1,100 points.
_NGSIM_SEGMENTS = (((0.00, 0.00), 35.0), ((0.30, 0.25), 120.0), ((0.55, 0.05), 80.0))
_NGSIM_LENGTH = 0.015
_NGSIM_LANES = 5
_NGSIM_LANE_SPACING = 2.5e-4
_NGSIM_JITTER = 6e-5
_NGSIM_WAVES = 3
_NGSIM_WAVE_STD = 0.01

# HACC: NFW-like halos (r^-1 inner profile) with power-law occupancies on
# a uniform background, in a periodic cube.
_HACC_BOX = 8.0
_HACC_HALO_FRACTION = 0.62
_HACC_HALOS_PER_10K = 28
_HACC_MASS_SLOPE = 1.9
_HACC_CORE_RADIUS = 0.012
_HACC_OUTER_RADIUS = 0.35


def ngsim_points(n: int, seed) -> np.ndarray:
    """``(n, 2)`` vehicle-trajectory points on three dense corridors.

    ``seed`` is anything ``numpy.random.default_rng`` accepts."""
    k = len(_NGSIM_SEGMENTS)
    centers = np.random.default_rng(SCENE_SEED).uniform(0, 1, size=(k, _NGSIM_WAVES))
    rng = np.random.default_rng(seed)
    seg = rng.integers(0, k, size=n)
    wave = rng.integers(0, _NGSIM_WAVES, size=n)
    t = centers[seg, wave] + rng.normal(0, _NGSIM_WAVE_STD, size=n)
    t = np.clip(t, 0, 1) * _NGSIM_LENGTH
    lane = rng.integers(0, _NGSIM_LANES, size=n)
    lateral = (lane - (_NGSIM_LANES - 1) / 2) * _NGSIM_LANE_SPACING
    lateral = lateral + rng.normal(0, _NGSIM_JITTER, n)
    out = np.empty((n, 2), dtype=np.float64)
    for s, ((ox, oy), heading) in enumerate(_NGSIM_SEGMENTS):
        on = seg == s
        c, sn = np.cos(np.deg2rad(heading)), np.sin(np.deg2rad(heading))
        out[on, 0] = ox + t[on] * c - lateral[on] * sn
        out[on, 1] = oy + t[on] * sn + lateral[on] * c
    return out


def hacc_points(n: int, seed) -> np.ndarray:
    """``(n, 3)`` cosmology particles: compact halos on a sparse background.

    ``seed`` is anything ``numpy.random.default_rng`` accepts."""
    n_halo = int(n * _HACC_HALO_FRACTION)
    n_halos = max(1, int(_HACC_HALOS_PER_10K * n / 10_000))
    scene = np.random.default_rng(SCENE_SEED)
    centers = scene.uniform(0, _HACC_BOX, size=(n_halos, 3))
    mass = scene.pareto(_HACC_MASS_SLOPE, size=n_halos) + 1.0
    rng = np.random.default_rng(seed)
    halo = rng.choice(n_halos, size=n_halo, p=mass / mass.sum())
    u = rng.uniform(0, 1, size=n_halo)
    radius = _HACC_CORE_RADIUS * np.exp(u * np.log(_HACC_OUTER_RADIUS / _HACC_CORE_RADIUS))
    direction = rng.normal(size=(n_halo, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    halo_pts = centers[halo] + radius[:, None] * direction
    background = rng.uniform(0, _HACC_BOX, size=(n - n_halo, 3))
    pts = np.concatenate([halo_pts, background], axis=0)
    np.mod(pts, _HACC_BOX, out=pts)
    return pts[rng.permutation(n)]
