"""Far-field narrowband snapshot simulator for non-Gaussian sources.

Sources are mutually uncorrelated and i.i.d. across snapshots.  The
default source model is real BPSK (+/- sqrt(power) equiprobable): a
circular constellation would zero out two of the three fourth-order
cumulant cases and silently collapse the extended co-array to its
difference-only part, while BPSK gives the same cumulant, -2*power^2,
in all three cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import SensorArray

__all__ = [
    "SourceScene",
    "steering_vector",
    "manifold",
    "simulate",
    "simulate_sweep",
    "complex_gaussian_sampler",
]


def complex_gaussian_sampler(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws (for null tests)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)


@dataclass(frozen=True)
class SourceScene:
    """Source angles, per-source power, RNG seed and source model.

    ``seed`` is anything ``np.random.default_rng`` takes: an int, or a
    tuple such as (sweep seed, trial index) for one trial of a sweep.

    ``sampler`` chooses the source model: None draws BPSK, and a
    callable (rng, shape) -> unit-power samples draws custom sources.
    Either is scaled by sqrt(power).
    """

    angles_deg: Tuple[float, ...]
    power: float = 1.0
    seed: Union[int, Tuple[int, ...]] = 0
    sampler: Optional[Callable[[np.random.Generator, Tuple[int, ...]], np.ndarray]] = None

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles_deg)
        if len(angles) == 0:
            raise ValueError("scene needs at least one source")
        if len(set(angles)) != len(angles):
            raise ValueError("source angles must be distinct")
        if not all(abs(a) < 90.0 for a in angles):
            raise ValueError("source angles must lie in (-90, 90) degrees")
        if not (math.isfinite(self.power) and self.power > 0):
            raise ValueError(f"source power must be finite and positive, got {self.power}")
        object.__setattr__(self, "angles_deg", angles)

    @property
    def n_sources(self) -> int:
        return len(self.angles_deg)

    def draw_sources(self, rng: np.random.Generator, n_snapshots: int) -> np.ndarray:
        shape = (self.n_sources, n_snapshots)
        if self.sampler is None:
            return rng.choice([-1.0, 1.0], size=shape) * math.sqrt(self.power)
        return self.sampler(rng, shape) * math.sqrt(self.power)


def steering_vector(array: SensorArray, theta_deg: float) -> np.ndarray:
    """Steering vector exp(1j*pi*p_n*sin(theta)) under d = lambda/2."""
    if abs(theta_deg) >= 90.0:
        raise ValueError(f"angle must lie in (-90, 90) degrees, got {theta_deg}")
    p = np.asarray(array.positions)
    return np.exp(1j * np.pi * p * math.sin(math.radians(theta_deg)))


def manifold(array: SensorArray, thetas_deg: Sequence[float]) -> np.ndarray:
    """N x D matrix of steering vectors."""
    return np.stack([steering_vector(array, t) for t in thetas_deg], axis=1)


def simulate_sweep(
    array: SensorArray,
    scene: SourceScene,
    snr_list: Sequence[float],
    k_list: Sequence[int],
    coupling: Optional[np.ndarray] = None,
) -> Iterator[Tuple[float, np.ndarray]]:
    """X = (C.)A.S + noise at every (SNR, K) point, on common random numbers.

    Yields (snr_db, x) pairs, where x is the complex N x K snapshot
    block of that point.

    One draw from ``scene.seed`` serves every point: sources, then
    unit-variance circular complex Gaussian noise (unless every SNR is
    inf), both at max(k_list).
    Point (snr_db, K) takes the first K columns of each and scales the
    noise to per-sensor variance power * 10^(-snr_db/10); snr_db = inf
    disables it.  Points are yielded for each SNR in turn, each over
    ``k_list``, in the order given.

    ``coupling`` is an optional N x N matrix applied to the steering
    side only, so the noise stays sensor-local.
    """
    if min(k_list) < 1:
        raise ValueError("need at least one snapshot")
    rng = np.random.default_rng(scene.seed)
    k_max = max(k_list)
    a = manifold(array, scene.angles_deg)
    if coupling is not None:
        a = np.asarray(coupling) @ a
    s = scene.draw_sources(rng, k_max)
    noiseless = all(math.isinf(snr_db) for snr_db in snr_list)
    unit_noise = None if noiseless else complex_gaussian_sampler(rng, (array.n_sensors, k_max))
    for snr_db in snr_list:
        sigma = math.sqrt(scene.power * 10.0 ** (-snr_db / 10.0))
        for k in k_list:
            x = a @ s[:, :k]
            if not math.isinf(snr_db):
                x += sigma * unit_noise[:, :k]
            yield snr_db, x


def simulate(
    array: SensorArray,
    scene: SourceScene,
    snr_db: float,
    n_snapshots: int,
    coupling: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The N x K snapshot block of ``simulate_sweep`` at one SNR and one K."""
    return next(simulate_sweep(array, scene, [snr_db], [n_snapshots], coupling))[1]
