"""Far-field narrowband snapshot simulator for non-Gaussian sources.

Sources are mutually uncorrelated and i.i.d. across snapshots.  The
source model is real BPSK (+/-1 equiprobable, unit variance): a circular
constellation would zero out two of the three fourth-order cumulant
cases and silently collapse the extended co-array to its
difference-only part, while BPSK gives the same cumulant, -2, in all
three cases.  The noise is unit-variance circular complex Gaussian
(``complex_gaussian_sampler``), scaled per SNR, so the SNR is the
inverse of its per-sensor variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import SensorArray

__all__ = [
    "SourceScene",
    "manifold",
    "simulate",
    "simulate_sweep",
    "complex_gaussian_sampler",
    "noise_std",
]


def complex_gaussian_sampler(rng: np.random.Generator, shape: Tuple[int, ...]) -> np.ndarray:
    """Unit-variance circular complex Gaussian draws: the simulator's noise.

    The real block is drawn first, then the imaginary one, each scaled by
    1/sqrt(2): bit for bit ``(g1 + 1j*g2) / sqrt(2)`` of two successive
    ``standard_normal(shape)`` draws, built in the result and one real
    buffer.
    """
    out = np.empty(shape, complex)
    draw = np.empty(shape)
    for part in (out.real, out.imag):
        rng.standard_normal(out=draw)
        np.multiply(draw, 1.0 / math.sqrt(2), out=part)
    return out


@dataclass(frozen=True)
class SourceScene:
    """Source angles and RNG seed of +/-1 BPSK sources.

    ``seed`` is anything ``np.random.default_rng`` takes: an int, or a
    tuple such as (sweep seed, trial index) for one trial of a sweep.
    A seed it refuses (negative, or not an integer) is rejected here.
    """

    angles_deg: Tuple[float, ...]
    seed: Union[int, Tuple[int, ...]] = 0

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles_deg)
        if len(angles) == 0:
            raise ValueError("scene needs at least one source")
        if len(set(angles)) != len(angles):
            raise ValueError("source angles must be distinct")
        if not all(abs(a) < 90.0 for a in angles):
            raise ValueError("source angles must lie in (-90, 90) degrees")
        try:
            np.random.default_rng(self.seed)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"seed {self.seed!r} is not an RNG seed: {exc}") from None
        object.__setattr__(self, "angles_deg", angles)

    @property
    def n_sources(self) -> int:
        return len(self.angles_deg)

    def draw_sources(self, rng: np.random.Generator, n_snapshots: int) -> np.ndarray:
        """BPSK draws, +/-1 equiprobable, one row per source."""
        return rng.choice([-1.0, 1.0], size=(self.n_sources, n_snapshots))


def manifold(array: SensorArray, thetas_deg: Sequence[float]) -> np.ndarray:
    """N x D matrix of steering vectors exp(1j*pi*p_n*sin(theta_d)) under d = lambda/2.

    This is the one steering model: the simulator applies it to the
    physical array and co-array MUSIC to its virtual ULA.  The phases are
    exponentiated in place, so a call peaks at the size of its result.
    """
    thetas = np.asarray(thetas_deg, dtype=float)
    inside = np.abs(thetas) < 90.0
    if not inside.all():
        raise ValueError(f"angles must lie in (-90, 90) degrees, got {thetas[~inside][0]}")
    a = np.multiply.outer(1j * np.pi * np.asarray(array.positions), np.sin(np.deg2rad(thetas)))
    np.exp(a, out=a)
    return a


def noise_std(snr_db: float) -> float:
    """Per-sensor noise standard deviation sqrt(10^(-snr_db/10)); 0 at inf dB.

    An SNR whose noise variance is not a finite number (NaN, -inf, or
    below about -3082.5 dB, where it overflows) raises ``ValueError``.
    """
    try:
        variance = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        variance = math.inf
    if not math.isfinite(variance):
        raise ValueError(f"SNR must be a number of dB with a finite noise variance, got {snr_db}")
    return math.sqrt(variance)


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
    noise to per-sensor variance 10^(-snr_db/10); snr_db = inf
    disables it, and an SNR that ``noise_std`` rejects raises
    ``ValueError``.  Points are yielded for each SNR in turn, each over
    ``k_list``, in the order given.

    ``coupling`` is an optional N x N matrix applied to the steering
    side only, so the noise stays sensor-local.
    """
    if min(k_list) < 1:
        raise ValueError("need at least one snapshot")
    sigmas = [noise_std(snr_db) for snr_db in snr_list]
    rng = np.random.default_rng(scene.seed)
    k_max = max(k_list)
    a = manifold(array, scene.angles_deg)
    if coupling is not None:
        a = np.asarray(coupling) @ a
    s = scene.draw_sources(rng, k_max)
    noiseless = all(math.isinf(snr_db) for snr_db in snr_list)
    unit_noise = None if noiseless else complex_gaussian_sampler(rng, (array.n_sensors, k_max))
    for snr_db, sigma in zip(snr_list, sigmas):
        for k in k_list:
            x = a @ s[:, :k]
            if not math.isinf(snr_db):
                # row by row, so the scaled noise needs one row of memory
                for row, noise in zip(x, unit_noise):
                    row += sigma * noise[:k]
            yield snr_db, x


def simulate(array: SensorArray, scene: SourceScene, snr_db: float, n_snapshots: int) -> np.ndarray:
    """The uncoupled N x K snapshot block of ``simulate_sweep`` at one SNR and one K."""
    return next(simulate_sweep(array, scene, [snr_db], [n_snapshots]))[1]
