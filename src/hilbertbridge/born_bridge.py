"""Transition probabilities and their Gaussian/overlap equivalences.

The central fact exercised here: for zero-momentum packets of common width
the squared overlap ``e^{-(a-b)^2/4σ²}`` is simultaneously

* ``cos²`` of the projective angle between the two states, and
* the normal density ``f_{a,√2σ}(b)`` times the volume factor ``(4πσ²)^{d/2}``.

So a transition rule that depends only on the projective distance and
reproduces normal statistics on the packet family is forced to be the
squared-overlap rule everywhere; :func:`isotropic_extension_check` probes
that identification on mixed samples.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence, Union

import numpy as np

from hilbertbridge.hilbert_core import KernelSpec, grid_covering, trapezoid_inner
from hilbertbridge.packet_dynamics import GaussianPacket, packet_envelope
from hilbertbridge.state_geometry import fs_distance, require_positive, require_state

__all__ = [
    "TransitionPair",
    "ExtensionReport",
    "transition_probability",
    "packet_overlap",
    "fs_euclid_relation",
    "born_normal_equivalence",
    "isotropic_extension_check",
]

StateLike = Union[np.ndarray, Sequence[complex], GaussianPacket]

_NORM_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class TransitionPair:
    """A (source, target) pair in compatible representations.

    Either both members are finite state vectors of the same length, or
    both are :class:`GaussianPacket` instances sharing ``sigma``, ``hbar``
    and dimension (their overlap then has a closed form).
    """

    source: StateLike
    target: StateLike

    def __post_init__(self) -> None:
        s_packet = isinstance(self.source, GaussianPacket)
        t_packet = isinstance(self.target, GaussianPacket)
        if s_packet != t_packet:
            raise TypeError("source and target must share a representation")
        if s_packet:
            src, tgt = self.source, self.target
            if src.dim != tgt.dim or src.sigma != tgt.sigma or src.hbar != tgt.hbar:
                raise ValueError("packets must share sigma, hbar and dimension")
            return
        src, tgt = (require_state(v, tol=_NORM_TOL) for v in (self.source, self.target))
        if src.shape != tgt.shape:
            raise ValueError("state vectors must be of equal length")
        object.__setattr__(self, "source", src)
        object.__setattr__(self, "target", tgt)

    @property
    def is_packet_pair(self) -> bool:
        return isinstance(self.source, GaussianPacket)


@dataclasses.dataclass(frozen=True)
class ExtensionReport:
    """Outcome of checking distance-only transition rules on a sample."""

    n_pairs: int
    max_deviation: float
    tolerance: float = 1e-10

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def packet_overlap(source: GaussianPacket, target: GaussianPacket) -> complex:
    """Closed-form overlap for packets of common width.

    Conjugate-linear in ``target``, matching ``inner_l2`` on sampled
    wavefunctions.  With δ = b − a and Δp = p₂ − p₁ the overlap is
    ``exp(−|δ|²/8σ² − σ²|Δp|²/2ħ² + i(p₁+p₂)·δ/2ħ)``.
    """
    if source.dim != target.dim:
        raise ValueError("packets have different dimensions")
    if source.sigma != target.sigma or source.hbar != target.hbar:
        raise ValueError("closed-form overlap needs equal sigma and hbar")
    sigma, hbar = source.sigma, source.hbar
    delta = target.center - source.center
    dp = target.momentum - source.momentum
    exponent = (
        -np.dot(delta, delta) / (8 * sigma**2)
        - sigma**2 * np.dot(dp, dp) / (2 * hbar**2)
        + 1j * np.dot(source.momentum + target.momentum, delta) / (2 * hbar)
    )
    return complex(np.exp(exponent))


def transition_probability(pair: TransitionPair) -> float:
    """Squared overlap |⟨source, target⟩|², the cos² of their angle."""
    if pair.is_packet_pair:
        amp = packet_overlap(pair.source, pair.target)
    else:
        amp = complex(np.vdot(pair.source, pair.target))
    return float(min(abs(amp) ** 2, 1.0))


def _point_packet(center: np.ndarray, sigma: float) -> GaussianPacket:
    return GaussianPacket(
        center=center, momentum=np.zeros_like(center), sigma=sigma, mass=1.0
    )


def fs_euclid_relation(
    a, b, sigma: float, spacing: float | None = None
) -> tuple[float, float]:
    """Compare e^{−(a−b)²/4σ²} with cos² of the quadrature angle.

    Both packets are zero-momentum width-σ representatives of the points
    ``a`` and ``b``; the right-hand side is obtained from their sampled
    wavefunctions, a block of rows at a time, so it carries the grid's error.
    """
    require_positive(sigma=sigma)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("a and b must have the same dimension")
    lhs = math.exp(-float(np.dot(a - b, a - b)) / (4 * sigma**2))

    if spacing is None:
        spacing = sigma / 6
    grid = grid_covering(KernelSpec(sigma=sigma, dim=a.size), [a, b], spacing=spacing)
    rows = (packet_envelope(_point_packet(c, sigma), grid) for c in (a, b))
    overlap = abs(trapezoid_inner(grid, *rows))
    return lhs, math.cos(math.acos(min(overlap, 1.0))) ** 2


def born_normal_equivalence(a, b, sigma: float) -> tuple[float, float]:
    """Transition probability next to its normal-density form.

    Returns ``(prob, density_form)`` where ``prob = |⟨δ̃_a, δ̃_b⟩|²`` and
    ``density_form`` is the normal density with mean ``a`` and per-axis
    standard deviation ``√2 σ``, evaluated at ``b`` and scaled by
    ``(4πσ²)^{d/2}``.  The two expressions are the same function of a − b.
    """
    require_positive(sigma=sigma)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError("a and b must have the same dimension")
    d = a.size
    pair = TransitionPair(_point_packet(a, sigma), _point_packet(b, sigma))
    prob = transition_probability(pair)

    var = 2 * sigma**2  # variance of the |overlap|² Gaussian per axis
    density = math.exp(-float(np.dot(a - b, a - b)) / (2 * var)) / (
        (2 * math.pi * var) ** (d / 2)
    )
    density_form = density * (4 * math.pi * sigma**2) ** (d / 2)
    return prob, density_form


def isotropic_extension_check(samples: Sequence[TransitionPair]) -> ExtensionReport:
    """Verify transition_probability == cos²(angle) across mixed samples.

    Any rule that is a function of the projective distance alone and agrees
    with the normal statistics on the packet family must therefore agree
    with the squared-overlap rule on every sampled state, packet or not.
    """
    worst = 0.0
    for pair in samples:
        prob = transition_probability(pair)
        if pair.is_packet_pair:
            overlap = abs(packet_overlap(pair.source, pair.target))
            theta = math.acos(min(overlap, 1.0))
        else:
            theta = fs_distance(pair.source, pair.target)
        worst = max(worst, abs(prob - math.cos(theta) ** 2))
    return ExtensionReport(n_pairs=len(samples), max_deviation=worst)
