"""Statistical machinery shared by the Monte Carlo experiments.

Seeded counter-based RNG substreams, the process fan-out that walks ranges
of those substreams in forked processes (capped by ``HB_THREADS``), and the
small set of goodness-of-fit / uniformity tests the experiment suites need.
This is not a general statistics library.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "RngStream",
    "SparseTableError",
    "TestReport",
    "check_seed",
    "check_trials",
    "chi_square_gof",
    "cpu_count",
    "direction_uniformity",
    "range_processes",
    "resolve_workers",
    "two_proportion_z",
    "walk_ranges",
]


@dataclass(frozen=True)
class RngStream:
    """Addressable random stream: identical (seed, stream_id) -> identical draws.

    Backed by the counter-based Philox generator keyed with the pair, so trial
    k of an experiment can be opened directly without drawing through trials
    0..k-1.  Streams are value-like; make one per concurrent trial.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def check_seed(seed: int) -> None:
    """Refuse a seed that does not fit the 64-bit word of the Philox key."""
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in 64 bits")


def check_trials(trials: int) -> None:
    """Refuse a negative trial count; zero trials walk to empty columns."""
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")


def cpu_count() -> int:
    """CPUs in this process's affinity mask."""
    return len(os.sched_getaffinity(0))


def resolve_workers() -> int:
    """Cap on the processes of the spin and cell walks.

    ``HB_THREADS`` when set, else every CPU in the affinity mask.
    """
    raw = os.environ.get("HB_THREADS")
    if raw is None:
        return cpu_count()
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"HB_THREADS must be a positive integer, got {raw!r}")
    return workers


def range_processes(trials: int, min_trials: int) -> int:
    """Processes :func:`walk_ranges` walks ``trials`` in.

    :func:`resolve_workers` caps the count, and so do the CPUs and the
    number of ranges of at least ``min_trials`` trials.
    """
    return max(1, min(resolve_workers(), cpu_count(), trials // min_trials))


def _trial_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous ``(lo, hi)`` ranges splitting ``range(total)`` in order."""
    bounds = np.linspace(0, total, max(1, parts) + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def walk_ranges(walk_batch: Callable[[int, int], tuple], trials: int,
                min_trials: int, batch: int) -> tuple[np.ndarray, ...]:
    """Columns of ``walk_batch(count, trial_offset)`` over trials 0..trials−1.

    The trials are split into contiguous ranges, one per process, as many
    as :func:`range_processes` allows, and each range into batches of at
    most ``batch`` trials, walked in order.  This process walks the first
    range's batches and forked processes walk the others; the batches'
    columns, one row per trial, are concatenated in trial order, and a
    single batch's columns are returned as they are.  ``walk_batch`` must
    be picklable, e.g. a ``functools.partial`` of a module-level function.
    """
    ranges = [[(min(batch, hi - start), start) for start in range(lo, hi, batch)]
              for lo, hi in _trial_ranges(trials, range_processes(trials, min_trials))]
    if len(ranges) < 2:
        ranges = ranges or [[(0, 0)]]  # no trials: one empty batch
        parts = [walk_batch(*args) for args in ranges[0]]
    else:
        import multiprocessing
        from concurrent.futures.process import ProcessPoolExecutor

        # fork: the children inherit the imported library; spawned children
        # import it again, which added 0.5–0.7 s to each 2-process call
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(len(ranges) - 1, mp_context=context) as pool:
            futures = [pool.submit(walk_batch, *args)
                       for batches in ranges[1:] for args in batches]
            parts = [walk_batch(*args) for args in ranges[0]]
            parts += [future.result() for future in futures]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(column) for column in zip(*parts))


@dataclass(frozen=True)
class TestReport:
    """Outcome of a significance test at a stated level."""

    statistic: float
    p_value: float
    alpha: float

    @property
    def passed(self) -> bool:
        return self.p_value >= self.alpha


class SparseTableError(ValueError):
    """Merging sparse cells left fewer than two cells to test."""


def chi_square_gof(observed, expected_probs, alpha: float = 0.001) -> TestReport:
    """Pearson chi-square test of observed counts against expected cell probabilities.

    Cells with expected count < 5 are merged into their neighbor (smallest
    expected first) before computing the statistic; df = cells - 1.
    """
    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.size == 0 or obs.size != probs.size:
        raise ValueError("observed and expected_probs must be same nonempty length")
    n = obs.sum()
    if n <= 0:
        raise ValueError("no observations")
    exp = probs / probs.sum() * n

    # merge sparse cells until every expected count is >= 5
    obs, exp = obs.copy(), exp.copy()
    while exp.size > 1 and exp.min() < 5.0:
        i = int(np.argmin(exp))
        j = i + 1 if i + 1 < exp.size else i - 1
        exp[j] += exp[i]
        obs[j] += obs[i]
        exp = np.delete(exp, i)
        obs = np.delete(obs, i)
    if exp.size < 2:
        raise SparseTableError("too few occupied cells for a chi-square test")

    statistic = float(((obs - exp) ** 2 / exp).sum())
    df = exp.size - 1
    # chi2.sf's own kernel; scipy.stats is slow to import
    from scipy.special import chdtrc

    p_value = float(chdtrc(df, statistic))
    return TestReport(statistic=statistic, p_value=p_value, alpha=alpha)


def two_proportion_z(k1: int, n1: int, k2: int, n2: int, alpha: float = 0.0027) -> TestReport:
    """Two-sample proportion z-test (pooled); default alpha is the 3-sigma level."""
    p1, p2 = k1 / n1, k2 / n2
    pool = (k1 + k2) / (n1 + n2)
    se = np.sqrt(pool * (1.0 - pool) * (1.0 / n1 + 1.0 / n2))
    z = 0.0 if se == 0 else (p1 - p2) / se
    # norm.sf's own kernel; scipy.stats is slow to import
    from scipy.special import ndtr

    p_value = float(2.0 * ndtr(-abs(z)))
    return TestReport(statistic=float(z), p_value=p_value, alpha=alpha)


# fewest samples direction_uniformity tests
MIN_DIRECTION_SAMPLES = 100


def direction_uniformity(samples, alpha: float = 0.01) -> TestReport:
    """Rayleigh resultant-length test of directions on S^1 or S^2 against uniformity.

    ``samples`` is (n, d) with d in {2, 3}; rows are normalized internally.
    The statistic is d·n·|mean direction|^2, asymptotically chi-square(d) under
    uniformity.  Note this is a first-moment test: antipodally balanced data
    (resultant ~ 0) passes by construction.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[1] not in (2, 3):
        raise ValueError("samples must be (n, 2) or (n, 3)")
    if x.shape[0] < MIN_DIRECTION_SAMPLES:
        raise ValueError(f"need at least {MIN_DIRECTION_SAMPLES} samples")
    norms = np.linalg.norm(x, axis=1)
    good = norms > 0
    u = x[good] / norms[good, None]
    n, d = u.shape
    rbar = np.linalg.norm(u.mean(axis=0))
    statistic = float(d * n * rbar**2)
    # chi2.sf's own kernel; scipy.stats is slow to import
    from scipy.special import chdtrc

    p_value = float(chdtrc(d, statistic))
    return TestReport(statistic=statistic, p_value=p_value, alpha=alpha)
