"""Statistical machinery shared by the Monte Carlo experiments.

Seeded counter-based RNG substreams, the one block loop of every walk, the
one process fan-out that walks ranges of those substreams in forked
processes (capped by ``HB_THREADS``) with numpy's OpenBLAS pinned to one
thread, and the small set of
goodness-of-fit / uniformity tests and the line fit the experiment suites
need, none of which imports ``scipy.stats``.
This is not a general statistics library.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass
from typing import Callable, Iterator

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
    "kicked_windows",
    "ks_test",
    "linear_fit",
    "range_processes",
    "resolve_workers",
    "stream_ranges",
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
        """``Generator(Philox(key=[seed, stream_id]))``, opened without OS entropy."""
        return _keyed_generator()(self.seed, self.stream_id)


@functools.cache
def _keyed_generator() -> Callable:
    # imported on first use: loading the library imports no numpy.random
    from hilbertbridge._philox import keyed_generator

    return keyed_generator


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
    """Processes :func:`stream_ranges` walks ``trials`` in.

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

    :func:`stream_ranges` walks each range as one window, its batches of at
    most ``batch`` trials walked in order and their columns joined; a single
    batch's columns are returned as they are.
    """
    def walk_range(count: int, offset: int) -> Iterator[tuple]:
        parts = [walk_batch(min(batch, offset + count - start), start)
                 for start in range(offset, offset + count, batch)] or [walk_batch(0, 0)]
        yield _joined(parts)

    (columns,) = stream_ranges(walk_range, trials, min_trials)
    return columns


def kicked_windows(kick, gens: list, n_steps: int) -> Iterator[tuple]:
    """Kick the trials of ``gens`` up to ``n_steps`` times, a block of kicks at a time.

    ``kick`` holds their states: ``kick.block(live, steps_left)`` is a
    block's length, ``kick.draw(gens, span)`` draws it, ``kick.windows()``
    applies it, yielding ``(width, states)`` every ``width`` kicks, and
    ``kick.keep(index)`` keeps only the trials at ``index``.  Yields ``(step,
    states, rows, alive)``: the kicks before the window, its states, the
    live trials' batch indices and mask.  Trials the caller clears in
    ``alive`` are dropped at the block's end; the walk ends when none is left.
    """
    rows, step = np.arange(len(gens)), 0
    while step < n_steps and rows.size:
        kick.draw(gens, kick.block(rows.size, n_steps - step))
        alive = np.ones(rows.size, dtype=bool)
        for width, states in kick.windows():
            yield step, states, rows, alive
            step += width
            if not alive.any():
                return
        if step < n_steps and not alive.all():
            index = np.flatnonzero(alive)
            kick.keep(index)
            rows, gens = rows[index], [gens[i] for i in index]


def stream_ranges(walk_range: Callable[[int, int], Iterator], trials: int,
                  min_trials: int) -> Iterator:
    """Windows of ``walk_range(count, trial_offset)`` joined over trials 0..trials−1.

    The trials are split into contiguous ranges, as many as
    :func:`range_processes` allows.  Each range's iterator yields the same
    number of windows, arrays or tuples of arrays with one row per trial;
    item ``w`` is every range's window ``w`` joined in trial order, column
    by column for tuples.  This process walks the first range and a forked
    process each other one, sending its windows down a pipe as they come,
    so no process runs more than a window ahead of the join.  A range that
    raises or dies raises here, and no forked process outlives the call.
    numpy's OpenBLAS runs on one thread for the whole call: in the one-range
    walk, in the children, which are forked under the pin, and in the
    caller's work between windows, so no BLAS thread stalls a forked range.
    """
    with _one_blas_thread():
        ranges = _trial_ranges(trials, range_processes(trials, min_trials)) or [(0, 0)]
        import multiprocessing

        # fork: the children inherit the imported library; spawned children
        # import it again, which added 0.5–0.7 s to each 2-process call
        context = multiprocessing.get_context("fork")
        children = []
        try:
            for lo, hi in ranges[1:]:
                receive, send = context.Pipe(duplex=False)
                child = context.Process(target=_send_windows,
                                        args=(walk_range, hi - lo, lo, send), daemon=True)
                child.start()
                send.close()
                children.append((child, receive))
            for own in walk_range(ranges[0][1], 0):
                yield _joined([own] + [_received(receive) for _, receive in children])
        except BaseException:
            for child, _ in children:
                child.terminate()
            raise
        finally:
            for child, receive in children:
                child.join()
                receive.close()


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Pin numpy's bundled OpenBLAS to one thread; restore its count on exit."""
    get, set_ = _blas_thread_calls() or (lambda: None, lambda threads: None)
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


@functools.cache
def _blas_thread_calls() -> tuple | None:
    """``(get, set)`` of the thread count of the OpenBLAS in ``numpy.libs``, or None."""
    import ctypes  # imported on first use, as is glob
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        blas = ctypes.CDLL(path)
        for get in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(blas, get):  # both take and return a C int
                return getattr(blas, get), getattr(blas, get.replace("get_", "set_"))


def _joined(windows: list):
    """Windows joined in order, column by column when tuples; a lone window as it is."""
    if len(windows) == 1:
        return windows[0]
    if isinstance(windows[0], tuple):
        return tuple(np.concatenate(column) for column in zip(*windows))
    return np.concatenate(windows)


def _send_windows(walk_range: Callable, count: int, offset: int, send) -> None:
    """Send ``walk_range(count, offset)``'s windows, or what it raised, down ``send``."""
    try:
        for window in walk_range(count, offset):
            send.send(window)
    except Exception as exc:
        send.send(exc)


def _received(receive):
    """The next window from a forked range; raise what the range raised."""
    item = receive.recv()
    if isinstance(item, Exception):
        raise item
    return item


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


def linear_fit(x, y) -> tuple[float, float]:
    """Least-squares slope and correlation r of ``y`` on ``x``.

    ``scipy.stats.linregress``'s slope and r, by its formula and bit for bit:
    r is NaN for constant ``y``, and constant ``x`` is refused.
    """
    x, y = np.asarray(x), np.asarray(y)
    if np.amax(x) == np.amin(x):
        raise ValueError("cannot fit a line if all x values are identical")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = np.float64(np.nan if ssxym == 0 else 0.0)
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    return ssxym / ssxm, r


def ks_test(cdfvals, alpha: float = 0.01) -> TestReport:
    """Two-sided one-sample Kolmogorov-Smirnov test.

    ``cdfvals`` is the hypothesised CDF at the sorted sample.  D = max(D⁺, D⁻)
    and its exact p-value are ``scipy.stats.kstest``'s, bit for bit.
    """
    cdfvals = np.asarray(cdfvals, dtype=float)
    n = cdfvals.size
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    # the port of scipy's exact p-value stays out of library load
    from hilbertbridge._ksstats import kstwo_sf

    return TestReport(statistic=float(d), p_value=kstwo_sf(d, n), alpha=alpha)
