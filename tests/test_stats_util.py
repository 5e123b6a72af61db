"""Keyed RNG substreams, the process fan-outs that walk trial ranges in forked
processes, and the p-values of the library's tests."""

import functools
import multiprocessing
import os
import random

import numpy as np
import pytest

from hilbertbridge import _ksstats, stats_util
from hilbertbridge.stats_util import RngStream


def _plain(state):
    """A bit generator's state with its arrays as lists, so ``==`` compares them."""
    return {key: _plain(value) if isinstance(value, dict) else np.asarray(value).tolist()
            for key, value in state.items()}


# the extreme keys, and position-born's start stream
@pytest.mark.parametrize("seed, stream_id", [(0, 0), (2**64 - 1, 2**64 - 1), (11, 2**63)])
def test_stream_is_philox_keyed_by_seed_and_stream_id(seed, stream_id):
    gen = RngStream(seed, stream_id).generator()
    keyed = np.random.Generator(np.random.Philox(key=np.array([seed, stream_id],
                                                               dtype=np.uint64)))
    assert _plain(gen.bit_generator.state) == _plain(keyed.bit_generator.state)
    assert gen.normal(size=10**4).tobytes() == keyed.normal(size=10**4).tobytes()
    assert _plain(gen.bit_generator.state) == _plain(keyed.bit_generator.state)


def test_opening_a_stream_reads_no_os_entropy(monkeypatch):
    key = np.array([3, 4], dtype=np.uint64)
    expected = np.random.Generator(np.random.Philox(key=key)).normal(size=8)

    def refuse(size):
        raise AssertionError("read OS entropy")

    monkeypatch.setattr(os, "urandom", refuse)
    # SystemRandom, which numpy's default seeding draws from, holds its own reference
    monkeypatch.setattr(random, "_urandom", refuse)
    with pytest.raises(AssertionError, match="OS entropy"):
        np.random.Philox(key=key)
    assert RngStream(3, 4).generator().normal(size=8).tobytes() == expected.tobytes()


def _fail_past_first_range(trials, trial_offset):
    if trial_offset:
        raise RuntimeError(f"range from trial {trial_offset} failed")
    return (np.arange(trials),)


def test_a_failing_child_reaches_the_caller_and_leaves_no_process(monkeypatch):
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 3)
    assert stats_util.range_processes(30, 10) == 3
    with pytest.raises(RuntimeError, match="range from trial 10 failed"):
        stats_util.walk_ranges(_fail_past_first_range, 30, 10, 30)
    assert not multiprocessing.active_children()


def _record_batch(trials, trial_offset):
    """Each trial's index, its batch's ``(count, offset)`` and the walking process."""
    batch = np.tile((trials, trial_offset), (trials, 1))
    return np.arange(trial_offset, trial_offset + trials), batch, np.full(trials, os.getpid())


def test_ranges_walk_in_batches_and_join_in_trial_order(monkeypatch):
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 3)
    trials, batches, pids = stats_util.walk_ranges(_record_batch, 30, 10, 4)
    assert trials.tolist() == list(range(30))
    # the ranges 0–9, 10–19 and 20–29, each split into batches of at most 4
    assert list(dict.fromkeys(map(tuple, batches.tolist()))) == [
        (4, 0), (4, 4), (2, 8), (4, 10), (4, 14), (2, 18), (4, 20), (4, 24), (2, 28)]
    # this process walks the first range, forked processes the others
    assert (pids[:10] == os.getpid()).all() and (pids[10:] != os.getpid()).all()
    # one range of one batch comes back as walked, not copied
    column = np.arange(5)
    assert stats_util.walk_ranges(lambda n, offset: (column,), 5, 10, 8)[0] is column


def _record_windows(windows, trials, trial_offset):
    """``windows`` windows of each trial's index, the window's number and the process."""
    for w in range(windows):
        yield np.stack([np.arange(trial_offset, trial_offset + trials),
                        np.full(trials, w), np.full(trials, os.getpid())], axis=1)


def test_streamed_ranges_join_window_by_window_in_trial_order(monkeypatch):
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 3)
    windows = list(stats_util.stream_ranges(functools.partial(_record_windows, 4), 30, 10))
    assert [window[:, 1].tolist() for window in windows] == [[w] * 30 for w in range(4)]
    for window in windows:
        trials, _, pids = window.T
        assert trials.tolist() == list(range(30))
        # this process walks the first range, a forked process each other one
        assert (pids[:10] == os.getpid()).all()
        assert len({*pids[10:20]}) == len({*pids[20:]}) == 1
        assert len({pids[0], pids[10], pids[20]}) == 3
    assert not multiprocessing.active_children()
    monkeypatch.setenv("HB_THREADS", "1")
    (window,) = stats_util.stream_ranges(functools.partial(_record_windows, 1), 30, 10)
    assert (window[:, 2] == os.getpid()).all()


def _fail_second_window_past_first_range(trials, trial_offset):
    yield np.arange(trials)
    if trial_offset:
        raise RuntimeError(f"range from trial {trial_offset} failed")
    yield np.arange(trials)


def test_a_failing_streamed_range_or_an_early_stop_leaves_no_process(monkeypatch):
    monkeypatch.setattr(stats_util, "cpu_count", lambda: 3)
    with pytest.raises(RuntimeError, match="range from trial 10 failed"):
        list(stats_util.stream_ranges(_fail_second_window_past_first_range, 30, 10))
    assert not multiprocessing.active_children()
    windows = stats_util.stream_ranges(functools.partial(_record_windows, 50), 30, 10)
    next(windows)
    windows.close()
    assert not multiprocessing.active_children()


def test_p_value_kernels_equal_scipy_stats_bit_for_bit():
    """chdtrc and ndtr are the kernels of chi2.sf and norm.sf that the tests call."""
    from scipy import special, stats

    gen = np.random.default_rng(20)
    df = np.repeat(np.arange(1, 40), 3000)
    x = np.concatenate([[0.0], gen.uniform(0.0, 1.0, df.size - 1)]) * (df + 10 * np.sqrt(2 * df))
    assert (special.chdtrc(df, x).view(np.int64)
            == stats.chi2.sf(x, df).view(np.int64)).all()
    z = np.concatenate([[0.0], gen.exponential(3.0, 19_999)])
    assert (special.ndtr(-z).view(np.int64) == stats.norm.sf(z).view(np.int64)).all()

    # the library's own tests, at a statistic of each kind
    counts, probs = np.array([30, 20, 50]), np.array([0.25, 0.25, 0.5])
    report = stats_util.chi_square_gof(counts, probs)
    assert report.p_value == stats.chi2.sf(report.statistic, 2)
    report = stats_util.two_proportion_z(40, 100, 55, 100)
    assert report.p_value == 2.0 * stats.norm.sf(abs(report.statistic))
    report = stats_util.direction_uniformity(gen.normal(size=(200, 3)) + 0.1)
    assert report.p_value == stats.chi2.sf(report.statistic, 3)


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def test_ks_p_value_equals_kstwo_sf_bit_for_bit_on_every_branch(monkeypatch):
    """The port of scipy's kstwo.sf, at sizes and statistics that reach each of its methods."""
    from scipy import special, stats

    reached = set()
    for name in ("_kolmogn_dmtw", "_kolmogn_pomeranz", "_kolmogn_pelz_good"):
        method = getattr(_ksstats, name)
        monkeypatch.setattr(_ksstats, name,
                            lambda *args, _m=method, _n=name: reached.add(_n) or _m(*args))
    monkeypatch.setattr(special, "smirnov",
                        lambda *args, _m=special.smirnov: reached.add("smirnov") or _m(*args))
    for n in (1, 2, 20, 100, 140, 141, 4000, 10**5, 10**5 + 1):
        root = np.sqrt(n)
        for d in (0.5 / n, np.nextafter(0.5 / n, 1.0), 0.75 / n, 1 / n, 2 / n,
                  0.3 / root, 0.6 / root, 0.87 / root, 1 / root, 1.2 / root, 2 / root,
                  5 / root, 0.3, 0.5, (n - 0.5) / n, 1.0):
            assert _bits(_ksstats.kstwo_sf(float(d), n)) == _bits(stats.kstwo.sf(d, n)), (n, d)
    assert reached == {"_kolmogn_dmtw", "_kolmogn_pomeranz", "_kolmogn_pelz_good", "smirnov"}


@pytest.mark.parametrize("n", [100, 137, 4000, 100_000])
def test_ks_test_equals_kstest_on_normal_and_chi_samples(n):
    from scipy import stats
    from scipy.special import gammainc, ndtr

    gen = np.random.default_rng(n)
    for scale, stretch in ((0.04, 1.0), (1.3, 1.0), (0.7, 1.05)):
        x = gen.normal(0.0, scale * stretch, n)
        ours = stats_util.ks_test(ndtr(np.sort(x) / scale))
        theirs = stats.kstest(x, "norm", args=(0.0, scale))
        assert (_bits(ours.statistic), _bits(ours.p_value)) == (
            _bits(theirs.statistic), _bits(theirs.pvalue))
        r = np.linalg.norm(gen.normal(0.0, scale * stretch, (n, 3)), axis=1)
        ours = stats_util.ks_test(gammainc(1.5, 0.5 * (np.sort(r) / scale) ** 2))
        theirs = stats.kstest(r, stats.chi(df=3, scale=scale).cdf)
        assert (_bits(ours.statistic), _bits(ours.p_value)) == (
            _bits(theirs.statistic), _bits(theirs.pvalue))


def test_linear_fit_equals_linregress():
    from scipy import stats

    gen = np.random.default_rng(7)
    cases = [(np.arange(11), gen.normal(size=11).cumsum()),
             (gen.uniform(size=500), 3.0 * gen.uniform(size=500) - 1.0),
             (np.arange(5.0), 2.0 * np.arange(5.0)),  # r clipped to 1
             (np.arange(4), np.full(4, 0.1)),  # constant y: r is NaN
             (np.arange(2), np.array([1.0, -1.0]))]
    for x, y in cases:
        slope, r = stats_util.linear_fit(x, y)
        fit = stats.linregress(x, y)
        assert (_bits(slope), _bits(r)) == (_bits(fit.slope), _bits(fit.rvalue))
    with pytest.raises(ValueError, match="all x values are identical"):
        stats_util.linear_fit(np.full(3, 2.0), np.arange(3.0))
    with pytest.raises(ValueError, match="identical"):
        stats.linregress(np.full(3, 2.0), np.arange(3.0))
    # one point has a single x value too
    with pytest.raises(ValueError, match="identical"):
        stats_util.linear_fit([1.0], [2.0])
