"""The process fan-out that walks trial ranges in forked processes."""

import multiprocessing
import os

import numpy as np
import pytest

from hilbertbridge import stats_util


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
