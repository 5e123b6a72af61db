"""The process fan-out that walks trial ranges in forked processes."""

import multiprocessing

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
        stats_util.walk_ranges(_fail_past_first_range, 30, 10)
    assert not multiprocessing.active_children()
