"""Fixtures shared by every test module."""

import multiprocessing.context

import pytest


@pytest.fixture(autouse=True)
def _no_process_cap(monkeypatch):
    """Run every test without the shell's ``HB_THREADS``.

    The variable caps the walks' processes, so a developer's setting would
    change which forked processes the fan-out tests see.
    """
    monkeypatch.delenv("HB_THREADS", raising=False)


@pytest.fixture
def forks(monkeypatch):
    """The trial ranges ``(lo, hi)`` of the processes ``stream_ranges`` forks, in order."""
    started = []

    class Recorded(multiprocessing.context.ForkProcess):
        def __init__(self, *, target, args, daemon):
            _, count, offset, _ = args
            started.append((offset, offset + count))
            super().__init__(target=target, args=args, daemon=daemon)

    monkeypatch.setattr(multiprocessing.context.ForkContext, "Process", Recorded)
    return started
