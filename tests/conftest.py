"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def _no_process_cap(monkeypatch):
    """Run every test without the shell's ``HB_THREADS``.

    The variable caps the walks' processes, so a developer's setting would
    change which process pools the fan-out tests see.
    """
    monkeypatch.delenv("HB_THREADS", raising=False)
