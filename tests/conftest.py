import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("default", max_examples=50, deadline=None)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def full_length(monkeypatch):
    """Zero stopping tolerances, so that a solve runs its whole iteration budget."""
    import dcot.solver

    monkeypatch.setattr(dcot.solver, "_TOL_PRIMAL_REL", 0.0)
    monkeypatch.setattr(dcot.solver, "_TOL_STEP", 0.0)


class TracedMemory:
    """Traced sizes in bytes above ``base``, the traced size at the last mark."""

    def __init__(self):
        self.base = tracemalloc.get_traced_memory()[0]
        self.peak = 0

    def mark(self):
        """Count later peaks from here: reset the peak and move ``base`` to now."""
        tracemalloc.reset_peak()
        self.base = tracemalloc.get_traced_memory()[0]

    def peak_so_far(self):
        return tracemalloc.get_traced_memory()[1] - self.base


@contextlib.contextmanager
def traced_memory():
    """Trace Python and numpy allocations for the block.

    Yields a :class:`TracedMemory` whose ``base`` is the traced size at the
    start.  On a normal exit its ``peak`` is the traced peak in bytes above
    ``base`` (above the last :meth:`TracedMemory.mark`, if any).  Tracing
    stops however the block ends.
    """
    tracemalloc.start()
    try:
        record = TracedMemory()
        yield record
        record.peak = record.peak_so_far()
    finally:
        tracemalloc.stop()
