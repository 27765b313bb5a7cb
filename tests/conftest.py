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
