import importlib.util
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "solver_fingerprint.py"
_spec = importlib.util.spec_from_file_location("solver_fingerprint", SCRIPT)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)

HASH_A = "a" * 64
HASH_B = "b" * 64


def line(digest=HASH_A, lagrangian="0.5", iters=40, reason="max_iters"):
    return f"{digest} lagrangian={lagrangian} iters={iters} reason={reason}"


class TestCompareLine:
    def test_identical_lines_pass(self):
        verdict, ok = fingerprint.compare_line(line(), line())
        assert ok
        assert verdict == "hash=equal lagrangian_rel=0.0e+00 iters=same reason=same ok"

    def test_rounding_level_move_passes_with_differing_hash(self):
        verdict, ok = fingerprint.compare_line(
            line(lagrangian="0.04841443672000606"),
            line(HASH_B, lagrangian="0.04841443672000605"))
        assert ok
        assert verdict.startswith("hash=differs lagrangian_rel=1.4e-16")

    @pytest.mark.parametrize("change", [
        line(lagrangian="0.5000000001"),
        line(iters=41),
        line(reason="tolerance"),
        line(lagrangian="nan"),
        "error SolverAbort: z block",
    ])
    def test_moved_answers_fail(self, change):
        verdict, ok = fingerprint.compare_line(line(), change)
        assert not ok
        assert "FAIL" in verdict

    def test_zero_parent_lagrangian(self):
        assert fingerprint.compare_line(line(lagrangian="0.0"), line(lagrangian="0.0"))[1]
        assert not fingerprint.compare_line(line(lagrangian="0.0"),
                                            line(lagrangian="1e-300"))[1]

    def test_failing_case_must_fail_the_same_way(self):
        text = "error SolverAbort: z block"
        assert fingerprint.compare_line(text, text) == ("failure unchanged", True)
        assert not fingerprint.compare_line(text, "error SolverAbort: y block")[1]


def test_saturated_bernoulli_case_runs_newton_past_one_step():
    # the case exists to cover the sigmoid's saturated range: every sweep's
    # z step takes more than one Newton step, and logits end beyond 10
    res = fingerprint.run_case(*fingerprint.CASES["bernoulli-planted-x100"], 1)
    assert len(res.newton_steps) == fingerprint.ITERS
    assert min(res.newton_steps) >= 2
    assert np.abs(res.z).max() > 10.0
