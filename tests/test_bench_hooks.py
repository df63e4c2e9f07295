"""The names the benchmark's tracer rebinds, and the spans it expects from them.

``perfbench/tracing.py`` times the package by rebinding module attributes:
``run_chain`` and ``geweke_joint_test`` must call ``gibbs.<model>_step`` and
``verification.<model>_step`` through their modules, ``batch_transition``
must take ``replicates`` as its seventh positional argument, and
``draw_scales`` its magnitudes as its first.  These tests install the tracer
(read only, never edited) and check the spans those calls leave.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import plgibbs
from plgibbs import ergodicity, verification
from plgibbs.distributions import RngStream
from plgibbs.model_core import GroupStructure, SparseGroupState

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

SCALE_BLOCKS = {"bfl": 2, "bgl": 1, "bsgl": 2}


class _CountingClock:
    """Stands in for the benchmark's calibration clock and counts its marks."""

    def __init__(self):
        self.marks = 0

    def mark(self, force=True):
        self.marks += 1


@pytest.fixture
def traced():
    tracer = tracing.Tracer()
    clock = _CountingClock()
    try:
        # Installing raises AttributeError if a name it rebinds is gone.
        tracing.install_chain_timers(tracer, clock)
        tracing.install_layer_spans(tracer)
        yield tracer, clock
    finally:
        tracer.restore()


def _children(spans, parent_index, name):
    return [i for i, s in enumerate(spans) if s.parent == parent_index and s.name == name]


def test_chain_sweeps_and_scale_blocks(traced, small_data, hyper, groups22):
    tracer, clock = traced
    for model in ("bfl", "bgl", "bsgl"):
        plgibbs.run_chain(model, small_data, hyper, groups=None if model == "bfl" else groups22,
                          config=plgibbs.ChainConfig(n_iter=5, burn_in=0, init_mode="zero"))
    spans = tracer.take()
    chains = [i for i, s in enumerate(spans) if s.name == "gibbs.run_chain"]
    assert [spans[i].model for i in chains] == [None, None, None]
    for model, chain in zip(("bfl", "bgl", "bsgl"), chains):
        steps = _children(spans, chain, "gibbs.step")
        assert len(steps) == 5
        assert {spans[i].model for i in steps} == {model}
        for step in steps:
            assert len(_children(spans, step, "distributions.scales")) == SCALE_BLOCKS[model]
    # a calibration tick after every sweep, plus the marks around each chain
    assert clock.marks >= 15


def test_geweke_steps_through_verification(traced):
    tracer, _ = traced
    result = verification.geweke_joint_test("bgl", n=4, p=3, groups=GroupStructure((2, 1)),
                                            replicates=1000, rng=RngStream(3, 100))
    assert np.isfinite(result.statistics["max_abs_z"])
    steps = Counter(s.model for s in tracer.take() if s.name == "gibbs.step" and s.parent is None)
    assert steps == {"bgl": 1000 * 3}


def test_drift_check_transition(traced, small_data, hyper, groups22):
    tracer, _ = traced
    state = SparseGroupState(np.array([0.5, -1.0, 0.0, 2.0]), np.ones(2), np.ones(4), 1.0)
    ergodicity.empirical_drift_check("bsgl", [state], small_data, hyper, groups=groups22,
                                     replicates=1000, rng=RngStream(4, 0))
    spans = tracer.take()
    transitions = [s for s in spans if s.name == "ergodicity.transition"]
    assert [s.count for s in transitions] == [1000]
    scale_calls = [s for s in spans if s.name == "distributions.scales"]
    assert [s.total for s in scale_calls] == [1000 * 2, 1000 * 4]

