"""tools/step_memory.py: the first seeded step's tracemalloc peak, the bytes held at its backward start and the peak's
op, and the bytes the loop holds between steps."""

import importlib.util
from pathlib import Path

import lhgm.distributions as D
import lhgm.model as M
import lhgm.tensor as T
import lhgm.train as TR
from lhgm.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("step_memory", ROOT / "tools" / "step_memory.py")
step_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_memory)


def test_one_tiny_step_reports_peak_held_bytes_and_the_peak_op():
    backward, record, sample = T.backward, T.GradTape.record, TR.sample_patches
    result = step_memory.measure(32, ModelConfig.tiny())
    assert (T.backward, T.GradTape.record, TR.sample_patches) == (backward, record, sample)  # the probes are out
    assert set(result) == {"batch", "patch", "peak_mib", "held_at_backward_mib", "peak_op", "held_between_steps_mib",
                           "peak_rss_mib", "scipy_loaded"}
    assert (result["batch"], result["patch"]) == (8, 32)
    assert result["peak_rss_mib"] > result["peak_mib"]
    assert result["scipy_loaded"] is True  # this suite's own modules import scipy; the tool's process does not
    assert 0.0 < result["held_at_backward_mib"] <= result["peak_mib"] < 13.0
    op = result["peak_op"]
    assert op in ("forward", "backward", "update") or hasattr(T, op) or hasattr(D, op), op


def test_between_steps_the_loop_holds_adams_moments_and_no_gradients():
    # two float64 moments per parameter, at most: a float64 gradient, or the float32 copy of the weights and its
    # gradients, kept from one step to the next would add at least half as much again
    params = sum(t.size for t in M.init_weights(ModelConfig.tiny(), seed=0).tensors.values())
    moments_mib = 2 * 8 * params / step_memory.MIB
    held = step_memory.measure(32, ModelConfig.tiny())["held_between_steps_mib"]
    assert 0.5 * moments_mib < held <= moments_mib + 0.02, (held, moments_mib)
