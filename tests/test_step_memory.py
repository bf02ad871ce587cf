"""tools/step_memory.py: one seeded step's tracemalloc peak, the bytes held at backward start, and the peak's op."""

import importlib.util
from pathlib import Path

import lhgm.distributions as D
import lhgm.tensor as T
from lhgm.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("step_memory", ROOT / "tools" / "step_memory.py")
step_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(step_memory)


def test_one_tiny_step_reports_peak_held_bytes_and_the_peak_op():
    backward, record = T.backward, T.GradTape.record
    result = step_memory.measure(32, ModelConfig.tiny())
    assert (T.backward, T.GradTape.record) == (backward, record)  # the probes are taken out again
    assert set(result) == {"batch", "patch", "peak_mib", "held_at_backward_mib", "peak_op"}
    assert (result["batch"], result["patch"]) == (8, 32)
    assert 0.0 < result["held_at_backward_mib"] <= result["peak_mib"] < 13.0
    op = result["peak_op"]
    assert op in ("forward", "backward", "update") or hasattr(T, op) or hasattr(D, op), op
