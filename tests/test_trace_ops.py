"""perfbench/trace.py: every op it times by name is an lhgm.tensor op that records a closure of that name.

The tracer sorts backward time into ``tensor.bwd.<op>`` by the first part of
the recorded closure's ``__qualname__`` and everything else into
``tensor.bwd.other``; an op whose closure lost its name would move there
without any error.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import lhgm.distributions as D
import lhgm.tensor as T
from lhgm.tensor import Tensor

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_trace", Path(__file__).resolve().parents[1] / "perfbench" / "trace.py")
trace = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace)

TIMED_OPS = tuple(dict.fromkeys(trace.TIMED_FWD_OPS + trace.TIMED_BWD_OPS))
RNG = np.random.default_rng(8)


def leaf(*shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


CALLS = {
    "conv2d": lambda: T.conv2d(leaf(1, 2, 5, 5), leaf(3, 2, 3, 3), leaf(3)),
    "conv2d_transposed": lambda: T.conv2d_transposed(leaf(1, 2, 3, 3), leaf(2, 3, 4, 4), leaf(3)),
    "masked_conv2d": lambda: T.masked_conv2d(leaf(1, 2, 5, 5), leaf(3, 2, 5, 5), leaf(3)),
    "std_normal_cdf": lambda: T.std_normal_cdf(leaf(4)),
    "broadcast_to": lambda: T.broadcast_to(leaf(1, 4), (3, 4)),
}


class RecordingTape(T.GradTape):
    def __init__(self):
        super().__init__()
        self.qualnames: list[str] = []

    def record(self, out, backward_fn):
        self.qualnames.append(backward_fn.__qualname__)
        super().record(out, backward_fn)


@pytest.mark.parametrize("op", trace.TIMED_FWD_OPS)
def test_timed_forward_op_is_a_tensor_attribute(op):
    assert callable(getattr(T, op, None))


@pytest.mark.parametrize("op", TIMED_OPS)
def test_timed_op_records_a_closure_named_after_it(op):
    with RecordingTape() as tape:
        CALLS[op]()
    assert [name.split(".", 1)[0] for name in tape.qualnames] == [op]


def test_threaded_mixture_pmf_records_one_span(monkeypatch):
    # the tracer's span stack is not thread-safe: nothing it wraps may run in a pmf worker
    monkeypatch.setattr(D, "_usable_cpus", lambda: 2)
    rows = 2 * D._PMF_BLOCK_ROWS + 1  # three blocks
    weights = np.full((rows, 3), 1.0 / 3.0)
    means, scales = RNG.uniform(0.0, 255.0, size=(rows, 3)), RNG.uniform(0.5, 50.0, size=(rows, 3))
    tracer = trace.Tracer()
    tracer.install()
    try:
        D.mixture_pmf(weights, means, scales, D.PIXEL_ALPHABET)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["distributions.mixture_pmf"]
    assert tracer._stack == []
