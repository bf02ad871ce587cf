import numpy as np
import pytest

import corpus
import workloads
from lhgm import coder, distributions, model, tensor, train
from trace import Tracer

PATCHED = [(tensor, "conv2d"), (tensor, "backward"), (tensor.GradTape, "record"), (model, "context_fuse"),
           (model, "forward"), (distributions, "mixture_pmf"), (distributions.FactorizedPrior, "pmf"),
           (coder, "decode"), (coder, "encode"), (train, "sample_patches"), (train, "adam_step")]


def test_uninstall_restores_every_original():
    before = [getattr(owner, name) for owner, name in PATCHED]
    tracer = Tracer()
    tracer.install()
    assert all(getattr(o, n) is not b for (o, n), b in zip(PATCHED, before))
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    assert all(getattr(o, n) is b for (o, n), b in zip(PATCHED, before))


def test_traced_context_round_trip_counts_recomputed_positions():
    weights = model.init_weights(model.ModelConfig.tiny(context_model=True), seed=1)
    img = corpus.make_corpus(2, 1, 32)[0]
    tracer = Tracer()
    tracer.install()
    try:
        rt = workloads.round_trip(img, weights, tracer)
    finally:
        tracer.uninstall()
    assert rt.ok
    positions = (32 // 4) ** 2
    # one whole-plane call to compress, one per position to decompress
    assert tracer.counters["model.context_fuse.calls"] == 1 + positions
    assert sum(tracer.context_passes.values()) == 2 * positions
    assert tracer.counters["coder.decode.symbols"] == tracer.counters["coder.encode.symbols"]
    shares = tracer.shares_of("codec.decompress")
    assert 0.0 < shares["model.context_fuse"] < 1.0
    assert all(share <= 1.0 + 1e-9 for share in shares.values())
    own, total = tracer.self_times(), tracer.inclusive()
    assert sum(own.values()) == pytest.approx(total["codec.compress"] + total["codec.decompress"])


def test_traced_training_step_times_backward_closures():
    imgs = corpus.make_corpus(0, 2, 32)
    tracer = Tracer()
    tracer.install()
    try:
        train.train_loop(train.TrainConfig(steps=2, batch=2, patch=32, log_every=1), imgs,
                         model.ModelConfig.tiny(context_model=True))
    finally:
        tracer.uninstall()
    assert tracer.op == 1
    names = {s[0] for s in tracer.spans}
    assert {"tensor.bwd.conv2d", "tensor.bwd.masked_conv2d", "tensor.bwd.other", "tensor.backward",
            "train.adam_step", "model.forward", "distributions.rate_bits"} <= names
    assert tracer.counters["tensor.tape.records"] == sum(1 for s in tracer.spans if s[0].startswith("tensor.bwd."))


def test_memory_peaks_cover_the_pmf_table():
    import tracemalloc

    tracer = Tracer(memory=True)
    rows, k = 64, 3
    tracemalloc.start()
    tracer.install()
    try:
        distributions.mixture_pmf(np.full((rows, k), 1 / k), np.zeros((rows, k)), np.ones((rows, k)),
                                  distributions.PIXEL_ALPHABET)
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    assert tracer.peaks["distributions.mixture_pmf"] >= rows * k * 256 * 8 / 2**20
