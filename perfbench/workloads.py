"""The two workloads: set-up, the timed loop, correctness checks and metrics.

``train``        default ModelConfig, batch 8, 32x32 patches, ``train_loop``
                 in identical rounds of ROUND_STEPS steps from the trained
                 default weights; carries tape recording, backward and Adam.
``codec_ctx``    default config with the mask-A context, 96x96 images; bound
                 by the pmf/CDF tables and the coder, and decode re-runs
                 ``context_fuse`` once per latent position.

Every run is a closed loop in one process: the next operation starts when
the previous one ends, until the next one would overrun ``seconds``. The
codec workloads run whole cycles over their images, so every image counts
equally however many cycles fit. End-to-end numbers come from untraced
operations. With tracing on, each untraced operation is followed by the
same operation traced, the pair's difference is the tracing overhead, and
one last operation runs under tracemalloc for the per-stage peaks.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import sys
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lhgm import distributions as D
from lhgm import model as M
from lhgm import train as TR
from lhgm.errors import WeightsDigestError
from lhgm.tensor import Tensor

import codec
import corpus
from trace import Tracer

HERE = Path(__file__).resolve().parent
WEIGHTS_DIR = HERE / "weights"

SETUP_REPEATS = 3
WARMUP_SIZE = 32

TRAIN_WEIGHTS = "default_ctx"
TRAIN_IMAGES, TRAIN_IMAGE_SIZE = 32, 64
ROUND_STEPS = 48

CODEC = {
    "codec_ctx": {"weights": "default_ctx", "size": 96, "images": 6},
}


@dataclass
class Result:
    """What one workload run measured; metric dicts map name -> (value, unit)."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)  # end to end, untraced operations
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)  # per layer, traced operations
    report: dict[str, tuple[float, str]] = field(default_factory=dict)  # printed under the design names (compress_s, train_step_s ...)
    notes: dict[str, object] = field(default_factory=dict)
    tracer: Tracer | None = None


def load_weights(name: str) -> tuple[bytes, M.ModelWeights]:
    """Weight bytes and model, after checking digest8() against the manifest."""
    entry = json.loads((WEIGHTS_DIR / "MANIFEST.json").read_text())[name]
    blob = (WEIGHTS_DIR / entry["file"]).read_bytes()
    weights = M.ModelWeights.deserialize(blob)
    if weights.digest8().hex() != entry["digest8"]:
        raise WeightsDigestError(
            f"{entry['file']}: digest8 {weights.digest8().hex()} differs from manifest {entry['digest8']}; "
            "retrain with perfbench/train_weights.py and commit the manifest")
    return blob, weights


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_setup(setup, import_s: float):
    """Run ``setup`` SETUP_REPEATS times; returns its last state and the set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        state = setup()
        times.append(perf_counter() - start)
    return state, import_s + statistics.median(times)


def _keep_going(start: float, seconds: float, durations: list[float], minimum: int) -> bool:
    if len(durations) < minimum:
        return True
    return perf_counter() - start + statistics.median(durations) <= seconds


def _overhead(pairs: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    """Median of traced minus untraced time over (untraced, traced) pairs of the same operation."""
    diffs = [t - u for u, t in pairs]
    return {"trace.overhead_s": (statistics.median(diffs), "s"),
            "trace.overhead_frac": (statistics.median(d / u for (u, _), d in zip(pairs, diffs)), "ratio")}


def _report_error(what: str) -> None:
    print(f"FAILED {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_config(seed: int, steps: int) -> TR.TrainConfig:
    return TR.TrainConfig(steps=steps, batch=8, patch=32, seed=seed, log_every=1)


def _train_round(blob: bytes, images, seed: int, steps: int):
    weights, rows = TR.train_loop(_train_config(seed, steps), images, weights=M.ModelWeights.deserialize(blob))
    walls = [r.wall_time for r in rows]
    step_s = [b - a for a, b in zip([0.0] + walls[:-1], walls)]
    bpsp = statistics.fmean((r.rate_x + r.rate_y + r.rate_z) / (3 * 32 * 32) for r in rows)
    finite = all(math.isfinite(r.total) for r in rows)
    return step_s, bpsp, weights.digest8(), finite


def run_train(seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    def setup():
        blob, _ = load_weights(TRAIN_WEIGHTS)
        images = corpus.make_corpus(seed, TRAIN_IMAGES, TRAIN_IMAGE_SIZE)
        _train_round(blob, images, seed, 1)
        return blob, images

    (blob, images), setup_s = _median_setup(setup, import_s)
    tracer = Tracer() if trace else None
    res = Result(tracer=tracer)
    untraced, traced = [], []
    pairs = []  # (untraced, traced) time of the same step in two rounds
    reference = None

    def one_round(traced_round: bool) -> list[float] | None:
        nonlocal reference
        if traced_round:
            tracer.install()
        res.attempted += 1
        try:
            step_s, bpsp, digest, finite = _train_round(blob, images, seed, ROUND_STEPS)
        except Exception:
            _report_error(f"training round {res.attempted}")
            res.failed += 1
            return None
        finally:
            if traced_round:
                tracer.uninstall()
        # every round repeats the same seeded run, so it must end in the same weights
        if reference is None:
            reference = (bpsp, digest)
        if not finite or (bpsp, digest) != reference:
            print(f"FAILED training round {res.attempted}: non-finite or not reproducible", file=sys.stderr)
            res.failed += 1
            return None
        (traced if traced_round else untraced).extend(step_s)
        return step_s

    pass_s = []  # one round, or with tracing one untraced and one traced round
    start = perf_counter()
    while _keep_going(start, seconds, pass_s, 1 if trace else 2):
        t0 = perf_counter()
        plain = one_round(False)
        if trace:
            with_trace = one_round(True)
            if plain and with_trace:
                pairs.extend(zip(plain, with_trace))
        pass_s.append(perf_counter() - t0)

    if not untraced or reference is None:
        print("FAILED: no training round completed; no metrics", file=sys.stderr)
        return res
    step = statistics.median(untraced)
    bpsp = reference[0]
    res.metrics = {"setup_s": (setup_s, "s"), "op_s": (step, "s"), "bpsp": (bpsp, "bits/sub-pixel"),
                   "peak_rss_mb": (_peak_rss_mb(), "MB")}
    res.report = {"train_step_s": (step, "s"),
                  f"train_step_s.p90 (n={len(untraced)})": (float(np.percentile(untraced, 90)), "s"),
                  "train_bpsp": (bpsp, "bits/sub-pixel")}
    if trace and pairs:
        memory = Tracer(memory=True)
        _with_tracemalloc(memory, lambda: _train_round(blob, images, seed, 2))
        res.layers = _layer_metrics(tracer, memory, n_ops=len(traced)) | _overhead(pairs)
        res.notes["self_s"] = _per_op(tracer.self_times(), len(traced))
    return res


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------


@dataclass
class RoundTrip:
    ok: bool
    data: bytes | None = None
    streams: codec.Streams | None = None
    compress_s: float = 0.0
    decompress_s: float = 0.0


def round_trip(image: np.ndarray, weights: M.ModelWeights, tracer: Tracer | None = None, tamper=None) -> RoundTrip:
    """Compress, decompress and compare; any exception or mismatch is a failure.

    ``tamper`` maps the container bytes before decoding (used by the tests).
    """
    def stage(name, fn, *args):
        return tracer.call(name, fn, *args) if tracer else fn(*args)

    try:
        t0 = perf_counter()
        streams = stage("codec.compress", codec.compress, image, weights)
        t1 = perf_counter()
        data = streams.to_bytes()
        if tamper is not None:
            data = tamper(data)
        out = stage("codec.decompress", codec.decompress, data, weights)
        t2 = perf_counter()
    except Exception:
        _report_error("round trip")
        return RoundTrip(ok=False)
    ok = out.shape == image.shape and np.array_equal(out, image)
    if not ok:
        print("FAILED round trip: decoded pixels differ from the input", file=sys.stderr)
    return RoundTrip(ok, data, streams, t1 - t0, t2 - t1)


def _estimated_bits(image: np.ndarray, weights: M.ModelWeights, streams: codec.Streams) -> dict[str, float]:
    """rate_bits of each stream under the model, with the container's alphabets."""
    header = codec.read_header(streams.header)
    x = Tensor(image.transpose(2, 0, 1)[None].astype(np.float64))
    out = M.forward(x, weights, "infer")
    return {
        "x": D.rate_bits(out.params_x, x, D.PIXEL_ALPHABET).item(),
        "y": D.rate_bits(out.params_y, out.y_q, header.y_alphabet).item(),
        "z": D.rate_bits(out.prior, out.z_q, header.z_alphabet).item(),
    }


@dataclass
class CodecRun:
    attempted: int = 0
    failed: int = 0
    first: dict[int, RoundTrip] = field(default_factory=dict)  # image index -> first good round trip
    untraced: dict[int, list[RoundTrip]] = field(default_factory=dict)  # image index -> its untraced round trips
    traced: list[tuple[int, RoundTrip]] = field(default_factory=list)
    pairs: list[tuple[float, float]] = field(default_factory=list)  # (untraced, traced) seconds, same image

    def check(self, i: int, rt: RoundTrip) -> bool:
        """Count one round trip of image ``i``; a failure or changed bytes counts as failed."""
        self.attempted += 1
        if rt.ok and i in self.first and rt.data != self.first[i].data:
            print(f"FAILED image {i}: compressed bytes changed between runs", file=sys.stderr)
            rt.ok = False
        if not rt.ok:
            self.failed += 1
            return False
        self.first.setdefault(i, rt)
        return True

    def per_image_median(self, stat) -> float:
        """Mean over images of the median of ``stat(round_trip)`` for each image."""
        return statistics.fmean(statistics.median(stat(rt) for rt in rts) for rts in self.untraced.values())


def codec_loop(images, weights: M.ModelWeights, seconds: float, tracer: Tracer | None = None,
               tamper=None) -> CodecRun:
    """Round-trip every image, in whole cycles, until the next cycle would overrun ``seconds``.

    At least one cycle runs. With a tracer, each image is round-tripped
    untraced and then traced. Failures are counted, never raised, so a
    broken decode cannot end the run.
    """
    run = CodecRun()
    cycle_s: list[float] = []
    start = perf_counter()
    while _keep_going(start, seconds, cycle_s, 1):
        t0 = perf_counter()
        for i, image in enumerate(images):
            plain = round_trip(image, weights, None, tamper)
            if run.check(i, plain):
                run.untraced.setdefault(i, []).append(plain)
            if tracer is None:
                continue
            tracer.op += 1
            tracer.install()
            try:
                traced = round_trip(image, weights, tracer, tamper)
            finally:
                tracer.uninstall()
            if run.check(i, traced):
                run.traced.append((i, traced))
                if plain.ok:
                    run.pairs.append((plain.compress_s + plain.decompress_s, traced.compress_s + traced.decompress_s))
        cycle_s.append(perf_counter() - t0)
    return run


def run_codec(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> Result:
    spec = CODEC[name]

    def setup():
        _, weights = load_weights(spec["weights"])
        images = corpus.make_corpus(seed, spec["images"], spec["size"])
        warm = round_trip(np.ascontiguousarray(images[0][:WARMUP_SIZE, :WARMUP_SIZE]), weights)
        if not warm.ok:
            raise RuntimeError("warm-up round trip failed")
        return weights, images

    (weights, images), setup_s = _median_setup(setup, import_s)
    tracer = Tracer() if trace else None
    run = codec_loop(images, weights, seconds, tracer)
    res = Result(attempted=run.attempted, failed=run.failed, tracer=tracer)
    if len(run.untraced) < len(images):
        print("FAILED: not every image completed a round trip; no metrics", file=sys.stderr)
        return res
    bits = sum(8 * len(rt.data) for rt in run.first.values())
    bpsp = bits / sum(img.size for img in images)
    op = run.per_image_median(lambda rt: rt.compress_s + rt.decompress_s)
    res.metrics = {"setup_s": (setup_s, "s"), "op_s": (op, "s"), "bpsp": (bpsp, "bits/sub-pixel"),
                   "peak_rss_mb": (_peak_rss_mb(), "MB")}
    res.report = {"compress_s": (run.per_image_median(lambda rt: rt.compress_s), "s/image"),
                  "decompress_s": (run.per_image_median(lambda rt: rt.decompress_s), "s/image"),
                  "bpsp": (bpsp, "bits/sub-pixel")}
    res.notes["untraced_s"] = {i: [[rt.compress_s, rt.decompress_s] for rt in rts] for i, rts in run.untraced.items()}
    if trace and run.pairs:
        memory = Tracer(memory=True)
        res.attempted += 1
        res.failed += not _with_tracemalloc(memory, lambda: round_trip(images[0], weights, memory).ok)
        res.layers = _layer_metrics(tracer, memory, n_ops=len(run.traced)) | _overhead(run.pairs)
        res.layers.update(_bit_metrics(images, weights, run))
        res.notes["self_s"] = _per_op(tracer.self_times(), len(run.traced))
        res.notes["share_of_compress"] = tracer.shares_of("codec.compress")
        res.notes["share_of_decompress"] = tracer.shares_of("codec.decompress")
    return res


def _bit_metrics(images, weights, run: CodecRun) -> dict[str, tuple[float, str]]:
    """Mean bits per traced image by stream, and payload bits above the model's estimate."""
    ids = [i for i, _ in run.traced]
    est = {i: _estimated_bits(images[i], weights, run.first[i].streams) for i in set(ids)}
    out = {}
    for stream in ("x", "y", "z", "header"):
        out[f"coder.bits.{stream}"] = (
            statistics.fmean(8 * len(getattr(run.first[i].streams, stream)) for i in ids), "bits")
    for stream in ("x", "y", "z"):
        out[f"coder.overhead_bits.{stream}"] = (
            statistics.fmean(8 * len(getattr(run.first[i].streams, stream)) - est[i][stream] for i in ids), "bits")
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SPAN_METRICS = (
    "tensor.backward", "tensor.bwd.conv2d", "tensor.bwd.conv2d_transposed", "tensor.bwd.masked_conv2d",
    "tensor.bwd.std_normal_cdf", "tensor.bwd.broadcast_to", "tensor.bwd.other",
    "tensor.fwd.conv2d", "tensor.fwd.conv2d_transposed", "tensor.fwd.masked_conv2d", "tensor.fwd.std_normal_cdf",
    "train.sample_patches", "train.loss", "train.adam_step", "model.forward", "distributions.rate_bits",
    "model.analysis", "model.hyper_analysis", "model.hyper_trunk", "model.synthesis", "model.y_params",
    "model.context_fuse", "distributions.mixture_pmf", "distributions.prior_pmf",
    "coder.quantize_cdf_batch", "coder.encode", "coder.decode", "codec.compress", "codec.decompress",
)
COUNT_METRICS = (
    "tensor.tape.records", "model.context_fuse.calls", "distributions.mixture_pmf.cells",
    "coder.quantize_cdf_batch.rows", "coder.encode.symbols", "coder.decode.symbols",
)
BIT_METRICS = tuple(f"coder.bits.{s}" for s in ("x", "y", "z", "header")) + tuple(
    f"coder.overhead_bits.{s}" for s in ("x", "y", "z"))


def _per_op(totals: dict[str, float], n_ops: int) -> dict[str, float]:
    return {k: v / n_ops for k, v in sorted(totals.items())}


def _with_tracemalloc(tracer: Tracer, op):
    tracemalloc.start()
    tracer.install()
    try:
        return op()
    finally:
        tracer.uninstall()
        tracemalloc.stop()


def _layer_metrics(tracer: Tracer, memory: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    inclusive = tracer.inclusive()
    out = {f"{name}.s": (inclusive.get(name, 0.0) / n_ops, "s") for name in SPAN_METRICS}
    out.update({name: (tracer.counters.get(name, 0.0) / n_ops, "count") for name in COUNT_METRICS})
    out["coder.decode.provider_s"] = (tracer.counters.get("coder.decode.provider_s", 0.0) / n_ops, "s")
    computed = tracer.counters.get("model.context_fuse.computed", 0.0)
    useful = sum(tracer.context_passes.values())
    out["model.context_fuse.useful_frac"] = (useful / computed if computed else 0.0, "ratio")
    out["distributions.mixture_pmf.peak_mb"] = (memory.peaks.get("distributions.mixture_pmf", 0.0), "MB")
    out.update({name: (0.0, "bits") for name in BIT_METRICS})
    return out
