"""Spans around calls into the library, for the benchmark's traced run.

``Tracer.install`` replaces public functions of ``lhgm.tensor``,
``lhgm.model``, ``lhgm.distributions``, ``lhgm.coder`` and ``lhgm.train``
with timing wrappers and wraps every backward closure handed to
``GradTape.record``; ``uninstall`` puts the originals back. Nothing under
``src/`` is edited, and the untraced runs never install the wrappers.

A span is (name, start, end, parent index, operation id). Spans stay in
memory and are written out once, at the end of the run. Per-call work
counts (symbols, rows, cells, positions) are added to counters. The CDF
provider called once per coded symbol is too fine for spans; its time is
summed into a counter instead.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import defaultdict
from time import perf_counter

from lhgm import coder, distributions, model, tensor, train

TIMED_BWD_OPS = ("conv2d", "conv2d_transposed", "masked_conv2d", "std_normal_cdf", "broadcast_to")
TIMED_FWD_OPS = ("conv2d", "conv2d_transposed", "masked_conv2d", "std_normal_cdf")


class Tracer:
    """Spans and counters of one run; ``memory`` also records tracemalloc peaks per span.

    With ``memory`` on, the caller must have started tracemalloc.
    """

    def __init__(self, memory: bool = False):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)  # name -> MB above entry
        self.op = -1
        self.memory = memory
        self._stack: list[int] = []
        self._mem_stack: list[list[int]] = []  # [bytes at entry, highest peak seen]
        self._saved: list[tuple[object, str, object]] = []
        self.context_passes: dict[int, int] = {}  # root span -> positions one pass needs
        self.provider_s: dict[str, float] = defaultdict(float)  # root span name -> time in CDF providers

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], peak)
            tracemalloc.reset_peak()
            self._mem_stack.append([current, current])
        return idx

    def exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()
        if self.memory:
            entry, seen = self._mem_stack.pop()
            seen = max(seen, tracemalloc.get_traced_memory()[1])
            if self._mem_stack:
                self._mem_stack[-1][1] = max(self._mem_stack[-1][1], seen)
            name = self.spans[idx][0]
            self.peaks[name] = max(self.peaks[name], (seen - entry) / 2**20)

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(idx)

    # -- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            idx = self.enter(name)
            try:
                out = original(*args, **kwargs)
            finally:
                self.exit(idx)
            if count is not None:
                for key, value in count(args, out).items():
                    self.counters[key] += value
            return out

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for op in TIMED_FWD_OPS:
            self._timed(tensor, op, f"tensor.fwd.{op}")
        self._timed(tensor, "backward", "tensor.backward")
        self._patch(tensor.GradTape, "record", self._record_wrapper(tensor.GradTape.record))

        for fn in ("forward", "analysis", "hyper_analysis", "hyper_trunk", "synthesis"):
            self._timed(model, fn, f"model.{fn}")
        self._timed(model, "y_mixture_params", "model.y_params")
        self._patch(model, "context_fuse", self._context_wrapper(model.context_fuse))

        self._timed(distributions, "mixture_pmf", "distributions.mixture_pmf",
                    lambda a, out: {"distributions.mixture_pmf.cells": a[1].size * out.shape[1]})
        self._timed(distributions, "rate_bits", "distributions.rate_bits")
        self._timed(distributions.FactorizedPrior, "pmf", "distributions.prior_pmf")

        self._timed(coder, "quantize_cdf_batch", "coder.quantize_cdf_batch",
                    lambda a, out: {"coder.quantize_cdf_batch.rows": out.shape[0]})
        self._timed(coder, "encode", "coder.encode", lambda a, out: {"coder.encode.symbols": out.count})
        self._patch(coder, "decode", self._decode_wrapper(coder.decode))

        for fn in ("loss", "adam_step"):
            self._timed(train, fn, f"train.{fn}")
        sample_patches = train.sample_patches

        def next_step(*args, **kwargs):
            self.op += 1  # every training step starts by sampling its batch
            return self.call("train.sample_patches", sample_patches, *args, **kwargs)

        self._patch(train, "sample_patches", next_step)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _record_wrapper(self, original):
        tracer = self

        def record(tape, out, backward_fn):
            op = backward_fn.__qualname__.split(".", 1)[0]
            name = f"tensor.bwd.{op if op in TIMED_BWD_OPS else 'other'}"

            def timed(g):
                idx = tracer.enter(name)
                try:
                    backward_fn(g)
                finally:
                    tracer.exit(idx)

            tracer.counters["tensor.tape.records"] += 1
            original(tape, out, timed)

        return record

    def _context_wrapper(self, original):
        tracer = self

        def context_fuse(y_q, hyper_feat, w):
            out = tracer.call("model.context_fuse", original, y_q, hyper_feat, w)
            n, _, h, wd = y_q.shape
            tracer.counters["model.context_fuse.calls"] += 1
            tracer.counters["model.context_fuse.computed"] += n * h * wd
            # one pass (a compress, a decompress or a training forward) needs
            # each position's parameters once; further calls recompute them
            tracer.context_passes[tracer._stack[0] if tracer._stack else -1] = n * h * wd
            return out

        return context_fuse

    def _decode_wrapper(self, original):
        tracer = self

        def decode(stream, cdfs, count):
            inside = [0.0]

            def provider(i, prev):
                start = perf_counter()
                try:
                    return cdfs(i, prev)
                finally:
                    inside[0] += perf_counter() - start

            root = tracer.spans[tracer._stack[0]][0] if tracer._stack else ""
            try:
                out = tracer.call("coder.decode", original, stream, provider, count)
            finally:
                tracer.counters["coder.decode.provider_s"] += inside[0]
                tracer.provider_s[root] += inside[0]
            tracer.counters["coder.decode.symbols"] += len(out)
            return out

        return decode

    # -- summaries ---------------------------------------------------------

    def inclusive(self) -> dict[str, float]:
        """Summed span durations by name."""
        total: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        return total

    def self_times(self) -> dict[str, float]:
        """Summed durations by name minus the time their direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        total: dict[str, float] = defaultdict(float)
        for span, t in zip(self.spans, own):
            total[span[0]] += t
        return total

    def shares_of(self, root: str) -> dict[str, float]:
        """Inclusive time of every span name below ``root`` spans, as a share of ``root``.

        ``coder.decode`` is given without the time spent in its CDF provider,
        which holds the context model's work during decoding.
        """
        parents = [s[3] for s in self.spans]
        root_ids = {i for i, s in enumerate(self.spans) if s[0] == root}
        if not root_ids:
            return {}
        root_total = sum(self.spans[i][2] - self.spans[i][1] for i in root_ids)
        below: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            j = parents[i]
            seen = set()
            while j >= 0 and j not in root_ids:
                seen.add(self.spans[j][0])
                j = parents[j]
            # count each name once per chain so nested same-name spans are not doubled
            if j >= 0 and name not in seen:
                below[name] += end - start
        if "coder.decode" in below:
            below["coder.decode (self)"] = below.pop("coder.decode") - self.provider_s[root]
        return {name: t / root_total for name, t in sorted(below.items(), key=lambda kv: -kv[1])}

    def write(self, path, summary: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 7), round(e - t0, 7), p, op] for n, s, e, p, op in self.spans]
        with open(path, "w") as f:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": rows, "summary": summary}, f)

