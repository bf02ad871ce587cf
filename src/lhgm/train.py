"""Loss assembly, L2 warm-up schedule, Adam, patch sampling, training loop.

The loss is the code length in bits for x, y and z plus an L2 pull
between predicted mixture means and their targets, weighted by a lambda
that is constant during warm-up and zero afterwards. Rates and L2 terms
are averaged over the batch dimension only, so lambda is batch-size-free.

Paper-scale recipe for reference: 6.8e5 steps (warm-up 8e4), batch 8,
128x128 patches, Adam at 1e-4 dropped to 1e-5 for the last 8e4 steps.
The desk-scale defaults keep every formula (two-phase schedule with a 10x
drop over the last 16%, warm-up over the first 12%) but shrink the run to
5000 steps and scale the learning rate up to 1e-3 so the short run can
actually traverse parameter space; see the config docstring.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, fields

import numpy as np

from . import distributions as D
from . import model as M
from . import tensor as T
from .errors import TrainingDivergedError
from .model import ForwardOutputs, ModelConfig, ModelWeights
from .tensor import GradTape, Tensor

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    """Desk-scale defaults; paper values in the module docstring.

    ``steps``/``warmup_steps``/``lr_switch_step`` keep the paper's
    proportions (12% warm-up, final 16% at lr/10). lambda_warm=0.6 is the
    paper's warm-up weight and is never rescaled.
    """

    steps: int = 5000
    warmup_steps: int = 600
    lambda_warm: float = 0.6
    batch: int = 8
    patch: int = 32
    lr: float = 1e-3
    lr_final: float = 1e-4
    lr_switch_step: int = 4200
    seed: int = 0
    log_every: int = 50

    def to_text(self) -> str:
        return "".join(f"{f.name} = {getattr(self, f.name)}\n" for f in fields(self))


@dataclass
class LossBreakdown:
    """Loss components; total is composed exactly as rate + lambda * L2."""

    rate_x: Tensor
    rate_y: Tensor
    rate_z: Tensor
    l2_x: Tensor
    l2_y: Tensor
    lam: float
    total: Tensor
    floor_hits: int  # probabilities below D.LIKELIHOOD_FLOOR over x, y and z


def lambda_schedule(step: int, config: TrainConfig) -> float:
    """Warm-up weight: lambda_warm before warmup_steps, zero afterwards."""
    return config.lambda_warm if step < config.warmup_steps else 0.0


def loss(outputs: ForwardOutputs, x: Tensor, step: int, config: TrainConfig) -> LossBreakdown:
    """Rate-plus-L2 objective on train-mode outputs, averaged per image."""
    n = x.shape[0]
    inv_n = 1.0 / n
    hits: list[int] = []
    rate_x = D.rate_bits(outputs.params_x, x, D.PIXEL_ALPHABET, floor_hits=hits) * inv_n
    rate_y = D.rate_bits(outputs.params_y, outputs.y_q, floor_hits=hits) * inv_n
    rate_z = D.rate_bits(outputs.prior, outputs.z_q, floor_hits=hits) * inv_n
    mu_x = D.mixture_mean(outputs.params_x)
    mu_y = D.mixture_mean(outputs.params_y)
    # x-side squared error is taken in the network's normalized pixel units
    # so lambda_warm keeps one scale across the x and y terms
    dx = (mu_x - x) * (1.0 / 127.5)
    dy = mu_y - outputs.y_q
    l2_x = T.reduce_sum(dx * dx) * inv_n
    l2_y = T.reduce_sum(dy * dy) * inv_n
    lam = lambda_schedule(step, config)
    total = rate_x + rate_y + rate_z + lam * (l2_x + l2_y)
    return LossBreakdown(rate_x, rate_y, rate_z, l2_x, l2_y, lam, total, sum(hits))


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    skipped: int = 0

    @classmethod
    def init(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
            t=0,
        )


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """Standard bias-corrected Adam update; a NaN in any grad skips the step."""
    for g in grads.values():
        if g is not None and not np.all(np.isfinite(g)):
            state.skipped += 1
            log.warning("skipping optimizer step %d: non-finite gradient", state.t + 1)
            return
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def sample_patches(corpus, patch: int, batch: int, rng: np.random.Generator) -> Tensor:
    """Uniform random crops as a [batch, 3, patch, patch] tensor of raw pixels."""
    eligible = []
    for i, img in enumerate(corpus):
        h, w, c = img.shape
        if c != 3:
            raise ValueError(f"corpus image {i} is not RGB")
        if h >= patch and w >= patch:
            eligible.append(img)
        else:
            log.warning("skipping corpus image %d: %dx%d smaller than patch %d", i, h, w, patch)
    if not eligible:
        raise ValueError(f"no corpus image is at least {patch}x{patch}")
    out = np.empty((batch, 3, patch, patch), dtype=np.float64)
    for b in range(batch):
        img = eligible[int(rng.integers(len(eligible)))]
        top = int(rng.integers(img.shape[0] - patch + 1))
        left = int(rng.integers(img.shape[1] - patch + 1))
        crop = img[top : top + patch, left : left + patch]
        out[b] = crop.transpose(2, 0, 1)
    return Tensor(out)


@dataclass
class MetricsRow:
    step: int
    rate_x: float
    rate_y: float
    rate_z: float
    l2_x: float
    l2_y: float
    lam: float
    total: float
    floor_hits: int
    wall_time: float

    def csv_line(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))


METRICS_HEADER = ",".join(f.name for f in fields(MetricsRow))


def write_metrics(rows, path) -> None:
    with open(path, "w") as f:
        f.write(METRICS_HEADER + "\n")
        for row in rows:
            f.write(row.csv_line() + "\n")


def train_loop(
    config: TrainConfig,
    corpus,
    model_config: ModelConfig | None = None,
    weights: ModelWeights | None = None,
) -> tuple[ModelWeights, list[MetricsRow]]:
    """Run the optimization; returns final weights plus the metrics records.

    Reproducibility contract: the seed fixes weight init, crop sequence and
    quantization noise, so two runs with identical (config, corpus) produce
    bitwise-identical weights.
    """
    root = np.random.SeedSequence(config.seed)
    init_seq, crop_seq, noise_seq = root.spawn(3)
    if weights is None:
        weights = M.init_weights(model_config or ModelConfig(), seed=init_seq)
    crop_rng = np.random.default_rng(crop_seq)
    noise_rng = np.random.default_rng(noise_seq)

    params = weights.parameters()
    state = AdamState.init(params)
    metrics: list[MetricsRow] = []
    start = time.monotonic()
    initial_total = None
    high_loss_streak = 0

    for step in range(config.steps):
        lr = config.lr if step < config.lr_switch_step else config.lr_final
        x = sample_patches(corpus, config.patch, config.batch, crop_rng)
        for p in params.values():
            p.grad = None
        with GradTape():
            out = M.forward(x, weights, "train", rng=noise_rng)
            lb = loss(out, x, step, config)
            T.backward(lb.total)

        total = lb.total.item()
        if initial_total is None and np.isfinite(total):
            initial_total = total
        if initial_total is not None and (not np.isfinite(total) or total > 10.0 * initial_total):
            high_loss_streak += 1
            if high_loss_streak >= 100:
                raise TrainingDivergedError(
                    f"loss {total:.3e} above 10x initial {initial_total:.3e} "
                    f"for {high_loss_streak} consecutive steps (step {step})"
                )
        else:
            high_loss_streak = 0

        grads = {name: p.grad for name, p in params.items()}
        adam_step(params, grads, state, lr)

        if (step % config.log_every == 0) or step == config.steps - 1:
            losses = {f.name: getattr(lb, f.name) for f in fields(lb)}
            losses = {k: v.item() if isinstance(v, Tensor) else v for k, v in losses.items()}
            metrics.append(MetricsRow(step=step, wall_time=time.monotonic() - start, **losses))

    if state.skipped:
        log.warning("training finished with %d skipped steps", state.skipped)
    return weights, metrics
