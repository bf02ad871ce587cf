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

Each step computes in float32 and keeps its state in float64, the usual
mixed-precision recipe (Micikevicius et al., arXiv:1710.03740): forward,
loss and backward run on a float32 copy of the weights and a float32
batch, each float32 gradient is cast to float64 on its master parameter,
and Adam updates the float64 weights from float64 moments. The weights a
run returns, their file and everything the codec computes stay float64.
A master parameter's gradient lives from that float32-to-float64 cast until
Adam and the step's metrics row have read it; the float32 copy, its
gradients and the batch are gone before then, so between steps the loop
holds the weights and Adam's moments alone.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import distributions as D
from . import model as M
from . import tensor as T
from .errors import TrainingDivergedError
from .model import ForwardOutputs, ModelConfig, ModelWeights, check_fields
from .tensor import GradTape, Tensor

log = logging.getLogger(__name__)
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8  # Adam's standard moment decays and denominator floor


@dataclass
class TrainConfig:
    """Desk-scale defaults; paper values in the module docstring.

    ``steps``/``warmup_steps``/``lr_switch_step`` keep the paper's
    proportions (12% warm-up, final 16% at lr/10). lambda_warm=0.6 is the
    paper's warm-up weight and is never rescaled. Field rule (:func:`lhgm.model.check_fields`):
    exactly the declared types, all finite, steps, batch, patch, log_every >= 1, the rest >= 0.
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

    def __post_init__(self):
        check_fields(self, "train config",
                     {f.name: 1 if f.name in ("steps", "batch", "patch", "log_every") else 0 for f in fields(self)})

    to_text = ModelConfig.to_text


@dataclass
class MetricsRow:
    """One training step's loss terms, as floats, and the run's state after that step.

    ``loss`` fills the terms (total is rate + lam * L2); ``train_loop`` fills the rest at log steps.
    """

    rate_x: float
    rate_y: float
    rate_z: float
    l2_x: float
    l2_y: float
    lam: float
    total: float
    floor_hits: int  # probabilities below D.LIKELIHOOD_FLOOR over x, y and z
    step: int = 0
    skipped: int = 0  # optimizer steps skipped so far for a non-finite gradient (AdamState.skipped)
    grad_norm: float = 0.0  # global L2 norm of this step's gradients
    wall_time: float = 0.0


def lambda_schedule(step: int, config: TrainConfig) -> float:
    """Warm-up weight: lambda_warm before warmup_steps, zero afterwards."""
    return config.lambda_warm if step < config.warmup_steps else 0.0


def loss(outputs: ForwardOutputs, x: Tensor, step: int, config: TrainConfig) -> tuple[Tensor, MetricsRow]:
    """Rate-plus-L2 objective on train-mode outputs, averaged per image: the total backward runs on,
    and the step's record of the same terms as floats."""
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
    terms = [t.item() for t in (rate_x, rate_y, rate_z, l2_x, l2_y)]
    return total, MetricsRow(*terms, lam, total.item(), sum(hits))


@dataclass
class AdamState:
    """Adam's moments by parameter name, each made as zeros at that parameter's first gradient."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0
    skipped: int = 0


def adam_step(params: dict[str, Tensor], state: AdamState, lr: float) -> None:
    """Bias-corrected Adam update from each ``p.grad``: a non-finite grad skips the step, a None grad its p."""
    for p in params.values():
        if p.grad is not None and not np.all(np.isfinite(p.grad)):
            state.skipped += 1
            log.warning("skipping optimizer step %d: non-finite gradient", state.t + 1)
            return
    state.t += 1
    c1 = 1.0 - _BETA1**state.t
    c2 = 1.0 - _BETA2**state.t
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p.data), np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + _EPS)


def global_norm(params: dict[str, Tensor]) -> float:
    """L2 norm of every ``p.grad`` taken as one vector; non-finite if any entry is."""
    return float(np.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in params.values() if p.grad is not None)))


def eligible_images(corpus, patch: int) -> list:
    """The corpus images that hold a patch x patch crop, with a warning for each one too small; all must be RGB."""
    eligible = []
    for i, img in enumerate(corpus):
        if img.ndim != 3 or img.shape[2] != 3:
            raise ValueError(f"corpus image {i} is not RGB")
        h, w, _ = img.shape
        if h >= patch and w >= patch:
            eligible.append(img)
        else:
            log.warning("skipping corpus image %d: %dx%d smaller than patch %d", i, h, w, patch)
    if not eligible:
        raise ValueError(f"no corpus image is at least {patch}x{patch}")
    return eligible


def sample_patches(corpus, patch: int, batch: int, rng: np.random.Generator) -> Tensor:
    """Uniform random crops as a float32 [batch, 3, patch, patch] tensor of raw pixels, from ``eligible_images``."""
    out = np.empty((batch, 3, patch, patch), dtype=np.float32)
    for b in range(batch):
        img = corpus[int(rng.integers(len(corpus)))]
        top = int(rng.integers(img.shape[0] - patch + 1))
        left = int(rng.integers(img.shape[1] - patch + 1))
        crop = img[top : top + patch, left : left + patch]
        out[b] = crop.transpose(2, 0, 1)
    return Tensor(out)


def _gradients(weights: ModelWeights, x: Tensor, step: int, config: TrainConfig,
               noise_rng: np.random.Generator) -> tuple[float, MetricsRow]:
    """One step's forward, loss and backward on a float32 copy of ``weights``: sets each master tensor's
    ``grad`` to its gradient cast to float64 (None if it has none), and returns the loss and the step's row.

    The batch, the float32 copy and its gradients are gone when it returns.
    """
    compute = {name: Tensor(p.data.astype(np.float32), requires_grad=True) for name, p in weights.tensors.items()}
    with GradTape():
        # the forward's outputs are not held through backward: the tape keeps what its closures read
        total, row = loss(M.forward(x, ModelWeights(weights.config, compute), "train", rng=noise_rng), x, step, config)
        T.backward(total)
    for name, p in weights.tensors.items():
        g = compute.pop(name).grad
        p.grad = None if g is None else g.astype(np.float64)
    return total.item(), row


def train_loop(
    config: TrainConfig,
    corpus,
    model_config: ModelConfig | None = None,
    weights: ModelWeights | None = None,
) -> tuple[ModelWeights, list[MetricsRow]]:
    """Train ``weights``, or fresh weights of ``model_config`` (default ``ModelConfig()``), never both;
    returns the final weights plus the metrics records.

    Reproducibility contract: the seed fixes weight init, crop sequence and
    quantization noise, so two runs with identical (config, corpus) produce
    bitwise-identical weights.

    Divergence guard: a step is high when its loss is non-finite, or above 10x the first finite
    loss once there is one; 100 high steps in a row raise TrainingDivergedError.
    """
    if model_config is not None and weights is not None:
        raise ValueError("train_loop takes model_config or weights, not both")
    corpus = eligible_images(corpus, config.patch)
    root = np.random.SeedSequence(config.seed)
    init_seq, crop_seq, noise_seq = root.spawn(3)
    if weights is None:
        weights = M.init_weights(model_config or ModelConfig(), seed=init_seq)
    crop_rng = np.random.default_rng(crop_seq)
    noise_rng = np.random.default_rng(noise_seq)

    params = weights.tensors
    state = AdamState()
    metrics: list[MetricsRow] = []
    start = time.monotonic()
    initial_total = None
    high_loss_streak = 0

    for step in range(config.steps):
        lr = config.lr if step < config.lr_switch_step else config.lr_final
        value, row = _gradients(weights, sample_patches(corpus, config.patch, config.batch, crop_rng), step, config,
                                noise_rng)
        if initial_total is None and np.isfinite(value):
            initial_total = value
        if not np.isfinite(value) or value > 10.0 * initial_total:  # a finite value has set initial_total
            high_loss_streak += 1
            if high_loss_streak >= 100:
                raise TrainingDivergedError(
                    f"loss {value:.3e} non-finite or above 10x the first finite loss ({initial_total}) "
                    f"for {high_loss_streak} consecutive steps (step {step})"
                )
        else:
            high_loss_streak = 0

        adam_step(params, state, lr)

        if (step % config.log_every == 0) or step == config.steps - 1:
            metrics.append(replace(row, step=step, skipped=state.skipped, grad_norm=global_norm(params),
                                   wall_time=time.monotonic() - start))
        for p in params.values():
            p.grad = None

    if state.skipped:
        log.warning("training finished with %d skipped steps", state.skipped)
    return weights, metrics
