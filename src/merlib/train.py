"""SGD with momentum, the step learning-rate schedule, and training stages:
`run_stage` trains a model in place, `train_and_save` starts one (fresh, or
from a checkpoint as is or with zero-injected attention), trains it and
writes its checkpoint and log.

Everything is deterministic from (seed, data, preset): epoch shuffles come
from (seed, epoch) and each sample's augmentation generator from
(seed, sample_index, epoch), so the batch stream replays exactly no matter
how the work is scheduled. Each batch is split into fixed shards of at most
SHARD_SIZE samples whose gradients are combined in shard order, so a stage
that computes its shards in forked helper processes (to use more CPUs)
writes the same bytes as one that computes them in-process.
"""

import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import tensor as tc
from . import workers
from .data import (AugmentConfig, Manifest, augment, crop_square,
                   load_sample_image, resample_balance)
from .errors import ConfigError, ShapeError, TrainingError
from .model import (Network, NetworkSpec, build_network, load_checkpoint,
                    save_checkpoint, write_atomic)


@dataclass(frozen=True)
class Schedule:
    lr0: float
    step_epochs: int

    def __post_init__(self):
        if not math.isfinite(self.lr0) or self.lr0 <= 0:
            raise ConfigError(f"lr0 must be positive and finite, got {self.lr0}")
        if not isinstance(self.step_epochs, int) or self.step_epochs < 1:
            raise ConfigError(f"step_epochs must be a positive integer, "
                              f"got {self.step_epochs!r}")


def lr_at(schedule: Schedule, epoch: int) -> float:
    """lr0 * 0.1^floor(epoch / step_epochs); the drop lands ON the boundary."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    return schedule.lr0 * 0.1 ** (epoch // schedule.step_epochs)


@dataclass(frozen=True)
class StagePreset:
    """One training stage's hyperparameters; epochs is a desk-scale default
    meant to be overridden for real runs."""
    batch_size: int
    lr0: float
    weight_decay: float
    step_epochs: int
    epochs: int = 30
    momentum: float = 0.9
    augment: AugmentConfig = None
    resample: bool = False

    def __post_init__(self):
        for name in ("batch_size", "epochs"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0,1), got {self.momentum}")
        if not math.isfinite(self.weight_decay) or self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be finite and >= 0, "
                              f"got {self.weight_decay}")
        Schedule(self.lr0, self.step_epochs)  # reuse its validation

    def schedule(self) -> Schedule:
        return Schedule(self.lr0, self.step_epochs)


PRESETS = {
    # macro-expression pre-training: large batches, the three photometric
    # augmentations, no decay
    "pretrain": StagePreset(batch_size=50, lr0=0.01, weight_decay=0.0,
                            step_epochs=20,
                            augment=AugmentConfig(color_shift_max=20,
                                                  rotation_max_deg=10.0,
                                                  smooth_window_max=6)),
    # holdout-database fine-tuning
    "hde": StagePreset(batch_size=10, lr0=1e-4, weight_decay=3e-2,
                       step_epochs=10, resample=True,
                       augment=AugmentConfig(color_shift_max=20,
                                             rotation_max_deg=8.0)),
    # composite-database fine-tuning: corner crops of 240px masters
    "cde": StagePreset(batch_size=8, lr0=1e-3, weight_decay=5e-6,
                       step_epochs=10, resample=True,
                       augment=AugmentConfig(crop=(240, 224))),
    # single-database leave-one-subject-out fine-tuning
    "loso": StagePreset(batch_size=10, lr0=1e-3, weight_decay=5e-4,
                        step_epochs=10, resample=True,
                        augment=AugmentConfig(color_shift_max=20,
                                              rotation_max_deg=8.0)),
}


class OptimState:
    """One zero-initialized velocity buffer per parameter."""

    def __init__(self, params: dict):
        self.velocity = {name: np.zeros_like(p.data) for name, p in params.items()}

    def check_against(self, params: dict):
        if set(self.velocity) != set(params):
            raise ConfigError("optimizer state does not match the parameter set")
        for name, p in params.items():
            if self.velocity[name].shape != p.data.shape:
                raise ConfigError(f"velocity shape {self.velocity[name].shape} does "
                                  f"not match parameter {name} {p.data.shape}")


def sgd_step(params: dict, grads: dict, state: OptimState, lr: float,
             momentum: float, weight_decay: float):
    """Classical heavy-ball update with coupled L2 decay:
    g' = g + wd*p; v <- momentum*v + g'; p <- p - lr*v."""
    state.check_against(params)
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match "
                             f"parameter {name} {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name}")
        if weight_decay:
            g = g + weight_decay * p.data
        v = state.velocity[name]
        v *= momentum
        v += g
        p.data -= lr * v


# ---------------------------------------------------------------------------
# data plumbing shared by training and evaluation

def prepare_input(image: np.ndarray, input_shape) -> np.ndarray:
    """uint8 [H,W,3] -> float [C,H,W] in [-0.5, 0.5]; oversized images are
    center-cropped down to the network size (the evaluation-time counterpart
    of the training-time corner crop)."""
    c, h, w = input_shape
    if image.ndim != 3 or image.shape[2] != c:
        raise ShapeError(f"expected [H,W,{c}] pixels, got {image.shape}")
    ih, iw = image.shape[:2]
    if ih < h or iw < w:
        raise ShapeError(f"image {ih}x{iw} is smaller than the network "
                         f"input {h}x{w}")
    if ih > h or iw > w:
        if h != w:
            raise ShapeError("center-crop fallback supports square inputs only")
        image = crop_square(image, h, "center")
    return image.astype(np.float64).transpose(2, 0, 1) / 255.0 - 0.5


def _batch_array(manifest: Manifest, indices, input_shape,
                 augment_cfg=None, rng_for=None) -> np.ndarray:
    rows = []
    for i in indices:
        img = load_sample_image(manifest.samples[i])
        if augment_cfg is not None:
            img = augment(img, augment_cfg, rng_for(i))
        rows.append(prepare_input(img, input_shape))
    return np.stack(rows)


def predict_classes(model: Network, manifest: Manifest) -> np.ndarray:
    """Argmax class indices in manifest order, 64 samples a batch; no
    augmentation, no tape."""
    n = len(manifest)
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, 64):
        idx = range(start, min(start + 64, n))
        x = _batch_array(manifest, idx, model.spec.input_shape)
        logits = model.forward(tc.Tensor(x))
        out[start:start + len(logits.data)] = np.argmax(logits.data, axis=1)
    return out


def evaluate_accuracy(model: Network, manifest: Manifest) -> float:
    if len(manifest) == 0:
        raise ConfigError("cannot evaluate accuracy on an empty manifest")
    predicted = predict_classes(model, manifest)
    return float(np.mean(predicted == manifest.label_indices()))


# ---------------------------------------------------------------------------
# training stages

@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_accuracy: float  # measured entering the epoch; nan without a val set


@dataclass
class TrainLog:
    """Per-epoch records. val_accuracy is measured on the stage's held-out
    set before the epoch's updates, so a stage that starts from another
    stage's final weights shows that model's accuracy at epoch 0; it is nan
    in every row of a stage trained without a held-out set."""
    records: list = field(default_factory=list)

    def to_text(self) -> str:
        lines = ["epoch\tlr\ttrain_loss\tval_accuracy"]
        for r in self.records:
            lines.append(f"{r.epoch}\t{float(r.lr)!r}\t{float(r.train_loss)!r}"
                         f"\t{float(r.val_accuracy)!r}")
        return "\n".join(lines) + "\n"

    def save(self, path):
        write_atomic(path, self.to_text().encode())


# Most samples one forward and backward pass takes. Batches are split into
# near-equal shards of at most this many, so a step's result depends on the
# batch, never on how many processes compute its shards.
SHARD_SIZE = 32


def _shard_pass(model: Network, train: Manifest, labels, augment_cfg,
                seed: int, arrays, epoch: int, idx) -> tuple:
    """A stage's task: load the step's parameter arrays into `model` (in the
    stage's own process they already are its arrays), assemble shard `idx`
    of an epoch-`epoch` batch (decode, plus the augmentation of (seed,
    sample, epoch)), run its forward and backward pass, and return (its mean
    loss, {parameter name: gradient})."""
    def sample_rng(i):
        return np.random.default_rng(np.random.SeedSequence((seed, int(i), epoch)))

    params = model.parameters()
    for p, a in zip(params.values(), arrays):
        p.data = a
    x = _batch_array(train, idx, model.spec.input_shape,
                     augment_cfg=augment_cfg, rng_for=sample_rng)
    model.zero_grads()
    with tc.Tape() as tape:
        loss = tc.softmax_cross_entropy(model.forward(tc.Tensor(x)), labels[idx])
    tape.backward(loss, params=params.values())
    return loss.item(), {name: p.grad for name, p in params.items()}


def _batch_grads(epoch: int, idx, params, pool) -> tuple:
    """One step's (loss sum, {name: gradient}) for batch `idx`, its shards
    computed by `pool` (a `workers.Pool` serving `_shard_pass`) from the
    current arrays of `params`.

    The batch is split, in order, into ceil(b / SHARD_SIZE) near-equal
    shards. The gradient is the sum over shards of (n_s / b) * g_s and the
    loss sum that of n_s * loss_s, both in shard order; a batch of at most
    SHARD_SIZE is one shard with weight exactly 1. Failures surface in shard
    order, as an in-process run raises them.
    """
    shards = np.array_split(idx, math.ceil(len(idx) / SHARD_SIZE))
    arrays = [p.data for p in params.values()]
    results = pool.imap((f"epoch {epoch} shard {i}", (arrays, epoch, s))
                        for i, s in enumerate(shards))
    loss_sum, grads = 0.0, {}
    for s, (loss, g) in zip(shards, results):
        weight = len(s) / len(idx)
        loss_sum += len(s) * loss
        for name, v in g.items():
            if name in grads:
                grads[name] += weight * v
            else:
                grads[name] = weight * v
    return loss_sum, grads


def stage_training_set(train_manifest: Manifest, preset: StagePreset,
                       num_classes: int) -> Manifest:
    """The set a stage of `preset` trains on: `train_manifest`, resampled
    if the preset asks for it. Rejects an empty set, a label the network's
    `num_classes` outputs cannot predict and a batch larger than the set,
    so a caller can check a stage before it starts any work."""
    if len(train_manifest) == 0:
        raise ConfigError("training set is empty")
    labels = train_manifest.label_indices()
    if labels.max() >= num_classes:
        raise ConfigError(f"manifest has {labels.max() + 1}+ classes, the "
                          f"network predicts {num_classes}")
    train = resample_balance(train_manifest) if preset.resample else train_manifest
    if preset.batch_size > len(train):
        raise ConfigError(f"batch size {preset.batch_size} exceeds the "
                          f"{len(train)}-sample training set (after resampling)")
    return train


def run_stage(model: Network, train_manifest: Manifest, val_manifest,
              preset: StagePreset, seed: int) -> tuple:
    """Train `model` in place for preset.epochs epochs; returns (model, log).

    Each epoch is first scored on `val_manifest`, a held-out set whose
    labels are in the training vocabulary; with None the stage skips that
    pass and logs nan.

    Resampling (when the preset asks for it) happens once up front. Every
    epoch reshuffles from (seed, epoch); each sample's augmentation stream
    is seeded by (seed, sample_index, epoch), where sample_index is the
    position in the post-resampling list, so duplicated samples still see
    independent augmentations.

    Each step's gradient comes from fixed shards of its batch
    (`_batch_grads`), computed by the stage's `workers.Pool`: in this
    process, or in forked helpers that end with the stage and write
    nothing. Either way the results are the same bytes, so artifacts depend
    on (seed, data, preset) only, never on the CPU or BLAS thread count.
    """
    train = stage_training_set(train_manifest, preset, model.spec.num_classes)
    n = len(train)
    params = model.parameters()
    state = OptimState(params)
    schedule = preset.schedule()
    labels = train.label_indices()
    log = TrainLog()
    seed = int(seed)
    with workers.Pool(partial(_shard_pass, model, train, labels,
                              preset.augment, seed),
                      math.ceil(preset.batch_size / SHARD_SIZE)) as pool:
        for epoch in range(preset.epochs):
            lr = lr_at(schedule, epoch)
            val_acc = (evaluate_accuracy(model, val_manifest)
                       if val_manifest is not None else float("nan"))
            order = np.random.default_rng(
                np.random.SeedSequence((seed, epoch))).permutation(n)
            loss_sum = 0.0
            for start in range(0, n, preset.batch_size):
                idx = order[start:start + preset.batch_size]
                batch_loss, grads = _batch_grads(epoch, idx, params, pool)
                sgd_step(params, grads, state, lr, preset.momentum,
                         preset.weight_decay)
                loss_sum += batch_loss
            model.zero_grads()
            log.records.append(EpochRecord(epoch=epoch, lr=lr,
                                           train_loss=loss_sum / n,
                                           val_accuracy=val_acc))
    return model, log


def train_and_save(spec: NetworkSpec, preset: StagePreset, train: Manifest,
                   val, seed: int, out_stem, attention: bool = False,
                   init_checkpoint=None, init_mode: str = "exact") -> tuple:
    """Start one stage, train it, and write out_stem.ckpt and out_stem.log;
    returns (model, log).

    Without init_checkpoint the network is built fresh from `seed`
    (`attention` picks the variant). Otherwise it is loaded with
    `init_mode`: 'exact' continues from the stored weights, 'upgrade' loads
    a plain checkpoint and injects zero attention weights. The paper's
    transfer is two calls: a plain stage from a fresh start, then an
    upgrade from that stage's checkpoint.
    """
    out_stem = os.fspath(out_stem)
    os.makedirs(os.path.dirname(out_stem) or ".", exist_ok=True)
    if init_checkpoint is None:
        model = build_network(spec, seed, attention=attention)
    else:
        model = load_checkpoint(init_checkpoint, spec, mode=init_mode)
    model, log = run_stage(model, train, val, preset, seed)
    save_checkpoint(model, f"{out_stem}.ckpt")
    log.save(f"{out_stem}.log")
    return model, log
