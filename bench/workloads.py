"""The benchmark's three workloads, driven through merlib's public API and CLI.

Each workload has a `setup` that writes its inputs (an on-disk synthetic
PPM dataset from the benchmark seed, and checkpoints written from the
committed weight fixtures) and a `unit` that runs one timed unit of work
and checks its outputs. All use the acceptance network: 3x32x32 input,
4 blocks of width 8, 5 classes.

Program functions are always looked up through their modules at call time
(`mtrain.predict_classes`, not an imported name), so the traced run's
wrappers see the benchmark's own calls as well as the program's.
"""

import hashlib
import io
import json
import math
import os
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from merlib import cli as mcli
from merlib import data as mdata
from merlib import evaluation as meval
from merlib import model as mmodel
from merlib import tensor as tc
from merlib import train as mtrain

WEIGHTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "weights")
NET_CONFIG = "input_size = 32\nchannels = 3\nclasses = 5\nblocks = 4\nwidth = 8\n"
SPEC = mmodel.NetworkSpec.stack((3, 32, 32), 4, 8, 5)
VAL_SEED_OFFSET = 1_000_003  # held-out sets never coincide with a training set


@dataclass
class Unit:
    """What one timed unit did. `attempted` counts operations (a CLI command
    or a scoring request); an operation fails if it exits non-zero, raises,
    or misses its correctness check."""
    wall: float = 0.0
    samples: int = 0
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    quality: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    steal_frac: float = 0.0  # share of the unit's busy CPU time the host stole

    def check(self, ok: bool, message: str):
        if not ok:
            self.failed += 1
            self.errors.append(message)


class _LineClock(io.StringIO):
    """Stdout stand-in that timestamps every line starting with `prefix`."""

    def __init__(self, prefix: str):
        super().__init__()
        self.prefix = prefix
        self.times = []

    def write(self, s):
        if s.startswith(self.prefix):
            self.times.append(time.perf_counter())
        return super().write(s)


def _sha256(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _write_checkpoint(fixture: str, attention: bool, path: str):
    """Write a committed weight fixture out as a merlib checkpoint."""
    model = mmodel.build_network(SPEC, seed=0, attention=attention)
    with np.load(os.path.join(WEIGHTS, fixture), allow_pickle=False) as arrays:
        for name, t in model.parameters().items():
            t.data = np.array(arrays[name], dtype=np.float64)
    mmodel.save_checkpoint(model, path)


def _write_dataset(work, seed, subjects, per_class, name="data") -> str:
    manifest = mdata.synth_dataset(n_classes=5, n_subjects=subjects,
                                   per_class=per_class, image_size=32, seed=seed)
    return mdata.save_manifest(manifest, os.path.join(work, name))


def _write_config(work, extra: str) -> str:
    path = os.path.join(work, "net.cfg")
    with open(path, "w") as fh:
        fh.write(NET_CONFIG + extra)
    return path


def _run_cli(argv, clock_prefix=""):
    """merlib main() with stdout captured; returns (exit code, clock)."""
    clock = _LineClock(clock_prefix or "\0")
    with redirect_stdout(clock):
        code = mcli.main(argv)
    return code, clock


# ---------------------------------------------------------------------------

class Pretrain:
    """`merlib train --preset pretrain` on a plain network, batch 50, with the
    preset's color, rotation and smoothing augmentation, resuming from the
    pretrained plain fixture. That network was trained without augmentation
    and ended at a small learning rate, so the preset's lr0 0.01 on
    augmented images first drives its loss up and the second epoch brings
    it down: the loss check holds by a wide margin (0.11 or more over seeds
    0-39), where two epochs from scratch or from an early checkpoint do
    not reliably lower the loss."""

    name = "pretrain"
    # 240 samples, 5 batches an epoch; each epoch is validated on 60
    # held-out samples of two other subjects.
    subjects, per_class, epochs = 6, 8, 2

    def setup(self, work, seed):
        ctx = {"manifest": _write_dataset(work, seed, self.subjects, self.per_class),
               "val": _write_dataset(work, seed + VAL_SEED_OFFSET, 2, 6, "val"),
               "config": _write_config(work, "attention = false\n"),
               "init": os.path.join(work, "plain.ckpt"), "seed": seed}
        _write_checkpoint("plain.npz", False, ctx["init"])
        ctx["n"] = 5 * self.subjects * self.per_class
        return ctx

    def unit(self, ctx, out) -> Unit:
        u = Unit(attempted=1)
        t0 = time.perf_counter()
        code, _ = _run_cli(["train", "--manifest", ctx["manifest"],
                            "--val-manifest", ctx["val"],
                            "--config", ctx["config"], "--out", out,
                            "--seed", str(ctx["seed"]), "--preset", "pretrain",
                            "--epochs", str(self.epochs),
                            "--init-checkpoint", ctx["init"],
                            "--init-mode", "exact"])
        u.wall = time.perf_counter() - t0
        u.latencies_ms.append(1000.0 * u.wall)
        u.samples = self.epochs * ctx["n"]
        if code != 0:
            u.check(False, f"merlib train exited {code}")
            return u
        log = train_losses(os.path.join(out, "stage0.log"))
        first, last = log[0], log[-1]
        u.quality["final_loss"] = last
        u.check(math.isfinite(last) and last < first,
                f"last-epoch loss {last!r} is not a finite value below the "
                f"epoch-0 loss {first!r}")
        u.digest = _sha256(os.path.join(out, "stage0.ckpt"),
                           os.path.join(out, "stage0.log"))
        return u


def train_losses(path) -> list:
    """Train losses per epoch from a TrainLog text file."""
    with open(path) as fh:
        rows = fh.read().splitlines()[1:]
    return [float(r.split("\t")[2]) for r in rows]


class LosoFinetune:
    """`merlib eval --protocol loso --init-mode upgrade` from a plain
    checkpoint: attention on, the loso preset (batch 10, resampling),
    augmentation off, lr0 3e-5, one fine-tune per subject-disjoint fold."""

    name = "loso-finetune"
    subjects, per_class, epochs = 6, 2, 1  # 60 samples, 6 folds of 10
    # Pooled WAR must stay at or above twice chance. The commit that
    # introduced the benchmark scores 0.63 to 1.0 (median 0.92) over seeds
    # 0-59: 60 samples of 6 new subjects make WAR vary widely by seed.
    war_floor = 0.4

    def setup(self, work, seed):
        ctx = {"manifest": _write_dataset(work, seed, self.subjects, self.per_class),
               "config": _write_config(work, "augment = false\n"),
               "init": os.path.join(work, "plain.ckpt"), "seed": seed}
        _write_checkpoint("plain.npz", False, ctx["init"])
        manifest = mdata.load_manifest(ctx["manifest"])
        folds = meval.folds_loso(manifest)
        ctx["n"] = len(manifest)
        ctx["tags"] = [f.tag for f in folds]
        ctx["train_samples"] = self.epochs * sum(
            len(mdata.resample_balance(manifest.subset(f.train))) for f in folds)
        return ctx

    def unit(self, ctx, out) -> Unit:
        u = Unit(attempted=1)
        t0 = time.perf_counter()
        code, clock = _run_cli(["eval", "--protocol", "loso",
                                "--manifest", ctx["manifest"],
                                "--config", ctx["config"], "--out", out,
                                "--seed", str(ctx["seed"]),
                                "--epochs", str(self.epochs), "--lr0", "3e-5",
                                "--init-checkpoint", ctx["init"],
                                "--init-mode", "upgrade"], clock_prefix="fold ")
        u.wall = time.perf_counter() - t0
        marks = [t0] + clock.times
        u.latencies_ms += [1000.0 * (b - a) for a, b in zip(marks, marks[1:])]
        u.samples = ctx["train_samples"]
        if code != 0:
            u.check(False, f"merlib eval exited {code}")
            return u
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        pooled = int(np.sum(report["pooled_counts"]))
        war = float(report["war"])
        u.quality["war"] = war
        u.quality["final_loss"] = float(np.mean([
            train_losses(os.path.join(out, "folds", f"{t}.log"))[-1] for t in ctx["tags"]]))
        u.check(pooled == ctx["n"], f"pooled counts sum to {pooled}, "
                                    f"manifest has {ctx['n']} samples")
        u.check(war >= self.war_floor, f"pooled WAR {war} below floor {self.war_floor}")
        u.digest = _sha256(os.path.join(out, "report.json"),
                           *[os.path.join(out, "folds", f"{t}.ckpt") for t in ctx["tags"]])
        return u


class Score:
    """Forward-only scoring of one attention checkpoint over a manifest of
    200 subjects: one request per leave-one-subject-out fold runs
    predict_classes on the fold's test set, then a batch-1
    attention_readout on each of its samples. The pass ends with
    aggregate, render_report and report_to_json.

    Criterion 7's localization readout needs only the correctly predicted
    samples, a subset; reading out every sample keeps each request's work
    the same whatever the model predicts, so request latency does not
    follow the accuracy of a seed or of a commit."""

    name = "score"
    subjects, per_class = 200, 1  # 1000 samples, 200 folds of 5

    def setup(self, work, seed):
        ctx = {"manifest": _write_dataset(work, seed, self.subjects, self.per_class),
               "checkpoint": os.path.join(work, "attention.ckpt")}
        _write_checkpoint("attention.npz", True, ctx["checkpoint"])
        return ctx

    def unit(self, ctx, out) -> Unit:
        u = Unit()
        t0 = time.perf_counter()
        model = mmodel.load_checkpoint(ctx["checkpoint"], SPEC)
        manifest = mdata.load_manifest(ctx["manifest"])
        folds = meval.folds_loso(manifest)
        seen = np.zeros(len(manifest), dtype=np.int64)
        fold_predictions = {}
        for fold in folds:
            u.attempted += 1
            r0 = time.perf_counter()
            test = manifest.subset(fold.test)
            predicted = mtrain.predict_classes(model, test)
            actual = test.label_indices()
            mismatched = 0
            for i, sample in enumerate(test.samples):
                image = mdata.load_sample_image(sample)
                x = tc.Tensor(mtrain.prepare_input(image, SPEC.input_shape)[None])
                readout = mmodel.attention_readout(model, x)
                mismatched += int(np.argmax(readout.logits.data[0])) != predicted[i]
            u.latencies_ms.append(1000.0 * (time.perf_counter() - r0))
            np.add.at(seen, list(fold.test), 1)
            fold_predictions[fold.tag] = (predicted.tolist(), actual.tolist())
            u.check(len(predicted) == len(fold.test) and mismatched == 0,
                    f"fold {fold.tag}: {mismatched} batch-1 readouts disagree "
                    f"with the batch-64 prediction")
        u.attempted += 1
        report = meval.aggregate(folds, fold_predictions, manifest.class_names)
        text = meval.render_report(report)
        payload = meval.report_to_json(report)
        u.wall = time.perf_counter() - t0
        u.samples = len(manifest)
        u.quality["war"] = float(report.war)
        u.check(bool(np.all(seen == 1)) and report.pooled.total == len(manifest),
                "not every sample was predicted exactly once")
        u.digest = hashlib.sha256((payload + text).encode()).hexdigest()
        return u


def run_unit(workload, ctx, out) -> Unit:
    """One unit; an operation that raises counts as attempted and failed."""
    t0 = time.perf_counter()
    try:
        return workload.unit(ctx, out)
    except Exception as e:
        return Unit(wall=time.perf_counter() - t0, attempted=1, failed=1,
                    errors=[f"{type(e).__name__}: {e}"])


WORKLOADS = {w.name: w for w in (Pretrain(), LosoFinetune(), Score())}
