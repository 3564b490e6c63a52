"""Regenerate the benchmark's weight fixtures in bench/weights/.

    python3 bench/make_weights.py

Runs the acceptance recipe through the CLI (synthetic macro set of 240
samples, plain pretraining without augmentation) and keeps two networks
as name -> array .npz files:

- plain.npz: plain, after 80 pretraining epochs; the `pretrain` workload
  resumes from it, and the `loso-finetune` workload upgrades it to
  attention in every fold.
- attention.npz: plain.npz upgraded to attention and fine-tuned on the
  synthetic micro set as in acceptance criterion 7 (15 epochs, lr0
  3e-5); the `score` workload loads it.

The arrays, not checkpoint files, are stored so that the fixtures do not
depend on the checkpoint format; the benchmark's set-up writes them out
as checkpoints through the public API. Takes about 5 minutes on one core.
"""

import io
import os
import sys
import tempfile
from contextlib import redirect_stdout

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from merlib.cli import main  # noqa: E402
from merlib.model import load_checkpoint  # noqa: E402

NET = "input_size = 32\nchannels = 3\nclasses = 5\nblocks = 4\nwidth = 8\n"
WEIGHTS = os.path.join(ROOT, "bench", "weights")


def cli(*argv):
    with redirect_stdout(io.StringIO()):
        if main(list(argv)) != 0:
            raise SystemExit(f"merlib {' '.join(argv)} failed")


def export(ckpt, name):
    params = load_checkpoint(ckpt).parameters()
    np.savez(os.path.join(WEIGHTS, name), **{k: t.data for k, t in params.items()})


def build():
    os.makedirs(WEIGHTS, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        pre_cfg = os.path.join(tmp, "pre.cfg")
        with open(pre_cfg, "w") as fh:
            fh.write(NET + "attention = false\naugment = false\nstep_epochs = 25\n")
        ft_cfg = os.path.join(tmp, "ft.cfg")
        with open(ft_cfg, "w") as fh:
            fh.write(NET + "augment = false\n")
        macro, micro = os.path.join(tmp, "macro"), os.path.join(tmp, "micro")
        cli("synth", "--out", macro, "--classes", "5", "--subjects", "8",
            "--per-class", "6", "--size", "32", "--seed", "100",
            "--database", "macro")
        cli("synth", "--out", micro, "--classes", "5", "--subjects", "6",
            "--per-class", "4", "--size", "32", "--seed", "8")
        pre = os.path.join(tmp, "pre")
        cli("train", "--manifest", os.path.join(macro, "manifest.csv"),
            "--config", pre_cfg, "--out", pre, "--seed", "100",
            "--preset", "pretrain", "--epochs", "80")
        export(os.path.join(pre, "stage0.ckpt"), "plain.npz")
        out = os.path.join(tmp, "attn")
        cli("train", "--manifest", os.path.join(micro, "manifest.csv"),
            "--config", ft_cfg, "--out", out, "--seed", "8", "--preset", "loso",
            "--epochs", "15", "--lr0", "3e-5", "--init-checkpoint",
            os.path.join(pre, "stage0.ckpt"), "--init-mode", "upgrade")
        export(os.path.join(out, "stage0.ckpt"), "attention.npz")


if __name__ == "__main__":
    build()
