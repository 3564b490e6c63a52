"""End-to-end CLI tests: exit codes, artifact layout, determinism.

Everything runs in-process through main(argv) on desk-scale synthetic data,
so the suite stays fast while still exercising the real command paths.
"""

import argparse
import multiprocessing
import multiprocessing.connection
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import merlib
import merlib.cli as cli
import merlib.model as model_module
import merlib.tensor as tc
import merlib.train as train_module
import merlib.workers as workers
from merlib.cli import (_DEFAULTS, build_parser, gradcheck_table,
                        load_config, main, network_from_config,
                        preset_from_config, run_gradcheck)
from merlib.data import load_manifest
from merlib.errors import ConfigError
from merlib.evaluation import folds_loso
from merlib.imageio import read_image, write_ppm
from merlib.model import (NetworkSpec, build_network, encode_checkpoint,
                          load_checkpoint, save_checkpoint)
from merlib.train import predict_classes, train_and_save


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def micro_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("micro")
    rc = main(["synth", "--out", str(out), "--classes", "3", "--subjects", "3",
               "--per-class", "2", "--size", "8", "--seed", "5"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def beta_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("beta")
    rc = main(["synth", "--out", str(out), "--classes", "3", "--subjects", "2",
               "--per-class", "2", "--size", "8", "--seed", "6",
               "--database", "beta"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def small_net_cfg(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "net.cfg"
    path.write_text("# desk-scale network\n"
                    "input_size = 8\nchannels = 3\nclasses = 3\n"
                    "blocks = 2\nwidth = 4\n")
    return str(path)


@pytest.fixture
def no_worker_starts(monkeypatch):
    """Fails the test if this process starts a worker."""
    def refuse(*args):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(workers, "start", refuse)


# ---------------------------------------------------------------------------
# config file handling

def test_config_defaults_and_overlay(tmp_path):
    cfg = load_config(None)
    assert cfg["blocks"] == "2" and cfg["attention"] == "true"
    path = tmp_path / "run.cfg"
    path.write_text("width = 8\n\n# comment\nepochs=3\n")
    cfg = load_config(str(path))
    assert cfg["width"] == "8" and cfg["epochs"] == "3"
    assert cfg["blocks"] == "2"  # untouched default


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("wdith = 8\n")
    with pytest.raises(ConfigError, match="wdith"):
        load_config(str(path))
    path.write_text("no equals sign here\n")
    with pytest.raises(ConfigError, match="expected key = value"):
        load_config(str(path))


def test_bad_config_exits_one(micro_dir, tmp_path, capsys, no_worker_starts):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery = 1\n")
    rc = main(["gradcheck", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1
    # A block stride must tile that block's input: 8 - 1 is odd, so stride
    # 2 fails when the network is specified, before --out is created. The
    # batch fits the training set, so no other check fails first.
    path.write_text("input_size = 8\nclasses = 3\nblocks = 2\nstrides = 2,2\n"
                    "batch_size = 4\n")
    out = tmp_path / "run"
    rc = main(["train", "--manifest", str(micro_dir / "manifest.csv"),
               "--config", str(path), "--out", str(out)])
    assert rc == 1
    assert not out.exists()
    # Images always decode to 3 channels: a network of another input width
    # cannot train on them or read them, and only gradcheck takes one.
    path.write_text("input_size = 8\nclasses = 3\nblocks = 2\nchannels = 1\n")
    checkpoint = tmp_path / "gray.ckpt"
    save_checkpoint(build_network(NetworkSpec.stack((1, 8, 8), 2, 4, 3), 0),
                    str(checkpoint))
    for argv in (["train", "--manifest", str(micro_dir / "manifest.csv")],
                 ["eval", "--protocol", "loso",
                  "--manifest", str(micro_dir / "manifest.csv")],
                 ["visualize", "--checkpoint", str(checkpoint),
                  "--image", str(micro_dir / "images" / "00000.ppm")]):
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 1
        assert not out.exists()
    assert main(["gradcheck", "--config", str(path), "--out", str(out)]) == 0
    # A batch larger than a stage's training set: both stages of a
    # two-stage run are checked, the pretraining stage first, before --out
    # exists.
    path.write_text("input_size = 8\nclasses = 3\nblocks = 2\n")
    manifest = str(micro_dir / "manifest.csv")
    two_stage = tmp_path / "two_stage.cfg"
    two_stage.write_text(f"input_size = 8\nclasses = 3\nblocks = 2\n"
                         f"pretrain_manifest = {manifest}\n"
                         f"pretrain_batch_size = 100\n")
    capsys.readouterr()
    out = tmp_path / "oversized"
    for cfg, flags in ((path, ["--batch-size", "100"]), (two_stage, [])):
        assert main(["train", "--manifest", manifest, "--config", str(cfg),
                     "--out", str(out), *flags]) == 1
        assert capsys.readouterr().err == (
            "error: batch size 100 exceeds the 18-sample training set "
            "(after resampling)\n")
        assert not out.exists()
    # A label the network cannot predict: 3 classes for a 2-class head.
    path.write_text("input_size = 8\nclasses = 2\nblocks = 2\nbatch_size = 4\n")
    for argv in (["train", "--manifest", manifest],
                 ["eval", "--protocol", "loso", "--manifest", manifest]):
        assert main([*argv, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: manifest has 3+ classes, the network predicts 2\n")
        assert not out.exists()


# ---------------------------------------------------------------------------
# synth

def test_synth_manifest_loads(micro_dir):
    manifest = load_manifest(str(micro_dir / "manifest.csv"))
    assert len(manifest.samples) == 18  # 3 classes x 3 subjects x 2
    assert manifest.class_names == ["class0", "class1", "class2"]
    assert len(manifest.subjects()) == 3
    image = read_image(str(micro_dir / "images" / "00000.ppm"))
    assert image.shape == (8, 8, 3)


def test_interrupted_synth_keeps_previous_manifest(tmp_path, request):
    out = tmp_path / "synth"
    argv = ["synth", "--out", str(out), "--classes", "2", "--subjects", "2",
            "--per-class", "1", "--size", "8", "--seed"]
    assert main(argv + ["1"]) == 0
    before = read_bytes(out / "manifest.csv")
    request.getfixturevalue("writes_fail_half_way")
    assert main(argv + ["2"]) == 2
    assert read_bytes(out / "manifest.csv") == before
    assert sorted(os.listdir(out)) == ["images", "manifest.csv"]


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_passes_on_tiny_network(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("blocks = 1\nwidth = 2\ninput_size = 5\n"
                   "channels = 2\nclasses = 3\n")
    rc = main(["gradcheck", "--config", str(cfg), "--seed", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "parameter\tmax_rel_error" in out
    assert "gradcheck passed" in out
    table = (tmp_path / "gradcheck.txt").read_text()
    assert "head.weight" in table


def test_interrupted_gradcheck_keeps_previous_table(tmp_path, request):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("blocks = 1\nwidth = 2\ninput_size = 5\n")
    out = tmp_path / "gc"
    argv = ["gradcheck", "--config", str(cfg), "--out", str(out), "--seed"]
    assert main(argv + ["0"]) == 0
    before = read_bytes(out / "gradcheck.txt")
    request.getfixturevalue("writes_fail_half_way")
    assert main(argv + ["1"]) == 2
    assert read_bytes(out / "gradcheck.txt") == before
    assert os.listdir(out) == ["gradcheck.txt"]


def test_gradcheck_catches_broken_backward(tmp_path, capsys, monkeypatch):
    # Sign-flip relu's backward rule; the finite-difference check must fail.
    def broken_relu(x):
        out = tc.Tensor(np.maximum(x.data, 0.0))
        mask = x.data > 0.0

        def backward(g):
            if tc._wants_grad(x):
                tc._accum(x, -(g * mask))

        return tc._record(out, [x], backward)

    monkeypatch.setattr(tc, "relu", broken_relu)
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("blocks = 1\nwidth = 2\ninput_size = 5\n"
                   "channels = 2\nclasses = 3\n")
    rc = main(["gradcheck", "--config", str(cfg), "--seed", "3",
               "--out", str(tmp_path)])
    assert rc != 0
    err = capsys.readouterr().err
    assert "worst parameter" in err


def test_gradcheck_empty_model_passes():
    class Hollow:
        def parameters(self):
            return {}

    ok, errors = run_gradcheck(Hollow(), seed=0)
    assert ok and errors == {}
    assert gradcheck_table(errors) == "parameter\tmax_rel_error\n"


# ---------------------------------------------------------------------------
# train

def val_column(log_path):
    return [float(row.split("\t")[3])
            for row in log_path.read_text().splitlines()[1:]]


def test_train_single_stage(micro_dir, small_net_cfg, tmp_path, capsys):
    manifest = str(micro_dir / "manifest.csv")
    argv = ["train", "--manifest", manifest, "--config", small_net_cfg,
            "--seed", "1", "--preset", "pretrain", "--epochs", "2",
            "--batch-size", "6", "--out"]
    out = tmp_path / "run"
    assert main(argv + [str(out)]) == 0
    assert (out / "stage0.ckpt").is_file()
    log = (out / "stage0.log").read_text().splitlines()
    assert log[0] == "epoch\tlr\ttrain_loss\tval_accuracy"
    assert len(log) == 3  # header + 2 epochs
    assert "trained 1 stage(s)" in capsys.readouterr().out
    # No held-out set, no validation pass: the column is nan. Naming the
    # training set as the held-out set gives back training accuracy and
    # leaves training untouched.
    assert all(np.isnan(v) for v in val_column(out / "stage0.log"))
    scored = tmp_path / "scored"
    assert main(argv + [str(scored), "--val-manifest", manifest]) == 0
    assert read_bytes(scored / "stage0.ckpt") == read_bytes(out / "stage0.ckpt")
    assert all(0.0 <= v <= 1.0 for v in val_column(scored / "stage0.log"))


def write_rows(path, header, rows):
    path.write_text("\n".join([header, *rows]) + "\n")
    return str(path)


def test_train_scores_held_out_labels_by_name(micro_dir, small_net_cfg,
                                              tmp_path, capsys):
    # The held-out rows list their classes in reverse order, so their own
    # vocabulary numbers the classes the other way round; they must still be
    # scored as the same classes the network was trained on.
    header, *rows = (micro_dir / "manifest.csv").read_text().splitlines()
    rows = [f"{micro_dir}/{row}" for row in rows]  # image paths made absolute
    in_order = write_rows(tmp_path / "in_order.csv", header, rows)
    reversed_ = write_rows(tmp_path / "reversed.csv", header,
                           sorted(rows, key=lambda row: row.split(",")[3],
                                  reverse=True))
    argv = ["train", "--manifest", in_order, "--config", small_net_cfg,
            "--seed", "1", "--epochs", "3", "--batch-size", "6"]
    columns = []
    for val in (in_order, reversed_):
        out = tmp_path / os.path.splitext(os.path.basename(val))[0]
        assert main(argv + ["--out", str(out), "--val-manifest", val]) == 0
        columns.append(val_column(out / "stage0.log"))
    assert columns[0] == columns[1]
    # A held-out class the training set never had is rejected before work.
    foreign = write_rows(tmp_path / "foreign.csv", header,
                         [rows[0].replace(",class0,", ",class9,")])
    out = tmp_path / "foreign"
    assert main(argv + ["--out", str(out), "--val-manifest", foreign]) == 1
    assert "class9" in capsys.readouterr().err
    assert not out.exists()


def test_train_flag_beats_config(micro_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("input_size = 8\nclasses = 3\nepochs = 5\n")
    out = tmp_path / "run"
    rc = main(["train", "--manifest", str(micro_dir / "manifest.csv"),
               "--config", str(cfg), "--out", str(out), "--epochs", "1",
               "--batch-size", "6"])
    assert rc == 0
    assert len((out / "stage0.log").read_text().splitlines()) == 2


def test_train_resumes_from_checkpoint(micro_dir, small_net_cfg, tmp_path):
    first = tmp_path / "first"
    rc = main(["train", "--manifest", str(micro_dir / "manifest.csv"),
               "--config", small_net_cfg, "--out", str(first), "--seed", "1",
               "--epochs", "1", "--batch-size", "6"])
    assert rc == 0
    second = tmp_path / "second"
    rc = main(["train", "--manifest", str(micro_dir / "manifest.csv"),
               "--config", small_net_cfg, "--out", str(second), "--seed", "2",
               "--epochs", "1", "--batch-size", "6",
               "--init-checkpoint", str(first / "stage0.ckpt"),
               "--init-mode", "exact"])
    assert rc == 0
    assert (second / "stage0.ckpt").is_file()


def test_train_two_stage_pipeline(micro_dir, tmp_path):
    cfg = tmp_path / "pipe.cfg"
    cfg.write_text(f"input_size = 8\nclasses = 3\n"
                   f"pretrain_manifest = {micro_dir / 'manifest.csv'}\n"
                   f"pretrain_epochs = 2\npretrain_batch_size = 6\n"
                   f"pretrain_lr0 = 0.005\n"
                   f"epochs = 1\nbatch_size = 6\npreset = loso\n")
    out = tmp_path / "pipe"
    rc = main(["train", "--manifest", str(micro_dir / "manifest.csv"),
               "--config", str(cfg), "--out", str(out), "--seed", "4",
               "--val-manifest", str(micro_dir / "manifest.csv")])
    assert rc == 0
    stage0 = load_checkpoint(str(out / "stage0.ckpt"))
    stage1 = load_checkpoint(str(out / "stage1.ckpt"))
    assert not stage0.attention and stage1.attention
    # pretrain_* keys reach the pretraining stage only.
    rows0 = (out / "stage0.log").read_text().splitlines()[1:]
    rows1 = (out / "stage1.log").read_text().splitlines()[1:]
    assert [r.split("\t")[1] for r in rows0] == ["0.005", "0.005"]
    assert len(rows1) == 1 and rows1[0].split("\t")[1] == "0.001"
    # The held-out set scores the fine-tuned stage only; pretraining has none.
    assert all(np.isnan(v) for v in val_column(out / "stage0.log"))
    assert 0.0 <= val_column(out / "stage1.log")[0] <= 1.0


def test_two_stage_pretrains_in_training_vocabulary(micro_dir, tmp_path,
                                                   monkeypatch, capsys):
    # The pretraining rows list the training classes in reverse order; stage
    # 0's head must still number them as stage 1 reads them.
    header, *rows = (micro_dir / "manifest.csv").read_text().splitlines()
    rows = [f"{micro_dir}/{row}" for row in rows]  # image paths made absolute
    reversed_ = write_rows(tmp_path / "reversed.csv", header,
                           sorted(rows, key=lambda row: row.split(",")[3],
                                  reverse=True))
    stages = []

    def spy(spec, preset, train, *args, **kwargs):
        stages.append(train)
        return train_and_save(spec, preset, train, *args, **kwargs)

    monkeypatch.setattr(cli, "train_and_save", spy)
    cfg = tmp_path / "pipe.cfg"
    argv = ["train", "--manifest", str(micro_dir / "manifest.csv"),
            "--config", str(cfg), "--epochs", "1", "--batch-size", "6"]
    cfg.write_text(f"input_size = 8\nclasses = 3\npretrain_epochs = 1\n"
                   f"pretrain_batch_size = 6\n"
                   f"pretrain_manifest = {reversed_}\n")
    assert main(argv + ["--out", str(tmp_path / "pipe")]) == 0
    classes = load_manifest(str(micro_dir / "manifest.csv")).class_names
    pre = stages[0]
    assert pre.label_indices().tolist() == [classes.index(s.label)
                                            for s in pre.samples]
    # A pretraining class the training set does not have exits 1 before any
    # file is written.
    foreign = write_rows(tmp_path / "foreign.csv", header,
                         [rows[0].replace(",class0,", ",class9,")])
    cfg.write_text(f"input_size = 8\nclasses = 3\n"
                   f"pretrain_manifest = {foreign}\n")
    out = tmp_path / "foreign"
    assert main(argv + ["--out", str(out)]) == 1
    assert "class9" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb, extra_cfg, flags, named", [
    ("train", "pretrain_manifest = {manifest}\n",
     ["--init-checkpoint", "absent.ckpt"], "init_"),
    ("train", "", ["--init-mode", "upgrade"], "init_"),
    ("eval", "", ["--init-mode", "upgrade"], "init_"),
    ("train", "init_mode = bogus\n", [], "init_"),
    ("eval", "init_mode = bogus\n", [], "init_"),
    ("train", "pretrain_manifest = {manifest}\nattention = false\n", [],
     "attention"),
    ("eval", "val_manifest = nope.csv\n", [], "val_manifest"),
], ids=["train-two-stage-with-checkpoint", "train-upgrade-without-checkpoint",
        "eval-upgrade-without-checkpoint", "train-unknown-mode",
        "eval-unknown-mode", "train-two-stage-without-attention",
        "eval-with-val-manifest"])
def test_contradictory_init_options_rejected_before_work(
        micro_dir, tmp_path, capsys, verb, extra_cfg, flags, named):
    manifest = str(micro_dir / "manifest.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("input_size = 8\nclasses = 3\n"
                   + extra_cfg.format(manifest=manifest))
    out = tmp_path / "run"
    argv = [verb, "--manifest", manifest, "--config", str(cfg),
            "--out", str(out), "--epochs", "1", "--batch-size", "4", *flags]
    if verb == "eval":
        argv += ["--protocol", "loso"]
    assert main(argv) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_manifest_naming_missing_image_rejected_before_work(micro_dir, tmp_path,
                                                           capsys):
    # A two-stage run whose --manifest names one image that does not exist:
    # the manifest load fails before stage 0 trains, so nothing is written.
    pretrain = micro_dir / "manifest.csv"
    header, *rows = pretrain.read_text().splitlines()
    rows = [f"{micro_dir}/{row}" for row in rows]  # image paths made absolute
    missing = str(tmp_path / "gone.ppm")
    rows[3] = f"{missing},{rows[3].split(',', 1)[1]}"
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join([header, *rows]) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input_size = 8\nclasses = 3\npretrain_manifest = {pretrain}\n"
                   f"pretrain_epochs = 1\npretrain_batch_size = 6\n")
    out = tmp_path / "run"
    rc = main(["train", "--manifest", str(broken), "--config", str(cfg),
               "--out", str(out), "--epochs", "1", "--batch-size", "4"])
    assert rc == 1
    assert missing in capsys.readouterr().err
    assert not out.exists()


def test_train_missing_manifest_exits_one(tmp_path):
    rc = main(["train", "--manifest", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path)])
    assert rc == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lr0_exits_one(micro_dir, small_net_cfg, tmp_path, value):
    rc = main(["train", "--manifest", str(micro_dir / "manifest.csv"),
               "--config", small_net_cfg, "--out", str(tmp_path / "run"),
               "--epochs", "1", "--lr0", value])
    assert rc == 1
    assert not (tmp_path / "run").exists()


def test_unwritable_output_exits_two(micro_dir, small_net_cfg, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["train", "--manifest", str(micro_dir / "manifest.csv"),
               "--config", small_net_cfg, "--out", str(blocker / "sub"),
               "--epochs", "1", "--batch-size", "6"])
    assert rc == 2


# ---------------------------------------------------------------------------
# eval

def eval_args(micro_dir, cfg, out, seed="7"):
    return ["eval", "--protocol", "loso",
            "--manifest", str(micro_dir / "manifest.csv"),
            "--config", cfg, "--out", str(out), "--seed", seed,
            "--epochs", "1", "--batch-size", "4"]


def test_eval_loso_composition(micro_dir, small_net_cfg, tmp_path, capsys):
    out = tmp_path / "loso"
    rc = main(eval_args(micro_dir, small_net_cfg, out))
    assert rc == 0
    report = (out / "report.json").read_text()
    assert '"tag": "subject-s00"' in report
    assert report.count('"tag"') == 3  # one fold per synthetic subject
    for tag in ("subject-s00", "subject-s01", "subject-s02"):
        assert (out / "folds" / f"{tag}.ckpt").is_file()
        assert (out / "folds" / f"{tag}.log").is_file()
    assert "WAR" in capsys.readouterr().out
    assert (out / "report.txt").read_text().startswith("classes:")


def test_eval_reruns_byte_identical(micro_dir, small_net_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(eval_args(micro_dir, small_net_cfg, out1)) == 0
    assert main(eval_args(micro_dir, small_net_cfg, out2)) == 0
    for rel in ("report.json", "report.txt", "folds/subject-s01.ckpt",
                "folds/subject-s01.log"):
        assert read_bytes(out1 / rel) == read_bytes(out2 / rel), rel


def test_eval_seed_changes_fold_models(micro_dir, small_net_cfg, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(eval_args(micro_dir, small_net_cfg, out1, seed="7")) == 0
    assert main(eval_args(micro_dir, small_net_cfg, out2, seed="8")) == 0
    assert (read_bytes(out1 / "folds/subject-s00.ckpt")
            != read_bytes(out2 / "folds/subject-s00.ckpt"))


def test_eval_workers_match_in_process_training(micro_dir, small_net_cfg,
                                                tmp_path, monkeypatch, capsys):
    # On two CPUs each fold trains in a worker process; its checkpoint, log
    # and predictions must be those of the same fold trained in this process.
    out = tmp_path / "workers"
    assert run_on_cpus(monkeypatch, {0, 1},
                       eval_args(micro_dir, small_net_cfg, out)) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("fold ")]
    manifest = load_manifest(str(micro_dir / "manifest.csv"))
    folds = folds_loso(manifest)
    assert len(folds) == len(lines) == 3
    cfg = load_config(small_net_cfg)
    preset = replace(preset_from_config(cfg, "loso"), epochs=1, batch_size=4)
    for k, (fold, line) in enumerate(zip(folds, lines)):
        test = manifest.subset(fold.test)
        stem = tmp_path / "in_process" / fold.tag
        model, _ = train_and_save(network_from_config(cfg), preset,
                                  manifest.subset(fold.train), test, 7 + k,
                                  stem, attention=True)
        correct = int((predict_classes(model, test) == test.label_indices()).sum())
        assert re.fullmatch(rf"fold {fold.tag}: {correct}/{len(test)} correct "
                            rf"\(\d+\.\d\d s\)", line), line
        for ext in (".ckpt", ".log"):
            assert (read_bytes(out / "folds" / f"{fold.tag}{ext}")
                    == read_bytes(f"{stem}{ext}")), (fold.tag, ext)


# Every eval test below also relies on the autouse guard in conftest.py,
# which fails a test after which a worker process is left, running or not.

def test_eval_fold_error_exits_one_with_its_message(micro_dir, small_net_cfg,
                                                    tmp_path, capsys,
                                                    no_worker_starts):
    # Every fold's training set is checked, in fold order, before --out
    # exists and before any worker is forked.
    out = tmp_path / "run"
    args = eval_args(micro_dir, small_net_cfg, out)
    args[args.index("--batch-size") + 1] = "100"
    assert main(args) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: batch size 100 exceeds the \d+-sample "
                        r"training set \(after resampling\)\n", captured.err)
    assert "fold " not in captured.out
    assert not out.exists()


def test_eval_later_fold_error_stops_the_folds_after_it(
        micro_dir, small_net_cfg, tmp_path, monkeypatch, capsys):
    # Two workers start folds 0 and 1, and fold 1 fails. Fold 0 finishes
    # only once the parent has taken that failure, so fold 2 is never sent.
    out = tmp_path / "run"
    failure_taken = tmp_path / "failure-taken"
    real_train_and_save, real_receive = cli.train_and_save, workers.Pool._receive

    def second_fold_fails(*args, **kwargs):
        if os.fspath(args[5]).endswith("subject-s01"):
            raise ConfigError("fold 1 cannot train")
        deadline = time.monotonic() + 30
        while not failure_taken.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real_train_and_save(*args, **kwargs)

    def receive(pool):
        real_receive(pool)
        if pool.end < len(pool.tasks):
            failure_taken.touch()

    monkeypatch.setattr(cli, "train_and_save", second_fold_fails)
    monkeypatch.setattr(workers.Pool, "_receive", receive)
    assert run_on_cpus(monkeypatch, {0, 1},
                       eval_args(micro_dir, small_net_cfg, out)) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: fold 1 cannot train\n"
    assert [ln.split(":")[0] for ln in captured.out.splitlines()] == [
        "fold subject-s00"]
    assert sorted(p.name for p in (out / "folds").iterdir()) == [
        "subject-s00.ckpt", "subject-s00.log"]
    assert multiprocessing.active_children() == []


def test_eval_worker_killed_while_idle_names_its_next_fold(
        micro_dir, small_net_cfg, tmp_path, monkeypatch, capsys):
    # Both workers are killed, and have died, while they wait for their
    # first fold; the parent finds out when it sends them folds 0 and 1.
    real_start = workers.start

    def start_then_kill(call):
        proc, conn = real_start(call)
        os.kill(proc.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while (process_state(proc.pid) not in (None, "Z")
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return proc, conn

    monkeypatch.setattr(workers, "start", start_then_kill)
    assert run_on_cpus(monkeypatch, {0, 1}, eval_args(
        micro_dir, small_net_cfg, tmp_path / "run")) == 2
    assert capsys.readouterr().err == (
        "error: fold subject-s00: worker exited with code -9 before sending "
        "a result\n")


def test_eval_write_failure_exits_two_without_temp_files(
        micro_dir, small_net_cfg, tmp_path, writes_fail_half_way, capsys):
    out = tmp_path / "run"
    assert main(eval_args(micro_dir, small_net_cfg, out)) == 2
    assert "no space left on device" in capsys.readouterr().err
    assert list(out.rglob("*.tmp*")) == []


def test_eval_dead_worker_exits_two_naming_its_fold(micro_dir, small_net_cfg,
                                                    tmp_path, monkeypatch,
                                                    capsys):
    # Every worker dies without a word; the first fold's death is reported.
    monkeypatch.setattr(cli, "train_and_save", lambda *a, **k: os._exit(3))
    assert run_on_cpus(monkeypatch, {0, 1}, eval_args(
        micro_dir, small_net_cfg, tmp_path / "run")) == 2
    assert capsys.readouterr().err == (
        "error: fold subject-s00: worker exited with code 3 before sending "
        "a result\n")


def test_eval_interrupt_stops_running_workers(micro_dir, small_net_cfg,
                                              tmp_path, monkeypatch):
    # Ctrl-C arrives in the parent as it prints the first fold's line. By
    # then the other two workers sit in the middle of writing their
    # checkpoints: they must be stopped, not waited for, and each must
    # remove its temporary file as an interrupted serial run would.
    out = tmp_path / "run"
    real_open, real_train_and_save = open, cli.train_and_save

    def stall_after_open(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        if "subject-s00" not in os.fspath(path):
            time.sleep(60)
        return fh

    def first_fold_waits_for_the_others(*args, **kwargs):
        deadline = time.monotonic() + 20
        while (os.fspath(args[5]).endswith("subject-s00")
               and len(list(out.rglob("*.tmp*"))) < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return real_train_and_save(*args, **kwargs)

    temp_files_at_interrupt = []

    def interrupt_on_fold_line(*args, **kwargs):
        if str(args[0]).startswith("fold "):
            temp_files_at_interrupt.extend(out.rglob("*.tmp*"))
            raise KeyboardInterrupt
        print(*args, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(model_module, "open", stall_after_open, raising=False)
    monkeypatch.setattr(cli, "train_and_save", first_fold_waits_for_the_others)
    monkeypatch.setattr(cli, "print", interrupt_on_fold_line, raising=False)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(eval_args(micro_dir, small_net_cfg, out))
    assert time.monotonic() - t0 < 30
    assert len(temp_files_at_interrupt) == 2
    assert list(out.rglob("*.tmp*")) == []


def process_state(pid):
    """The state letter of a process ('R', 'S', 'Z', ...), or None if gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def kill_children():
    """SIGKILL every child process of this one and wait until each has
    died."""
    for child in multiprocessing.active_children():
        os.kill(child.pid, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while (process_state(child.pid) not in (None, "Z")
               and time.monotonic() < deadline):
            time.sleep(0.01)


# `merlib` as its command line runs it, in a subprocess that sees two CPUs
# whatever the machine has, so that its verb forks workers.
ON_TWO_CPUS = """
import os, sys
os.sched_getaffinity = lambda pid: {0, 1}
from merlib.cli import main
sys.exit(main(sys.argv[1:]))
"""


def start_on_two_cpus(args, **kwargs):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.Popen([sys.executable, "-c", ON_TWO_CPUS, *args],
                            env={**os.environ, "PYTHONPATH": src},
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            **kwargs)


def test_eval_sigterm_stops_running_workers(micro_dir, small_net_cfg,
                                            tmp_path):
    # A plain `kill` of a command-line eval whose folds are still training:
    # the parent must stop its workers before it exits, and no fold file may
    # be written after the signal.
    out = tmp_path / "run"
    args = eval_args(micro_dir, small_net_cfg, out)
    args[args.index("--epochs") + 1] = "100000"
    proc = start_on_two_cpus(args)
    workers = []
    try:
        children = f"/proc/{proc.pid}/task/{proc.pid}/children"
        deadline = time.monotonic() + 30
        while not workers and time.monotonic() < deadline:
            assert proc.poll() is None, proc.stderr.read().decode()
            with open(children) as fh:
                workers = [int(pid) for pid in fh.read().split()]
            time.sleep(0.05)
        assert workers, "no fold worker started within 30 s"
        def fold_files():
            return sorted(p for p in out.rglob("*") if p.is_file())

        before = fold_files()
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        assert [process_state(pid) for pid in workers
                if process_state(pid) not in (None, "Z")] == []
        assert fold_files() == before
        assert code == 128 + signal.SIGTERM
    finally:
        for pid in workers:
            if process_state(pid) not in (None, "Z"):
                os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stderr.close()


# ---------------------------------------------------------------------------
# batch shards and the stage helper

@pytest.fixture(scope="module")
def batch_dir(tmp_path_factory):
    """54 samples, enough for the pretrain preset's batch of 50."""
    out = tmp_path_factory.mktemp("batch")
    assert main(["synth", "--out", str(out), "--classes", "3", "--subjects",
                 "3", "--per-class", "6", "--size", "8", "--seed", "8"]) == 0
    return out


def batch_train_args(data_dir, cfg, out, epochs="3"):
    # Batch 50 of 54 samples with augmentation: each epoch is one step of
    # two 25-sample shards and one step of a 4-sample shard.
    return ["train", "--manifest", str(data_dir / "manifest.csv"),
            "--config", cfg, "--seed", "3", "--preset", "pretrain",
            "--epochs", epochs, "--out", str(out)]


@pytest.fixture
def helper_starts(monkeypatch):
    """Counts the workers (stage helpers, fold workers) this process
    starts."""
    started = []
    real_start = workers.start

    def counting_start(body, *args):
        started.append(body)
        return real_start(body, *args)

    monkeypatch.setattr(workers, "start", counting_start)
    return started


def run_on_cpus(monkeypatch, cpus, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    return main(argv)


def test_train_artifacts_do_not_depend_on_cpu_count(
        batch_dir, small_net_cfg, tmp_path, monkeypatch, helper_starts):
    # On one CPU this process computes both shards of a step; on two, two
    # helper processes compute one each from the same parameters.
    one, two = tmp_path / "one", tmp_path / "two"
    assert run_on_cpus(monkeypatch, {0},
                       batch_train_args(batch_dir, small_net_cfg, one)) == 0
    assert helper_starts == []
    assert run_on_cpus(monkeypatch, {0, 1},
                       batch_train_args(batch_dir, small_net_cfg, two)) == 0
    assert len(helper_starts) == 2
    for name in ("stage0.ckpt", "stage0.log"):
        assert read_bytes(one / name) == read_bytes(two / name), name
    # Batches of 70 of 72 samples are three shards: on three CPUs three
    # helpers compute one each.
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--classes", "3", "--subjects",
                 "3", "--per-class", "8", "--size", "8", "--seed", "8"]) == 0
    helper_starts.clear()
    outs = [tmp_path / "three-shards-one", tmp_path / "three-shards-three"]
    for cpus, out in zip(({0}, {0, 1, 2}), outs):
        argv = batch_train_args(data, small_net_cfg, out)
        assert run_on_cpus(monkeypatch, cpus, [*argv, "--batch-size", "70"]) == 0
    assert len(helper_starts) == 3
    for name in ("stage0.ckpt", "stage0.log"):
        assert read_bytes(outs[0] / name) == read_bytes(outs[1] / name), name


def test_train_artifacts_do_not_depend_on_blas_threads(
        batch_dir, small_net_cfg, tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "merlib.cli",
                        *batch_train_args(batch_dir, small_net_cfg, out)],
                       env=env, check=True, capture_output=True)
        runs.append([read_bytes(out / name)
                     for name in ("stage0.ckpt", "stage0.log")])
    assert runs[0] == runs[1]


def test_eval_forks_one_worker_per_cpu(micro_dir, small_net_cfg, tmp_path,
                                       monkeypatch, helper_starts):
    # Three folds: this process runs them all on one CPU, two workers share
    # them on two CPUs.
    for cpus, forks in (({0}, 0), ({0, 1}, 2)):
        assert run_on_cpus(monkeypatch, cpus, eval_args(
            micro_dir, small_net_cfg, tmp_path / str(len(cpus)))) == 0
        assert len(helper_starts) == forks


def test_eval_artifacts_do_not_depend_on_fold_workers(
        micro_dir, small_net_cfg, tmp_path, monkeypatch):
    outs = [tmp_path / "one", tmp_path / "two"]
    for cpus, out in zip(({0}, {0, 1}), outs):
        assert run_on_cpus(monkeypatch, cpus,
                           eval_args(micro_dir, small_net_cfg, out)) == 0
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*")
                   if p.is_file())
    assert len(files) == 8  # two reports, a checkpoint and a log per fold
    for rel in files:
        assert read_bytes(outs[0] / rel) == read_bytes(outs[1] / rel), rel


def test_eval_fold_workers_start_no_helper(batch_dir, small_net_cfg,
                                           tmp_path, monkeypatch):
    # Each fold trains on 36 samples in batches of 36, two shards a step;
    # a fold worker still computes both itself.
    real_start = workers.start

    def start_from_the_parent_only(*args):
        if multiprocessing.parent_process() is not None:
            raise AssertionError("a fold worker started a process")
        return real_start(*args)

    monkeypatch.setattr(workers, "start", start_from_the_parent_only)
    args = eval_args(batch_dir, small_net_cfg, tmp_path / "run")
    args[args.index("--batch-size") + 1] = "36"
    assert run_on_cpus(monkeypatch, {0, 1}, args) == 0


def test_helper_shard_error_exits_as_in_process(batch_dir, small_net_cfg,
                                                tmp_path, monkeypatch, capsys,
                                                helper_starts):
    # One image, in the second shard of the first step, is truncated: the
    # helper reads it, and the run must fail with the in-process run's exit
    # code and message.
    data = tmp_path / "data"
    shutil.copytree(batch_dir, data)
    manifest = load_manifest(str(data / "manifest.csv"))
    order = np.random.default_rng(np.random.SeedSequence((3, 0))).permutation(
        len(manifest))
    path = manifest.samples[order[30]].image
    raster = read_bytes(path)
    with open(path, "wb") as fh:
        fh.write(raster[:len(raster) - 10])
    capsys.readouterr()
    outcomes = []
    for cpus in ({0}, {0, 1}):
        code = run_on_cpus(monkeypatch, cpus, batch_train_args(
            data, small_net_cfg, tmp_path / f"run{len(cpus)}"))
        outcomes.append((code, capsys.readouterr().err))
    assert len(helper_starts) == 2
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (1, f"error: {path}: raster has 182 bytes, "
                              f"needs 192\n")


@pytest.mark.parametrize("when", ["idle", "busy"])
def test_train_dead_helper_exits_two_naming_its_shard(
        batch_dir, small_net_cfg, tmp_path, monkeypatch, capsys, when):
    # The helpers die between steps, found when the next step's one shard
    # is sent; or while they compute the first step's two shards, found as
    # this process waits for them.
    real_sgd_step = train_module.sgd_step
    real_wait = multiprocessing.connection.wait

    def sgd_step(*args, **kwargs):
        kill_children()
        return real_sgd_step(*args, **kwargs)

    def shard_pass_never_ends(*args):
        time.sleep(60)

    def wait(*args, **kwargs):
        kill_children()
        return real_wait(*args, **kwargs)

    if when == "idle":
        monkeypatch.setattr(train_module, "sgd_step", sgd_step)
    else:
        monkeypatch.setattr(train_module, "_shard_pass", shard_pass_never_ends)
        monkeypatch.setattr(multiprocessing.connection, "wait", wait)
    assert run_on_cpus(monkeypatch, {0, 1}, batch_train_args(
        batch_dir, small_net_cfg, tmp_path / "run")) == 2
    assert capsys.readouterr().err == (
        "error: epoch 0 shard 0: worker exited with code -9 before sending a "
        "result\n")
    assert multiprocessing.active_children() == []


def start_training_session(args):
    """A `merlib train` subprocess on two CPUs in its own session, and the
    pids of its two helpers once it has forked them."""
    proc = start_on_two_cpus(args, start_new_session=True)
    children = f"/proc/{proc.pid}/task/{proc.pid}/children"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        assert proc.poll() is None, proc.stderr.read().decode()
        with open(children) as fh:
            helpers = [int(pid) for pid in fh.read().split()]
        if len(helpers) == 2:
            return proc, helpers
        time.sleep(0.05)
    proc.kill()
    proc.wait()
    pytest.fail("two helpers did not start within 30 s")


def session_members(sid):
    """Pids of the live processes in session `sid`."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="reads process state from /proc")
def test_train_sigterm_stops_its_helper(batch_dir, small_net_cfg, tmp_path):
    proc, _ = start_training_session(batch_train_args(
        batch_dir, small_net_cfg, tmp_path / "run", epochs="100000"))
    try:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        assert session_members(proc.pid) == []
    finally:
        for pid in session_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stderr.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="reads process state from /proc")
def test_helper_exits_when_its_parent_is_killed(batch_dir, small_net_cfg,
                                                tmp_path):
    proc, helpers = start_training_session(batch_train_args(
        batch_dir, small_net_cfg, tmp_path / "run", epochs="100000"))
    try:
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 1
        while (any(process_state(pid) not in (None, "Z") for pid in helpers)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert [process_state(pid) in (None, "Z") for pid in helpers] == [
            True, True]
        # It left quietly: no traceback from a pipe closed under it.
        assert proc.stderr.read() == b""
    finally:
        for pid in session_members(proc.pid):
            os.kill(pid, signal.SIGKILL)
        proc.stderr.close()


def test_eval_hde_two_databases(micro_dir, beta_dir, small_net_cfg, tmp_path):
    out = tmp_path / "hde"
    rc = main(["eval", "--protocol", "hde",
               "--manifest", str(micro_dir / "manifest.csv"),
               "--manifest", str(beta_dir / "manifest.csv"),
               "--config", small_net_cfg, "--out", str(out), "--seed", "7",
               "--epochs", "1", "--batch-size", "4"])
    assert rc == 0
    report = (out / "report.json").read_text()
    assert '"tag": "train-beta_test-synth"' in report
    assert '"tag": "train-synth_test-beta"' in report


def test_eval_hde_single_database_names_missing(micro_dir, tmp_path, capsys):
    cfg = tmp_path / "hde.cfg"
    cfg.write_text("input_size = 8\nclasses = 3\n"
                   "hde_databases = synth,casper\n")
    rc = main(["eval", "--protocol", "hde",
               "--manifest", str(micro_dir / "manifest.csv"),
               "--config", str(cfg), "--out", str(tmp_path / "x"),
               "--epochs", "1", "--batch-size", "4"])
    assert rc == 1
    assert "casper" in capsys.readouterr().err


def test_eval_hde_single_database_without_config(micro_dir, small_net_cfg,
                                                 tmp_path, capsys):
    rc = main(["eval", "--protocol", "hde",
               "--manifest", str(micro_dir / "manifest.csv"),
               "--config", small_net_cfg, "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "synth" in err and "missing" in err


def test_eval_bad_protocol_rejected(micro_dir, tmp_path, capsys):
    rc = main(["eval", "--protocol", "xde",
               "--manifest", str(micro_dir / "manifest.csv"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# visualize

def test_visualize_writes_maps_and_overlay(micro_dir, tmp_path, capsys):
    spec = NetworkSpec.stack((3, 8, 8), 2, 4, 3)
    model = build_network(spec, seed=9, attention=True)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model, str(ckpt))
    out = tmp_path / "viz"
    rc = main(["visualize", "--checkpoint", str(ckpt),
               "--image", str(micro_dir / "images" / "00003.ppm"),
               "--out", str(out)])
    assert rc == 0
    assert (out / "map_block0.pgm").is_file()
    assert (out / "map_block1.pgm").is_file()
    overlay = read_image(str(out / "overlay.ppm"))
    assert overlay.shape == (8, 8, 3)
    assert "predicted class index:" in capsys.readouterr().out


def test_visualize_plain_checkpoint_gives_zero_maps(micro_dir, tmp_path):
    # Attention weights at zero mean constant maps, which normalize to 0.
    spec = NetworkSpec.stack((3, 8, 8), 1, 4, 3)
    model = build_network(spec, seed=9, attention=False)
    ckpt = tmp_path / "plain.ckpt"
    save_checkpoint(model, str(ckpt))
    out = tmp_path / "viz"
    rc = main(["visualize", "--checkpoint", str(ckpt),
               "--image", str(micro_dir / "images" / "00000.ppm"),
               "--out", str(out)])
    assert rc == 0
    gray = read_image(str(out / "map_block0.pgm"))
    assert (np.asarray(gray) == 0).all()


def test_visualize_rejects_non_object_checkpoint_header(micro_dir, tmp_path,
                                                        capsys):
    blob = encode_checkpoint(build_network(NetworkSpec.stack((3, 8, 8), 1, 4, 3), seed=9))
    header_len = int.from_bytes(blob[12:16], "little")
    ckpt = tmp_path / "list.ckpt"
    ckpt.write_bytes(blob[:12] + (3).to_bytes(4, "little") + b"[1]"
                     + blob[16 + header_len:])
    rc = main(["visualize", "--checkpoint", str(ckpt),
               "--image", str(micro_dir / "images" / "00000.ppm"),
               "--out", str(tmp_path / "viz")])
    assert rc == 1
    assert f"error: {ckpt}: " in capsys.readouterr().err


def test_visualize_rejects_checkpoint_without_blocks(micro_dir, tmp_path,
                                                     capsys):
    # `train` accepts blocks = 0; such a network has no attention map.
    cfg = tmp_path / "no_blocks.cfg"
    cfg.write_text("input_size = 8\nclasses = 3\nblocks = 0\n")
    assert main(["train", "--manifest", str(micro_dir / "manifest.csv"),
                 "--config", str(cfg), "--epochs", "1", "--batch-size", "4",
                 "--out", str(tmp_path / "train")]) == 0
    ckpt = tmp_path / "train" / "stage0.ckpt"
    out = tmp_path / "viz"
    capsys.readouterr()
    assert main(["visualize", "--checkpoint", str(ckpt),
                 "--image", str(micro_dir / "images" / "00000.ppm"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: network has no blocks, so no attention maps to "
        f"visualize\n")
    assert not out.exists()


def test_visualize_rejects_undersized_image(micro_dir, tmp_path):
    spec = NetworkSpec.stack((3, 16, 16), 1, 4, 3)
    model = build_network(spec, seed=9)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model, str(ckpt))
    rc = main(["visualize", "--checkpoint", str(ckpt),
               "--image", str(micro_dir / "images" / "00000.ppm"),
               "--out", str(tmp_path / "viz")])
    assert rc == 1  # 8x8 image cannot feed a 16x16 network


def test_visualize_crops_oversized_image(tmp_path):
    spec = NetworkSpec.stack((3, 8, 8), 1, 4, 3)
    model = build_network(spec, seed=9)
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(model, str(ckpt))
    big = tmp_path / "big.ppm"
    rng = np.random.default_rng(0)
    write_ppm(str(big), rng.integers(0, 256, (12, 12, 3)).astype(np.uint8))
    out = tmp_path / "viz"
    rc = main(["visualize", "--checkpoint", str(ckpt), "--image", str(big),
               "--out", str(out)])
    assert rc == 0
    assert read_image(str(out / "overlay.ppm")).shape == (8, 8, 3)


# ---------------------------------------------------------------------------
# memory reuse

# Trains a 2-epoch batch-50 stage twice to warm up, then prints the minor
# page faults of a 6-epoch run of it in the same fresh process. Without
# reuse, every step takes its activations and gradients as fresh pages from
# the kernel again. The process sees one CPU, so it computes every step
# itself and the faults it counts are the steps'.
REPEATED_TRAINING = """
import os, resource, sys
os.sched_getaffinity = lambda pid: {0}
from merlib.cli import main
from merlib.data import save_manifest, synth_dataset
out = sys.argv[1]
save_manifest(synth_dataset(n_classes=5, n_subjects=5, per_class=2,
                            image_size=32, seed=0), out)
cfg = os.path.join(out, "net.cfg")
with open(cfg, "w") as fh:
    fh.write("input_size = 32\\nclasses = 5\\nblocks = 4\\nwidth = 8\\n")
def faults(epochs):
    argv = ["train", "--manifest", os.path.join(out, "manifest.csv"),
            "--config", cfg, "--preset", "pretrain", "--epochs", str(epochs),
            "--out", os.path.join(out, "run")]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
faults(2)
faults(2)
print(faults(6))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting applies to glibc only")
def test_repeated_training_reuses_freed_memory(tmp_path):
    # The fresh process imports the merlib under test.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", REPEATED_TRAINING,
                             str(tmp_path)], env=env, capture_output=True,
                            text=True, check=True)
    faults = int(result.stdout.splitlines()[-1])
    # Under 400 with the setting, 93k to 280k at glibc's defaults, where
    # glibc's moving mmap threshold makes the count depend on the heap's
    # layout (glibc 2.36, 2-core VM). A difference of two such runs read
    # -10k at the defaults, so the test counts one run after the warm-up.
    assert faults < 2000


# Runs batch-5 forward passes of the acceptance network in a fresh process
# that imports merlib but never calls main, as a library caller scoring
# samples does, and prints the minor page faults of twenty of them.
REPEATED_FORWARDS = """
import resource
import numpy as np
from merlib import tensor as tc
from merlib.model import NetworkSpec, build_network
model = build_network(NetworkSpec.stack((3, 32, 32), 4, 8, 5), seed=0)
x = tc.Tensor(np.random.default_rng(0).uniform(-0.5, 0.5, (5, 3, 32, 32)))
model.forward(x)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    model.forward(x)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator setting applies to glibc only")
def test_library_forwards_reuse_freed_memory():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", REPEATED_FORWARDS],
                            env=env, capture_output=True, text=True, check=True)
    faults = int(result.stdout.splitlines()[-1])
    # About 16k at glibc's defaults (800 a forward) and under 10 with the
    # setting (glibc 2.36, 2-core VM).
    assert faults < 2000


@pytest.mark.parametrize("libc, symbols", [
    (("musl", ""), {}),            # another libc: libc is never opened
    (("glibc", "2.36"), {}),       # a glibc without mallopt
], ids=["not-glibc", "no-mallopt"])
def test_allocator_setting_is_a_no_op_elsewhere(monkeypatch, libc, symbols):
    opened = []

    def fake_cdll(name):
        opened.append(name)
        return argparse.Namespace(**symbols)

    monkeypatch.setattr(merlib.platform, "libc_ver", lambda *a, **k: libc)
    monkeypatch.setattr(merlib.ctypes, "CDLL", fake_cdll)
    merlib._keep_freed_memory()
    assert len(opened) == (libc[0] == "glibc")


# ---------------------------------------------------------------------------
# argument handling

def test_unknown_verb_exits_one(capsys):
    assert main(["transmogrify"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_surface_is_pinned():
    # Every config key and every verb's option strings. A change to a flag
    # or key must show up here as a test diff.
    assert sorted(_DEFAULTS) == [
        "attention", "augment", "batch_size", "blocks", "channels", "classes",
        "epochs", "hde_databases", "init_checkpoint", "init_mode",
        "input_size", "lr0", "momentum", "preset", "pretrain_batch_size",
        "pretrain_epochs", "pretrain_lr0", "pretrain_manifest", "step_epochs",
        "strides", "val_manifest", "weight_decay", "width"]
    common = ["-h", "--help", "--config", "--seed", "--out"]
    stage = ["--preset", "--epochs", "--lr0", "--batch-size",
             "--init-checkpoint", "--init-mode"]
    verbs = next(a for a in build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices
    options = {verb: [o for a in p._actions for o in a.option_strings]
               for verb, p in verbs.items()}
    assert options == {
        "gradcheck": common,
        "synth": common + ["--classes", "--subjects", "--per-class", "--size",
                           "--database"],
        "train": common + ["--manifest", "--val-manifest", *stage],
        "eval": common + ["--protocol", "--manifest", *stage],
        "visualize": common + ["--checkpoint", "--image"],
    }


def test_negative_seed_exits_one(micro_dir, tmp_path):
    rc = main(["gradcheck", "--seed", "-3", "--out", str(tmp_path)])
    assert rc == 1
