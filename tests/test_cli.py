"""End-to-end CLI tests: exit codes, artifact layout, determinism.

Everything runs in-process through main(argv) on desk-scale synthetic data,
so the suite stays fast while still exercising the real command paths.
"""

import argparse
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

import merlib.cli as cli
import merlib.model as model_module
import merlib.tensor as tc
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


def test_bad_config_exits_one(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery = 1\n")
    rc = main(["gradcheck", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 1


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

def test_train_single_stage(micro_dir, small_net_cfg, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--manifest", str(micro_dir / "manifest.csv"),
               "--config", small_net_cfg, "--out", str(out), "--seed", "1",
               "--preset", "pretrain", "--epochs", "2", "--batch-size", "6"])
    assert rc == 0
    assert (out / "stage0.ckpt").is_file()
    log = (out / "stage0.log").read_text().splitlines()
    assert log[0] == "epoch\tlr\ttrain_loss\tval_accuracy"
    assert len(log) == 3  # header + 2 epochs
    assert "trained 1 stage(s)" in capsys.readouterr().out


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
               "--config", str(cfg), "--out", str(out), "--seed", "4"])
    assert rc == 0
    stage0 = load_checkpoint(str(out / "stage0.ckpt"))
    stage1 = load_checkpoint(str(out / "stage1.ckpt"))
    assert not stage0.attention and stage1.attention
    # pretrain_* keys reach the pretraining stage only.
    rows0 = (out / "stage0.log").read_text().splitlines()[1:]
    rows1 = (out / "stage1.log").read_text().splitlines()[1:]
    assert [r.split("\t")[1] for r in rows0] == ["0.005", "0.005"]
    assert len(rows1) == 1 and rows1[0].split("\t")[1] == "0.001"


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
                                                tmp_path, capsys):
    # Each fold trains in its own worker process; its checkpoint, log and
    # predictions must be those of the same fold trained in this process.
    out = tmp_path / "workers"
    assert main(eval_args(micro_dir, small_net_cfg, out)) == 0
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
                                                    tmp_path, capsys):
    args = eval_args(micro_dir, small_net_cfg, tmp_path / "run")
    args[args.index("--batch-size") + 1] = "100"
    assert main(args) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: batch size 100 exceeds the \d+-sample "
                        r"training set \(after resampling\)\n", captured.err)
    assert "fold " not in captured.out


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
    assert main(eval_args(micro_dir, small_net_cfg, tmp_path / "run")) == 2
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
