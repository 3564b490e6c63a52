"""Command-line interface.

Verbs: gradcheck, synth, train, eval, visualize. Configuration comes from a
plain ``key = value`` file (--config) with command-line flags taking
precedence. Exit codes are a stable contract: 0 success, 1 validation error,
2 runtime or numerical failure. Every command is deterministic given
(config, seed): reruns produce byte-identical artifacts.
"""

import argparse
import os
import signal
import sys
import time
from dataclasses import replace

import numpy as np

from . import tensor as tc
from .data import (crop_square, load_manifest, merge_manifests,
                   save_manifest, synth_dataset)
from .errors import ConfigError, ManifestError, ValidationError
from .evaluation import (aggregate, folds_cde, folds_hde, folds_loso,
                         nearest_resize, render_report, report_to_json)
from .imageio import read_image, write_pgm, write_ppm
from .model import (NetworkSpec, attention_readout, build_network,
                    load_checkpoint, parameter_grad_errors, write_atomic)
from .train import PRESETS, predict_classes, prepare_input, train_and_save

GRADCHECK_THRESHOLD = 1e-4

# Config file keys and their defaults; empty string means unset. The default
# network is the desk-scale gradcheck target: 2 blocks of width 4 on 3x8x8.
_DEFAULTS = {
    "blocks": "2",
    "width": "4",
    "input_size": "8",
    "channels": "3",
    "classes": "5",
    "strides": "",
    "attention": "true",
    "preset": "",
    "epochs": "",
    "lr0": "",
    "batch_size": "",
    "weight_decay": "",
    "step_epochs": "",
    "momentum": "",
    "augment": "true",
    "init_checkpoint": "",
    "init_mode": "exact",
    "pretrain_manifest": "",
    "pretrain_epochs": "",
    "pretrain_batch_size": "",
    "pretrain_lr0": "",
    "val_manifest": "",
    "hde_databases": "",
}


def load_config(path=None) -> dict:
    """Defaults overlaid with a ``key = value`` file; unknown keys rejected."""
    cfg = dict(_DEFAULTS)
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _as_int(cfg, key):
    try:
        return int(cfg[key])
    except ValueError as e:
        raise ConfigError(f"config {key} must be an integer, got {cfg[key]!r}") from e


def _as_float(cfg, key):
    try:
        return float(cfg[key])
    except ValueError as e:
        raise ConfigError(f"config {key} must be a number, got {cfg[key]!r}") from e


def _as_bool(cfg, key):
    value = cfg[key].lower()
    if value in ("true", "yes", "1", "on"):
        return True
    if value in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"config {key} must be true/false, got {cfg[key]!r}")


def _check_seed(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must be an unsigned 64-bit value, got {seed}")
    return seed


def network_from_config(cfg) -> NetworkSpec:
    size = _as_int(cfg, "input_size")
    shape = (_as_int(cfg, "channels"), size, size)
    strides = None
    if cfg["strides"]:
        try:
            strides = [int(s) for s in cfg["strides"].split(",")]
        except ValueError as e:
            raise ConfigError(f"config strides must be comma-separated "
                              f"integers, got {cfg['strides']!r}") from e
    return NetworkSpec.stack(shape, _as_int(cfg, "blocks"),
                             _as_int(cfg, "width"), _as_int(cfg, "classes"),
                             strides=strides)


def preset_from_config(cfg, name: str, prefix: str = ""):
    """Preset `name` with the config's scalar overrides applied.

    Every key is read with `prefix` in front (`pretrain_epochs` for the
    pretraining stage) and counts only where it exists and is non-empty;
    a `preset` key so found replaces `name`. `augment = false` applies to
    every stage.
    """
    name = cfg.get(prefix + "preset") or name
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from "
                          f"{', '.join(sorted(PRESETS))}")
    overrides = {}
    for field, cast in (("epochs", _as_int), ("lr0", _as_float),
                        ("batch_size", _as_int), ("weight_decay", _as_float),
                        ("step_epochs", _as_int), ("momentum", _as_float)):
        if cfg.get(prefix + field):
            overrides[field] = cast(cfg, prefix + field)
    if not _as_bool(cfg, "augment"):
        overrides["augment"] = None
    return replace(PRESETS[name], **overrides)


# Flags shared by train and eval; each overrides the config key of its name.
_STAGE_FLAGS = ("preset", "epochs", "lr0", "batch_size", "init_checkpoint",
                "init_mode")


def _apply_flag_overrides(cfg, args):
    """Flags win over the config file; only explicitly passed flags count."""
    for key in _STAGE_FLAGS:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = str(value)


def _require_file(path, what):
    if not os.path.isfile(path):
        raise ValidationError(f"{what} not found: {path}")
    return path


def _init_source(cfg, two_stage: bool = False) -> tuple:
    """(init_checkpoint or None, init_mode) for the first trained stage.

    Rejects, before any work, the combinations no run could honour: an
    unknown mode, an upgrade with nothing to upgrade, and a starting
    checkpoint for a two-stage run, whose pretraining starts fresh.
    """
    checkpoint, mode = cfg["init_checkpoint"] or None, cfg["init_mode"]
    if mode not in ("exact", "upgrade"):
        raise ConfigError(f"init_mode must be 'exact' or 'upgrade', got {mode!r}")
    if two_stage and checkpoint:
        raise ConfigError("init_checkpoint cannot be combined with "
                          "pretrain_manifest: the pretraining stage starts "
                          "from a fresh network")
    if mode == "upgrade" and checkpoint is None:
        raise ConfigError("init_mode upgrade needs an init_checkpoint to upgrade")
    if checkpoint:
        _require_file(checkpoint, "checkpoint")
    return checkpoint, mode


# ---------------------------------------------------------------------------
# gradcheck

def run_gradcheck(model, seed: int) -> tuple:
    """Finite-difference check of every parameter on a random input batch.

    Returns (ok, errors). A model with no parameters passes vacuously.
    """
    if not model.parameters():
        return True, {}
    c, h, w = model.spec.input_shape
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x6C)))
    x = tc.Tensor(rng.standard_normal((2, c, h, w)))
    labels = rng.integers(0, model.spec.num_classes, size=2)
    errors = parameter_grad_errors(model, x, labels)
    ok = all(v < GRADCHECK_THRESHOLD for v in errors.values())
    return ok, errors


def gradcheck_table(errors: dict) -> str:
    lines = ["parameter\tmax_rel_error"]
    lines += [f"{name}\t{errors[name]:.3e}" for name in errors]
    return "\n".join(lines) + "\n"


def cmd_gradcheck(args) -> int:
    cfg = load_config(args.config)
    seed = _check_seed(args.seed)
    spec = network_from_config(cfg)
    model = build_network(spec, seed, attention=_as_bool(cfg, "attention"))
    ok, errors = run_gradcheck(model, seed)
    table = gradcheck_table(errors)
    sys.stdout.write(table)
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, "gradcheck.txt"), table.encode())
    if ok:
        print(f"gradcheck passed: {len(errors)} parameters below "
              f"{GRADCHECK_THRESHOLD:g}")
        return 0
    worst = max(errors, key=errors.get)
    print(f"gradcheck FAILED: worst parameter {worst} "
          f"(max relative error {errors[worst]:.3e})", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# synth

def cmd_synth(args) -> int:
    seed = _check_seed(args.seed)
    manifest = synth_dataset(n_classes=args.classes, n_subjects=args.subjects,
                             per_class=args.per_class, image_size=args.size,
                             seed=seed, database_id=args.database)
    path = save_manifest(manifest, args.out)
    print(f"wrote {len(manifest.samples)} samples "
          f"({len(manifest.class_names)} classes, "
          f"{len(manifest.subjects())} subjects) to {path}")
    return 0


# ---------------------------------------------------------------------------
# train

def _load_manifests(paths) -> list:
    return [load_manifest(_require_file(p, "manifest")) for p in paths]


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    _apply_flag_overrides(cfg, args)
    seed = _check_seed(args.seed)
    spec = network_from_config(cfg)
    attention = _as_bool(cfg, "attention")
    two_stage = bool(cfg["pretrain_manifest"])
    if two_stage and not attention:
        raise ConfigError("attention = false cannot be combined with "
                          "pretrain_manifest: the second stage upgrades the "
                          "pretrained network to attention")
    init_checkpoint, init_mode = _init_source(cfg, two_stage)
    train_manifest = _load_manifests([args.manifest])[0]
    val_path = args.val_manifest or cfg["val_manifest"] or None
    val_manifest = _load_manifests([val_path])[0] if val_path else train_manifest

    preset = preset_from_config(cfg, "pretrain")
    stem = os.path.join(args.out, "stage0")
    if two_stage:
        # Two-stage transfer: plain pretraining, then fine-tune with the
        # attention parameters injected at zero.
        pre_manifest = _load_manifests([cfg["pretrain_manifest"]])[0]
        pre = preset_from_config(cfg, "pretrain", "pretrain_")
        train_and_save(spec, pre, pre_manifest, pre_manifest, seed, stem)
        init_checkpoint, init_mode = f"{stem}.ckpt", "upgrade"
        seed, stem = seed + 1, os.path.join(args.out, "stage1")
    _, log = train_and_save(spec, preset, train_manifest, val_manifest, seed,
                            stem, attention=attention,
                            init_checkpoint=init_checkpoint, init_mode=init_mode)
    print(f"trained {2 if two_stage else 1} stage(s); final train loss "
          f"{log.records[-1].train_loss!r}, artifacts under {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _protocol_folds(protocol, manifest, cfg):
    if protocol == "loso":
        return folds_loso(manifest)
    if protocol == "cde":
        return folds_cde(manifest)
    if protocol == "hde":
        if cfg["hde_databases"]:
            pair = [s.strip() for s in cfg["hde_databases"].split(",")]
            if len(pair) != 2:
                raise ConfigError(f"hde_databases must name two databases, "
                                  f"got {cfg['hde_databases']!r}")
        else:
            pair = manifest.databases()
            if len(pair) != 2:
                raise ManifestError(
                    f"holdout evaluation needs exactly two databases, found "
                    f"{', '.join(pair) or 'none'}; a second database is "
                    f"missing (or set hde_databases explicitly)")
        return folds_hde(manifest, pair[0], pair[1])
    raise ConfigError(f"unknown protocol {protocol!r}")


def _fold_worker(run_fold, k, writer):
    """Body of fold k's worker process: sends (run_fold(k), wall seconds),
    or the exception it raised, and prints nothing."""
    # Ctrl-C reaches the whole process group; the parent alone handles it
    # and stops the workers with SIGTERM, which unwinds a worker like an
    # exit, so a write in progress removes its temporary file.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    t0 = time.perf_counter()
    try:
        outcome = (run_fold(k), time.perf_counter() - t0)
    except Exception as e:
        outcome = e
    writer.send(outcome)


def _run_folds(folds, run_fold, report):
    """Run run_fold(k) for every fold in forked worker processes, at most one
    per available CPU at a time, and call report(k, result, seconds) in fold
    order as the results arrive.

    A failed fold keeps the folds after it from starting. Once the running
    workers have ended, the first failure in fold order is raised, so the
    folds reported, the exception and the exit code are a serial run's. A
    worker that ends without a result is a RuntimeError naming its fold.
    Workers still running when this returns or raises (Ctrl-C, SIGTERM) are
    terminated and joined. Fork, not spawn or forkserver: it starts no
    helper process that could outlive the call, and run_fold needs no
    pickling.
    """
    # Imported here, not at the top: the modules take about 1 MB that no
    # other verb, and no library caller of merlib.cli, needs.
    import multiprocessing
    from multiprocessing.connection import wait

    fork = multiprocessing.get_context("fork")
    width = min(len(os.sched_getaffinity(0)), len(folds))
    live, done = {}, {}  # fold index -> (process, reader); -> outcome
    end = len(folds)     # folds from the first failure on never start
    started = reported = 0
    try:
        while live or started < end:
            while started < end and len(live) < width:
                reader, writer = fork.Pipe(duplex=False)
                proc = fork.Process(target=_fold_worker,
                                    args=(run_fold, started, writer))
                proc.start()
                live[started] = (proc, reader)
                writer.close()  # so a dead worker reads as EOF, not a hang
                started += 1
            ready = wait([reader for _, reader in live.values()])
            for k in [k for k, (_, reader) in live.items() if reader in ready]:
                proc, reader = live.pop(k)
                try:
                    done[k] = reader.recv()
                except EOFError:
                    done[k] = None
                reader.close()
                proc.join()
                if done[k] is None:
                    done[k] = RuntimeError(
                        f"fold {folds[k].tag}: worker exited with code "
                        f"{proc.exitcode} before sending a result")
                if isinstance(done[k], Exception):
                    end = min(end, k)
            while reported < end and reported in done:
                report(reported, *done.pop(reported))
                reported += 1
    finally:
        for proc, _ in live.values():
            proc.terminate()
        for proc, reader in live.values():
            proc.join()
            reader.close()
    if end < len(folds):
        raise done[end]


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    _apply_flag_overrides(cfg, args)
    seed = _check_seed(args.seed)
    spec = network_from_config(cfg)
    attention = _as_bool(cfg, "attention")
    if cfg["val_manifest"]:
        raise ConfigError("val_manifest does not apply to eval: each fold "
                          "validates on its own test set")
    init_checkpoint, init_mode = _init_source(cfg)
    manifests = _load_manifests(args.manifest)
    manifest = manifests[0] if len(manifests) == 1 else merge_manifests(manifests)

    folds = _protocol_folds(args.protocol, manifest, cfg)
    preset = preset_from_config(cfg, args.protocol)

    def run_fold(k):
        fold = folds[k]
        test = manifest.subset(fold.test)
        model, _ = train_and_save(spec, preset, manifest.subset(fold.train),
                                  test, seed + k,
                                  os.path.join(args.out, "folds", fold.tag),
                                  attention=attention,
                                  init_checkpoint=init_checkpoint,
                                  init_mode=init_mode)
        return predict_classes(model, test)

    fold_predictions = {}

    def report_fold(k, predicted, seconds):
        fold = folds[k]
        actual = manifest.subset(fold.test).label_indices()
        fold_predictions[fold.tag] = (predicted.tolist(), actual.tolist())
        correct = int((predicted == actual).sum())
        print(f"fold {fold.tag}: {correct}/{len(actual)} correct "
              f"({seconds:.2f} s)")

    _run_folds(folds, run_fold, report_fold)
    report = aggregate(folds, fold_predictions, manifest.class_names)
    write_atomic(os.path.join(args.out, "report.txt"),
                 render_report(report).encode())
    write_atomic(os.path.join(args.out, "report.json"),
                 report_to_json(report).encode())
    print(f"WAR {report.war!r}  UAR {report.uar!r}  macro-F1 {report.macro_f1!r}")
    return 0


# ---------------------------------------------------------------------------
# visualize

def _normalize_map(arr: np.ndarray) -> np.ndarray:
    """Min-max to [0,255]; a constant map becomes all zeros by convention."""
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return np.zeros(arr.shape, dtype=np.uint8)
    return np.rint((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)


def cmd_visualize(args) -> int:
    model = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    image = read_image(_require_file(args.image, "image"))
    _, h, w = model.spec.input_shape
    x = tc.Tensor(prepare_input(image, model.spec.input_shape)[None])
    readout = attention_readout(model, x)
    os.makedirs(args.out, exist_ok=True)
    maps = [m.data[0, 0] for m in readout.maps]
    for i, raw in enumerate(maps):
        write_pgm(os.path.join(args.out, f"map_block{i}.pgm"),
                  _normalize_map(raw))
    # Overlay: last block's map, nearest-neighbor upsampled, at 50% opacity
    # on top of the (possibly center-cropped) network input.
    gray = nearest_resize(_normalize_map(maps[-1]), h, w)
    base = image if image.shape[:2] == (h, w) else crop_square(image, h, "center")
    overlay = np.rint(0.5 * base.astype(np.float64)
                      + 0.5 * gray[:, :, None].astype(np.float64)).astype(np.uint8)
    write_ppm(os.path.join(args.out, "overlay.ppm"), overlay)
    predicted = int(np.argmax(readout.logits.data[0]))
    print(f"predicted class index: {predicted}")
    print(f"wrote {len(maps)} attention maps and overlay.ppm to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser and entry point

class _Parser(argparse.ArgumentParser):
    # Argument errors must map to exit code 1, so raise instead of exiting.
    def error(self, message):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="merlib",
                     description="Micro-expression recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="key = value file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=".", help="output directory")

    def stage_flags(p):
        # One flag per _STAGE_FLAGS key, in that order.
        p.add_argument("--preset", default=None, choices=sorted(PRESETS))
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--lr0", type=float, default=None)
        p.add_argument("--batch-size", type=int, default=None, dest="batch_size")
        p.add_argument("--init-checkpoint", default=None, dest="init_checkpoint")
        p.add_argument("--init-mode", default=None, dest="init_mode",
                       choices=["exact", "upgrade"])

    p = sub.add_parser("gradcheck", description="Finite-difference "
                       "check of every parameter gradient.")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("synth", description="Generate a synthetic localized-"
                       "signal dataset and write its manifest.")
    common(p)
    p.add_argument("--classes", type=int, default=5)
    p.add_argument("--subjects", type=int, default=6)
    p.add_argument("--per-class", type=int, default=4,
                   help="samples per class per subject")
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--database", default="synth")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", description="Train one stage, or the two-"
                       "stage transfer pipeline when pretrain_manifest is set.")
    common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest", default=None)
    stage_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", description="Protocol evaluation: split, train "
                       "per fold, aggregate pooled metrics.")
    common(p)
    p.add_argument("--protocol", required=True, choices=["hde", "cde", "loso"])
    p.add_argument("--manifest", action="append", required=True,
                   help="repeat to pool several manifests")
    stage_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("visualize", description="Export per-block attention "
                       "maps and an overlay for one image.")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.set_defaults(func=cmd_visualize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as e:
        # NumericalError and TrainingError land here.
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
