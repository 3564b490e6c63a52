"""Schedule, optimizer, training stages, and the transfer pipeline."""

import os
import pathlib
import re
import tempfile
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merlib import tensor as tc
from merlib import workers
from merlib.data import synth_dataset
from merlib.errors import (CheckpointSpecMismatch, ConfigError, ShapeError,
                           TrainingError)
from merlib.model import (NetworkSpec, build_network, load_checkpoint,
                          save_checkpoint)
from merlib.train import (PRESETS, EpochRecord, OptimState, Schedule,
                          StagePreset, TrainLog, _batch_grads, _shard_pass,
                          evaluate_accuracy, lr_at, predict_classes,
                          prepare_input, run_stage, sgd_step, train_and_save)

SPEC16 = NetworkSpec.stack((3, 16, 16), 2, 4, 2)


def overfit_preset(**overrides):
    base = StagePreset(batch_size=8, lr0=0.05, weight_decay=0.0,
                       step_epochs=1000, epochs=5, momentum=0.9,
                       augment=None, resample=False)
    return replace(base, **overrides)


class TestSchedule:
    def test_pretrain_boundaries(self):
        s = PRESETS["pretrain"].schedule()
        assert lr_at(s, 0) == 0.01
        assert lr_at(s, 19) == 0.01
        assert lr_at(s, 20) == pytest.approx(0.001, rel=1e-12)

    def test_loso_epoch_25(self):
        s = PRESETS["loso"].schedule()
        assert lr_at(s, 25) == pytest.approx(1e-5, rel=1e-12)

    def test_non_increasing_and_piecewise_constant(self):
        s = Schedule(0.1, 7)
        values = [lr_at(s, e) for e in range(60)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for e in range(59):
            if (e + 1) % 7:
                assert values[e + 1] == values[e]

    def test_validation(self):
        with pytest.raises(ConfigError):
            Schedule(0.0, 10)
        with pytest.raises(ConfigError):
            Schedule(0.1, 0)
        for lr0 in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                Schedule(lr0, 10)
        with pytest.raises(ConfigError):
            lr_at(Schedule(0.1, 10), -1)


class TestPresets:
    def test_section_table_values(self):
        p = PRESETS["pretrain"]
        assert (p.batch_size, p.lr0, p.step_epochs) == (50, 0.01, 20)
        h = PRESETS["hde"]
        assert (h.batch_size, h.lr0, h.weight_decay, h.step_epochs) == (10, 1e-4, 3e-2, 10)
        c = PRESETS["cde"]
        assert (c.batch_size, c.lr0, c.weight_decay, c.step_epochs) == (8, 1e-3, 5e-6, 10)
        l = PRESETS["loso"]
        assert (l.batch_size, l.lr0, l.weight_decay, l.step_epochs) == (10, 1e-3, 5e-4, 10)
        assert all(PRESETS[k].momentum == 0.9 for k in PRESETS)
        assert all(PRESETS[k].resample for k in ("hde", "cde", "loso"))
        assert PRESETS["cde"].augment.crop == (240, 224)

    def test_preset_validation(self):
        with pytest.raises(ConfigError):
            StagePreset(batch_size=0, lr0=0.1, weight_decay=0, step_epochs=1)
        with pytest.raises(ConfigError):
            StagePreset(batch_size=1, lr0=0.1, weight_decay=0,
                        step_epochs=1, momentum=1.0)
        with pytest.raises(ConfigError):
            StagePreset(batch_size=1, lr0=0.1, weight_decay=-1, step_epochs=1)
        for wd in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                StagePreset(batch_size=1, lr0=0.1, weight_decay=wd, step_epochs=1)
        with pytest.raises(ConfigError):
            StagePreset(batch_size=1, lr0=float("nan"), weight_decay=0,
                        step_epochs=1)
        for batch_size, epochs in ((float("nan"), float("nan")), (2.5, 1),
                                   (1, 2.5), (1, 0)):
            with pytest.raises(ConfigError):
                StagePreset(batch_size=batch_size, lr0=0.1, weight_decay=0,
                            step_epochs=1, epochs=epochs)


class TestSgdStep:
    def _setup(self, value):
        p = tc.Tensor(np.array([value]), requires_grad=True)
        params = {"p": p}
        return p, params, OptimState(params)

    def test_zero_grad_zero_decay_is_fixed_point(self):
        p, params, state = self._setup(1.0)
        sgd_step(params, {"p": np.zeros(1)}, state, lr=0.1, momentum=0.9,
                 weight_decay=0.0)
        assert p.data[0] == 1.0
        assert state.velocity["p"][0] == 0.0

    def test_two_step_hand_iteration(self):
        p, params, state = self._setup(1.0)
        g = np.array([1.0])
        sgd_step(params, {"p": g}, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.data[0] == 1.0 - 0.1 * 1.0
        assert state.velocity["p"][0] == 1.0
        sgd_step(params, {"p": g}, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        v2 = 0.9 * 1.0 + 1.0
        assert state.velocity["p"][0] == v2
        assert p.data[0] == (1.0 - 0.1 * 1.0) - 0.1 * v2  # 0.71 up to float eval
        assert p.data[0] == pytest.approx(0.71, abs=1e-12)

    def test_pure_decay_step(self):
        p, params, state = self._setup(1.0)
        sgd_step(params, {"p": np.zeros(1)}, state, lr=1.0, momentum=0.0,
                 weight_decay=0.1)
        assert p.data[0] == pytest.approx(0.9, abs=1e-15)

    def test_zero_lr_is_identity_on_params(self):
        p, params, state = self._setup(3.0)
        sgd_step(params, {"p": np.array([5.0])}, state, lr=0.0, momentum=0.9,
                 weight_decay=0.01)
        assert p.data[0] == 3.0

    def test_non_finite_gradient_aborts(self):
        p, params, state = self._setup(1.0)
        with pytest.raises(TrainingError, match="p"):
            sgd_step(params, {"p": np.array([float("nan")])}, state, lr=0.1,
                     momentum=0.9, weight_decay=0.0)

    def test_shape_mismatch_rejected(self):
        p, params, state = self._setup(1.0)
        with pytest.raises(ShapeError):
            sgd_step(params, {"p": np.zeros(2)}, state, lr=0.1, momentum=0.9,
                     weight_decay=0.0)


class TestPrepareInput:
    def test_normalization_range(self):
        img = np.zeros((8, 8, 3), dtype=np.uint8)
        img[0, 0] = 255
        x = prepare_input(img, (3, 8, 8))
        assert x.shape == (3, 8, 8)
        assert x[0, 0, 0] == 0.5
        assert x[0, 1, 1] == -0.5

    def test_center_crop_for_oversized_images(self):
        img = np.zeros((12, 12, 3), dtype=np.uint8)
        img[4:12, 4:12] = 200
        x = prepare_input(img, (3, 8, 8))
        assert x.shape == (3, 8, 8)
        # the crop keeps rows/cols 2..9 of the original
        assert x[0, 2, 2] == 200 / 255.0 - 0.5

    def test_undersized_image_rejected(self):
        with pytest.raises(ShapeError):
            prepare_input(np.zeros((4, 4, 3), dtype=np.uint8), (3, 8, 8))


class TestRunStage:
    def _dataset(self, seed=0):
        return synth_dataset(2, 1, 4, image_size=16, seed=seed)  # 8 samples

    def test_overfits_a_tiny_set(self):
        data = self._dataset()
        model = build_network(NetworkSpec.stack((3, 16, 16), 2, 8, 2), seed=1)
        _, log = run_stage(model, data, None,
                           overfit_preset(epochs=200, lr0=0.01), seed=3)
        assert log.records[-1].train_loss < 0.01

    def test_same_seed_gives_identical_trajectories(self):
        data = self._dataset()
        runs = []
        for _ in range(2):
            model = build_network(SPEC16, seed=1)
            model, log = run_stage(model, data, data,
                                   overfit_preset(epochs=3), seed=7)
            runs.append((log.to_text(),
                         {n: p.data.tobytes() for n, p in model.parameters().items()}))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_lr_trace_follows_schedule(self):
        data = self._dataset()
        model = build_network(SPEC16, seed=1)
        preset = overfit_preset(epochs=5, step_epochs=2)
        _, log = run_stage(model, data, None, preset, seed=0)
        sched = preset.schedule()
        for r in log.records:
            assert r.lr == lr_at(sched, r.epoch)

    def test_val_accuracy_is_measured_entering_the_epoch(self):
        data = self._dataset()
        model = build_network(SPEC16, seed=1)
        before = evaluate_accuracy(model, data)
        _, log = run_stage(model, data, data, overfit_preset(epochs=2), seed=0)
        assert log.records[0].val_accuracy == before

    def test_empty_training_set_rejected(self):
        from merlib.data import Manifest
        model = build_network(SPEC16, seed=1)
        with pytest.raises(ConfigError):
            run_stage(model, Manifest([], ["a", "b"]), None,
                      overfit_preset(), seed=0)

    def test_oversized_batch_rejected(self):
        data = self._dataset()
        model = build_network(SPEC16, seed=1)
        with pytest.raises(ConfigError, match="batch"):
            run_stage(model, data, None, overfit_preset(batch_size=50), seed=0)

    def test_single_step_decreases_single_sample_loss(self):
        # property over several seeds at a conservative learning rate
        for seed in (0, 1, 2):
            data = synth_dataset(2, 1, 1, image_size=16, seed=seed).subset([0])
            model = build_network(SPEC16, seed=seed + 10)

            def loss_value():
                from merlib.train import _batch_array
                x = _batch_array(data, [0], model.spec.input_shape)
                return tc.softmax_cross_entropy(model.forward(tc.Tensor(x)),
                                                data.label_indices()).item()

            before = loss_value()
            preset = overfit_preset(batch_size=1, epochs=1, lr0=1e-4)
            run_stage(model, data, None, preset, seed=seed)
            assert loss_value() < before, f"seed {seed}"

    def test_augmented_training_stays_deterministic(self):
        data = self._dataset()
        preset = replace(PRESETS["loso"], epochs=2, batch_size=4)
        texts = []
        for _ in range(2):
            model = build_network(SPEC16, seed=4)
            _, log = run_stage(model, data, None, preset, seed=11)
            texts.append(log.to_text())
        assert texts[0] == texts[1]

    def test_sharded_gradient_equals_single_pass(self, monkeypatch):
        # An uneven batch of 45 is two shards, of 23 and 22 samples, weighted
        # 23/45 and 22/45: their sum is the gradient of one pass over all 45
        # up to rounding. Both passes augment with epoch 1's streams.
        data = synth_dataset(3, 3, 5, image_size=8, seed=2)  # 45 samples
        model = build_network(NetworkSpec.stack((3, 8, 8), 2, 4, 3), seed=3)
        shard = partial(_shard_pass, model, data, data.label_indices(),
                        PRESETS["pretrain"].augment, 0, None)
        params = model.parameters()
        arrays = [p.data for p in params.values()]
        idx = np.random.default_rng(0).permutation(len(data))
        loss, single = shard(arrays, 1, idx)
        sizes = []

        def recording_shard(arrays, epoch, shard_idx):
            sizes.append(len(shard_idx))
            return shard(arrays, epoch, shard_idx)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        with workers.Pool(recording_shard, 2) as pool:  # runs in-process
            loss_sum, sharded = _batch_grads(1, idx, params, pool)
        assert sizes == [23, 22]
        assert loss_sum == pytest.approx(45 * loss, rel=1e-12, abs=0)
        assert list(sharded) == list(single)
        for name, g in single.items():
            assert np.abs(sharded[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    def test_log_serialization_roundtrip_floats(self):
        log = TrainLog([EpochRecord(0, 0.01, 1.6094379124341003, float("nan"))])
        text = log.to_text()
        assert "epoch\tlr\ttrain_loss\tval_accuracy" in text
        row = text.splitlines()[1].split("\t")
        assert float(row[1]) == 0.01
        assert float(row[2]) == 1.6094379124341003
        assert row[3] == "nan"

    def test_interrupted_log_save_keeps_previous_file(self, tmp_path,
                                                      writes_fail_half_way):
        path = tmp_path / "stage0.log"
        before = TrainLog([EpochRecord(0, 0.01, 1.5, 0.25)]).to_text().encode()
        path.write_bytes(before)
        with pytest.raises(OSError):
            TrainLog([EpochRecord(0, 0.02, 0.5, 0.75)] * 50).save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stage0.log"]


class TestTransferPipeline:
    """The paper's transfer as train_and_save calls: a plain stage, then an
    attention upgrade from that stage's checkpoint."""

    def _macro(self):
        return synth_dataset(2, 2, 3, image_size=16, seed=100, database_id="macro")

    def _micro(self):
        return synth_dataset(2, 2, 2, image_size=16, seed=200, database_id="micro")

    def _two_stages(self, out, seed, s0_epochs=2, val=None):
        macro, micro = self._macro(), self._micro()
        train_and_save(SPEC16, overfit_preset(epochs=s0_epochs, batch_size=4),
                       macro, None, seed, out / "stage0")
        return train_and_save(
            SPEC16, overfit_preset(epochs=2, batch_size=4), micro, val,
            seed + 1, out / "stage1", init_checkpoint=out / "stage0.ckpt",
            init_mode="upgrade")

    def test_two_stage_upgrade_boundary_accuracy(self, tmp_path):
        macro = self._macro()
        model, log1 = self._two_stages(tmp_path, seed=5, s0_epochs=3, val=macro)
        assert model.attention is True
        stage0 = load_checkpoint(tmp_path / "stage0.ckpt", SPEC16)
        assert stage0.attention is False
        # zero-injected attention leaves stage-0 behavior untouched
        assert log1.records[0].val_accuracy == evaluate_accuracy(stage0, macro)
        for name in ("stage0.log", "stage1.ckpt", "stage1.log"):
            assert (tmp_path / name).exists(), name

    def test_single_stage_pipeline_equals_run_stage(self, tmp_path):
        micro = self._micro()
        preset = overfit_preset(epochs=2, batch_size=4)
        saved, _ = train_and_save(SPEC16, preset, micro, None, 9,
                                  tmp_path / "stage0", attention=True)
        direct = build_network(SPEC16, seed=9, attention=True)
        direct, _ = run_stage(direct, micro, None, preset, seed=9)
        for (name, a), b in zip(saved.parameters().items(),
                                direct.parameters().values()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_resume_from_saved_checkpoint_replays_exactly(self, tmp_path):
        full, _ = self._two_stages(tmp_path / "full", seed=20)
        # redo only the upgrade stage, seeded the way the two-stage run seeded it
        resumed, _ = train_and_save(
            SPEC16, overfit_preset(epochs=2, batch_size=4), self._micro(), None,
            21, tmp_path / "resume" / "stage1",
            init_checkpoint=tmp_path / "full" / "stage0.ckpt", init_mode="upgrade")
        for (name, a), b in zip(full.parameters().items(),
                                resumed.parameters().values()):
            assert a.data.tobytes() == b.data.tobytes(), name
        for ext in (".ckpt", ".log"):
            assert ((tmp_path / "full" / f"stage1{ext}").read_bytes()
                    == (tmp_path / "resume" / f"stage1{ext}").read_bytes())

    def test_stage_errors_name_the_stage(self, tmp_path):
        # a stage that cannot start names the checkpoint it tried to load
        other_spec = NetworkSpec.stack((3, 16, 16), 1, 6, 2)
        ckpt = tmp_path / "other.ckpt"
        save_checkpoint(build_network(other_spec, seed=0, attention=False), ckpt)
        with pytest.raises(CheckpointSpecMismatch, match=re.escape(str(ckpt))):
            train_and_save(SPEC16, overfit_preset(), self._micro(), None, 0,
                           tmp_path / "stage0", init_checkpoint=ckpt)
        assert not (tmp_path / "stage0.ckpt").exists()

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_reruns_are_byte_identical(self, data):
        """Two runs of one stage into separate directories write the same
        bytes, over random small networks (strides 1 and 2 where they
        tile), attention on or off, augmentation on or off, 1-2 epochs, and
        a fresh or an upgrade start."""
        strides = data.draw(st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2))
        size = data.draw(st.integers(2, 3))
        for s in reversed(strides):
            size = s * (size - 1) + 1
        classes = data.draw(st.integers(2, 3))
        spec = NetworkSpec.stack((3, size, size), len(strides),
                                 data.draw(st.integers(1, 3)), classes,
                                 strides=strides)
        # images at least 8px; larger ones are center-cropped to the input
        manifest = synth_dataset(classes, 1, 2, image_size=max(8, size),
                                 seed=data.draw(st.integers(0, 99)))
        preset = overfit_preset(
            epochs=data.draw(st.integers(1, 2)),
            batch_size=data.draw(st.integers(1, len(manifest))),
            augment=data.draw(st.sampled_from([None, PRESETS["pretrain"].augment])))
        attention = data.draw(st.booleans())
        upgrade = data.draw(st.booleans())
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            start = {}
            if upgrade:
                start = {"init_checkpoint": tmp / "plain.ckpt", "init_mode": "upgrade"}
                save_checkpoint(build_network(spec, seed, attention=False),
                                start["init_checkpoint"])
            for run in ("a", "b"):
                train_and_save(spec, preset, manifest, manifest, seed,
                               tmp / run / "stage0", attention=attention, **start)
            for ext in (".ckpt", ".log"):
                assert ((tmp / "a" / f"stage0{ext}").read_bytes()
                        == (tmp / "b" / f"stage0{ext}").read_bytes()), ext


class TestPredict:
    def test_prediction_matches_argmax(self):
        # 69 samples: a full batch of 64 and a partial one of 5
        data = synth_dataset(3, 1, 23, image_size=8, seed=1)
        model = build_network(NetworkSpec.stack((3, 8, 8), 1, 4, 3), seed=2)
        preds = predict_classes(model, data)
        assert preds.shape == (69,)
        assert preds.dtype == np.int64
        x = np.stack([prepare_input(s.image, (3, 8, 8)) for s in data.samples])
        assert np.array_equal(preds, np.argmax(model.forward(tc.Tensor(x)).data, axis=1))
        acc = evaluate_accuracy(model, data)
        assert acc == np.mean(preds == data.label_indices())
