"""Blocks, attention maps, parameter accounting, and checkpoints."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from merlib import tensor as tc
from merlib.errors import (CheckpointCorrupt, CheckpointSpecMismatch,
                           CheckpointVersionMismatch, ConfigError, ShapeError,
                           ValidationError)
from merlib.model import (BlockParams, BlockSpec, Network, NetworkSpec,
                          attention_map, attention_readout, block_forward,
                          build_network, count_params, decode_checkpoint,
                          encode_checkpoint, load_checkpoint,
                          parameter_grad_errors, save_checkpoint)


def random_block_params(rng, bs: BlockSpec, attention: bool, scale=0.5) -> BlockParams:
    def u(*shape):
        return tc.Tensor(rng.uniform(-scale, scale, shape), requires_grad=True)

    cc = bs.concat_channels
    return BlockParams(
        point_w=u(bs.point_channels, bs.in_channels, 1, 1),
        point_b=u(bs.point_channels),
        mid_w=u(bs.mid_channels, bs.in_channels, 3, 3),
        mid_b=u(bs.mid_channels),
        wide_w=u(bs.wide_channels, bs.mid_channels, 3, 3),
        wide_b=u(bs.wide_channels),
        attn_w=(u(cc, cc, 1, 1) if attention else None),
    )


@st.composite
def network_specs(draw, max_blocks=3, max_width=3):
    """Random NetworkSpec with strides in {1, 2}: the input size is grown
    back from the final feature size, so every strided conv tiles exactly."""
    strides = draw(st.lists(st.sampled_from([1, 2]), max_size=max_blocks))
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    for s in reversed(strides):
        h, w = s * (h - 1) + 1, s * (w - 1) + 1
    cin = c = draw(st.integers(1, max_width))
    blocks = []
    for s in strides:
        width = draw(st.integers(1, max_width))
        blocks.append(BlockSpec(c, width, draw(st.integers(1, max_width)), width, stride=s))
        c = width
    return NetworkSpec((cin, h, w), tuple(blocks), draw(st.integers(2, 4)))


def with_header(blob: bytes, header: bytes) -> bytes:
    """The checkpoint `blob` with its JSON architecture header replaced."""
    old_len = int.from_bytes(blob[12:16], "little")
    return blob[:12] + len(header).to_bytes(4, "little") + header + blob[16 + old_len:]


class TestSpecs:
    def test_block_spec_requires_matching_trunk_widths(self):
        with pytest.raises(ConfigError):
            BlockSpec(3, 4, 4, 5)

    def test_block_spec_rejects_non_positive(self):
        with pytest.raises(ConfigError):
            BlockSpec(3, 0, 4, 0)

    def test_network_spec_checks_chaining(self):
        b0 = BlockSpec(3, 8, 8, 8)
        b1 = BlockSpec(4, 8, 8, 8)  # expects 4 channels, gets 8
        with pytest.raises(ConfigError):
            NetworkSpec((3, 16, 16), (b0, b1), 5)

    def test_network_spec_checks_input_channels(self):
        with pytest.raises(ConfigError):
            NetworkSpec((1, 16, 16), (BlockSpec(3, 8, 8, 8),), 5)

    def test_stack_builder_chains_widths(self):
        spec = NetworkSpec.stack((3, 32, 32), num_blocks=4, width=8, num_classes=5)
        assert spec.blocks[0].in_channels == 3
        assert all(b.in_channels == 8 for b in spec.blocks[1:])
        assert spec.feature_channels == 8

    def test_empty_stack_is_allowed(self):
        spec = NetworkSpec((3, 8, 8), (), 4)
        assert spec.feature_channels == 3


class TestZeroAttentionIdentity:
    def test_block_with_zero_attention_matches_plain_bitwise(self):
        rng = np.random.default_rng(101)
        for trial in range(20):
            cin = int(rng.integers(1, 5))
            width = int(rng.integers(1, 6))
            mid = int(rng.integers(1, 6))
            stride = int(rng.choice([1, 2]))
            size = int(rng.integers(3, 8))
            if stride == 2 and (size - 1) % 2:
                size += 1  # keep the strided output size integral
            bs = BlockSpec(cin, width, mid, width, stride=stride)
            plain = random_block_params(rng, bs, attention=False)
            gated = BlockParams(plain.point_w, plain.point_b, plain.mid_w,
                                plain.mid_b, plain.wide_w, plain.wide_b,
                                attn_w=tc.Tensor(np.zeros((bs.concat_channels,
                                                           bs.concat_channels, 1, 1))))
            x = tc.Tensor(rng.uniform(-2, 2, (2, cin, size, size)))
            a = block_forward(x, plain, stride=stride)
            b = block_forward(x, gated, stride=stride)
            assert a.data.tobytes() == b.data.tobytes(), f"trial {trial}"

    def test_fresh_attention_and_plain_networks_agree_bitwise(self):
        spec = NetworkSpec.stack((3, 8, 8), 2, 4, 5)
        plain = build_network(spec, seed=9, attention=False)
        gated = build_network(spec, seed=9, attention=True)
        x = tc.Tensor(np.random.default_rng(2).uniform(-1, 1, (3, 3, 8, 8)))
        assert plain.forward(x).data.tobytes() == gated.forward(x).data.tobytes()


    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(spec=network_specs(), n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_zero_attention_and_upgrade_are_bit_exact(self, tmp_path_factory, spec, n, seed):
        rng = np.random.default_rng(seed)
        x = tc.Tensor(rng.uniform(-1, 1, (n, *spec.input_shape)))
        fresh_plain = build_network(spec, seed=seed, attention=False)
        fresh_gated = build_network(spec, seed=seed, attention=True)
        assert (fresh_plain.forward(x).data.tobytes()
                == fresh_gated.forward(x).data.tobytes())

        plain = fresh_plain
        for p in plain.parameters().values():
            p.data = rng.uniform(-1, 1, p.shape)  # non-zero biases too
        path = tmp_path_factory.getbasetemp() / "property_plain.ckpt"
        save_checkpoint(plain, path)
        upgraded = load_checkpoint(path, spec, mode="upgrade")
        want = plain.forward(x).data.tobytes()
        assert upgraded.forward(x).data.tobytes() == want
        readout = attention_readout(upgraded, x)
        assert readout.logits.data.tobytes() == want
        assert not any(m.data.any() for m in readout.maps)
        assert count_params(upgraded) == count_params(fresh_gated)


class TestAttentionArithmetic:
    def test_unit_map_doubles_the_trunk_exactly(self):
        # Dyadic construction on a 1x1 image: branches (2, 2, 4), embedding
        # weights all 1/8, so the map is exactly 1.0, the gate exactly 2.0,
        # and the block output exactly 12.0.
        bs = BlockSpec(1, 1, 1, 1)
        mid_w = np.zeros((1, 1, 3, 3))
        mid_w[0, 0, 1, 1] = 1.0
        wide_w = np.zeros((1, 1, 3, 3))
        wide_w[0, 0, 1, 1] = 2.0
        p = BlockParams(
            point_w=tc.Tensor(np.ones((1, 1, 1, 1))),
            point_b=tc.Tensor(np.zeros(1)),
            mid_w=tc.Tensor(mid_w),
            mid_b=tc.Tensor(np.zeros(1)),
            wide_w=tc.Tensor(wide_w),
            wide_b=tc.Tensor(np.zeros(1)),
            attn_w=tc.Tensor(np.full((3, 3, 1, 1), 0.125)),
        )
        x = tc.Tensor(np.full((1, 1, 1, 1), 2.0))
        out = block_forward(x, p)
        assert out.data.reshape(-1)[0] == 12.0

        m = attention_map(tc.Tensor(np.full((1, 1, 1, 1), 2.0)),
                          tc.Tensor(np.full((1, 1, 1, 1), 2.0)),
                          tc.Tensor(np.full((1, 1, 1, 1), 4.0)),
                          tc.Tensor(np.full((3, 3, 1, 1), 0.125)))
        assert m.data.reshape(-1)[0] == 1.0

    def test_map_scales_linearly_with_embedding_weights(self):
        # Doubling is a pure exponent shift, so it commutes with rounding.
        rng = np.random.default_rng(7)
        point = tc.Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)))
        mid = tc.Tensor(rng.uniform(-1, 1, (2, 2, 4, 4)))
        wide = tc.Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)))
        w = rng.uniform(-1, 1, (8, 8, 1, 1))
        m1 = attention_map(point, mid, wide, tc.Tensor(w))
        m2 = attention_map(point, mid, wide, tc.Tensor(2.0 * w))
        assert (2.0 * m1.data).tobytes() == m2.data.tobytes()

    def test_map_is_channel_mean_of_full_embedding(self):
        # Linearity: the row-mean kernel gives the channel mean of the full
        # C x C embedding for any weight, including rows that differ.
        rng = np.random.default_rng(9)
        point = tc.Tensor(rng.uniform(-1, 1, (2, 3, 5, 5)))
        mid = tc.Tensor(rng.uniform(-1, 1, (2, 2, 5, 5)))
        wide = tc.Tensor(rng.uniform(-1, 1, (2, 3, 5, 5)))
        w_fast = tc.Tensor(rng.uniform(-1, 1, (8, 8, 1, 1)), requires_grad=True)
        w_full = tc.Tensor(w_fast.data.copy(), requires_grad=True)
        g = tc.Tensor(rng.uniform(-1, 1, (2, 1, 5, 5)))
        with tc.Tape() as tape:
            fast = attention_map(point, mid, wide, w_fast)
            loss = tc.tsum(tc.mul(fast, g))
        tape.backward(loss)
        with tc.Tape() as tape:
            cat = tc.channel_concat([point, mid, wide])
            full = tc.channel_mean(tc.conv2d(cat, w_full))
            loss = tc.tsum(tc.mul(full, g))
        tape.backward(loss)
        np.testing.assert_allclose(fast.data, full.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_fast.grad, w_full.grad, rtol=0, atol=1e-12)

    def test_map_shape_is_single_channel(self):
        rng = np.random.default_rng(8)
        point = tc.Tensor(rng.uniform(-1, 1, (2, 2, 5, 5)))
        mid = tc.Tensor(rng.uniform(-1, 1, (2, 1, 5, 5)))
        wide = tc.Tensor(rng.uniform(-1, 1, (2, 2, 5, 5)))
        m = attention_map(point, mid, wide, tc.Tensor(np.zeros((5, 5, 1, 1))))
        assert m.shape == (2, 1, 5, 5)

    def test_map_rejects_wrong_embedding_width(self):
        point = tc.Tensor(np.zeros((1, 2, 3, 3)))
        mid = tc.Tensor(np.zeros((1, 2, 3, 3)))
        wide = tc.Tensor(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ShapeError):
            attention_map(point, mid, wide, tc.Tensor(np.zeros((4, 4, 1, 1))))


class TestNetwork:
    def test_forward_shape_and_batch_consistency(self):
        spec = NetworkSpec.stack((3, 8, 8), 2, 4, 5)
        model = build_network(spec, seed=3)
        rng = np.random.default_rng(4)
        batch = rng.uniform(-1, 1, (4, 3, 8, 8))
        logits = model.forward(tc.Tensor(batch))
        assert logits.shape == (4, 5)
        single = model.forward(tc.Tensor(batch[2:3]))
        np.testing.assert_allclose(logits.data[2:3], single.data, rtol=0, atol=1e-12)

    def test_forward_rejects_wrong_input_shape(self):
        model = build_network(NetworkSpec.stack((3, 8, 8), 1, 4, 5), seed=0)
        with pytest.raises(ShapeError):
            model.forward(tc.Tensor(np.zeros((1, 3, 9, 9))))

    def test_same_seed_builds_identical_networks(self):
        spec = NetworkSpec.stack((3, 8, 8), 2, 4, 5)
        a = build_network(spec, seed=42)
        b = build_network(spec, seed=42)
        for (name, pa), pb in zip(a.parameters().items(), b.parameters().values()):
            assert pa.data.tobytes() == pb.data.tobytes(), name
        c = build_network(spec, seed=43)
        assert c.head_w.data.tobytes() != a.head_w.data.tobytes()

    def test_attention_flag_must_match_block_params(self):
        spec = NetworkSpec.stack((3, 8, 8), 1, 4, 5)
        model = build_network(spec, seed=0, attention=False)
        with pytest.raises(ConfigError):
            Network(spec, model.blocks, model.head_w, model.head_b, attention=True)

    def test_readout_logits_match_forward(self):
        spec = NetworkSpec.stack((3, 8, 8), 3, 4, 5)
        model = build_network(spec, seed=5)
        # give the maps something to say
        for bp in model.blocks:
            bp.attn_w.data[:] = np.random.default_rng(6).uniform(-0.2, 0.2,
                                                                 bp.attn_w.shape)
        x = tc.Tensor(np.random.default_rng(7).uniform(-1, 1, (2, 3, 8, 8)))
        ro = attention_readout(model, x)
        assert ro.logits.data.tobytes() == model.forward(x).data.tobytes()
        assert len(ro.maps) == 3
        assert all(m.shape == (2, 1, 8, 8) for m in ro.maps)

    def test_readout_on_plain_network_gives_zero_maps(self):
        spec = NetworkSpec.stack((3, 8, 8), 2, 4, 5)
        model = build_network(spec, seed=5, attention=False)
        x = tc.Tensor(np.random.default_rng(7).uniform(-1, 1, (1, 3, 8, 8)))
        ro = attention_readout(model, x)
        assert all(np.all(m.data == 0.0) for m in ro.maps)

    def test_strided_block_halves_spatial_dims(self):
        spec = NetworkSpec((3, 9, 9), (BlockSpec(3, 4, 4, 4, stride=2),), 5)
        model = build_network(spec, seed=1)
        x = tc.Tensor(np.zeros((1, 3, 9, 9)))
        ro = attention_readout(model, x)
        assert ro.maps[0].shape == (1, 1, 5, 5)


class TestParamCount:
    def test_breakdown_matches_parameter_sizes(self):
        spec = NetworkSpec.stack((3, 8, 8), 3, 6, 5)
        model = build_network(spec, seed=0)
        pc = count_params(model)
        direct = sum(p.size for p in model.parameters().values())
        assert pc.total == direct
        assert pc.total == pc.backbone + pc.attention + pc.head

    def test_attention_overhead_is_sum_of_squared_concat_widths(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            n_blocks = int(rng.integers(1, 5))
            widths = [int(rng.integers(1, 7)) for _ in range(n_blocks)]
            mids = [int(rng.integers(1, 7)) for _ in range(n_blocks)]
            cin = int(rng.integers(1, 4))
            blocks = []
            for w, m in zip(widths, mids):
                blocks.append(BlockSpec(cin, w, m, w))
                cin = w
            spec = NetworkSpec((blocks[0].in_channels, 8, 8), tuple(blocks), 3)
            gated = count_params(build_network(spec, seed=0, attention=True))
            plain = count_params(build_network(spec, seed=0, attention=False))
            expected = sum(b.concat_channels ** 2 for b in blocks)
            assert gated.total - plain.total == expected
            assert gated.attention == expected

    def test_single_block_formula(self):
        spec = NetworkSpec((3, 8, 8), (BlockSpec(3, 4, 5, 4),), 2)
        pc = count_params(build_network(spec, seed=0))
        backbone = (4 * 3 * 1 * 1 + 4) + (5 * 3 * 3 * 3 + 5) + (4 * 5 * 3 * 3 + 4)
        assert pc.backbone == backbone
        assert pc.attention == 13 * 13
        assert pc.head == 2 * 4 + 2


class TestCheckpoints:
    def _model(self, attention=True, seed=11):
        spec = NetworkSpec.stack((3, 8, 8), 2, 4, 5)
        model = build_network(spec, seed=seed, attention=attention)
        if attention:
            rng = np.random.default_rng(seed + 1)
            for bp in model.blocks:
                bp.attn_w.data[:] = rng.uniform(-0.1, 0.1, bp.attn_w.shape)
        return model

    def test_roundtrip_is_bit_exact(self, tmp_path):
        model = self._model()
        path = tmp_path / "net.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, model.spec, mode="exact")
        assert loaded.attention is True
        for (name, a), b in zip(model.parameters().items(),
                                loaded.parameters().values()):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_save_load_save_is_byte_identical(self, tmp_path):
        model = self._model()
        blob = encode_checkpoint(model)
        (tmp_path / "a.ckpt").write_bytes(blob)
        again = encode_checkpoint(load_checkpoint(tmp_path / "a.ckpt", model.spec))
        assert blob == again

    def test_upgrade_load_preserves_logits_bitwise(self, tmp_path):
        model = self._model(attention=False)
        path = tmp_path / "plain.ckpt"
        save_checkpoint(model, path)
        upgraded = load_checkpoint(path, model.spec, mode="upgrade")
        assert upgraded.attention is True
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = tc.Tensor(rng.uniform(-1, 1, (2, 3, 8, 8)))
            assert (model.forward(x).data.tobytes()
                    == upgraded.forward(x).data.tobytes())

    def test_upgrade_rejects_attention_checkpoint(self, tmp_path):
        model = self._model(attention=True)
        path = tmp_path / "gated.ckpt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointSpecMismatch):
            load_checkpoint(path, model.spec, mode="upgrade")

    def test_exact_rejects_different_architecture(self, tmp_path):
        model = self._model()
        path = tmp_path / "net.ckpt"
        save_checkpoint(model, path)
        other = NetworkSpec.stack((3, 8, 8), 2, 6, 5)
        with pytest.raises(CheckpointSpecMismatch):
            load_checkpoint(path, other)

    def test_truncated_file_is_corrupt(self, tmp_path):
        blob = encode_checkpoint(self._model())
        path = tmp_path / "cut.ckpt"
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointCorrupt, match=f"^{re.escape(str(path))}: "):
            load_checkpoint(path, mode="exact")

    def test_bad_magic_is_corrupt(self, tmp_path):
        blob = encode_checkpoint(self._model())
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_trailing_bytes_are_corrupt(self, tmp_path):
        blob = encode_checkpoint(self._model())
        path = tmp_path / "long.ckpt"
        path.write_bytes(blob + b"\x00")
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [b"[1]", b"null", b"7", b'"attention"'])
    def test_non_object_header_is_corrupt(self, header):
        blob = with_header(encode_checkpoint(self._model()), header)
        with pytest.raises(CheckpointCorrupt, match="not a JSON object"):
            decode_checkpoint(blob)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_corrupt(self, value):
        model = self._model()
        model.head_b.data[1] = value
        with pytest.raises(CheckpointCorrupt, match="head.bias"):
            decode_checkpoint(encode_checkpoint(model))

    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(spec=network_specs(max_blocks=1, max_width=2), attention=st.booleans())
    def test_every_truncation_and_flipped_header_byte_is_rejected(self, spec, attention):
        blob = encode_checkpoint(build_network(spec, seed=0, attention=attention))
        # Magic, version, header length, JSON header and tensor count.
        header_end = 16 + int.from_bytes(blob[12:16], "little") + 4
        for cut in range(len(blob)):
            with pytest.raises(ValidationError):
                decode_checkpoint(blob[:cut])
        for i in range(header_end):
            flipped = bytearray(blob)
            flipped[i] ^= 0xFF
            with pytest.raises(ValidationError):
                decode_checkpoint(bytes(flipped))

    def test_version_bump_is_detected(self, tmp_path):
        blob = bytearray(encode_checkpoint(self._model()))
        blob[8:12] = (99).to_bytes(4, "little")
        path = tmp_path / "v99.ckpt"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionMismatch):
            load_checkpoint(path)

    def test_missing_file_is_reported(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_interrupted_save_keeps_previous_file(self, tmp_path, writes_fail_half_way):
        path = tmp_path / "net.ckpt"
        before = encode_checkpoint(self._model(seed=11))
        path.write_bytes(before)
        with pytest.raises(OSError):
            save_checkpoint(self._model(seed=12), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.ckpt"]

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_checkpoint(tmp_path / "x.ckpt", mode="merge")


class TestWholeModelGradients:
    def test_all_parameter_gradients_match_finite_differences(self):
        spec = NetworkSpec.stack((2, 6, 6), 1, 3, 4)
        model = build_network(spec, seed=21)
        rng = np.random.default_rng(22)
        for bp in model.blocks:
            bp.attn_w.data[:] = rng.uniform(-0.3, 0.3, bp.attn_w.shape)
        x = tc.Tensor(rng.uniform(-1, 1, (2, 2, 6, 6)))
        labels = np.array([1, 3])
        errors = parameter_grad_errors(model, x, labels)
        for name, err in errors.items():
            assert err < 1e-4, f"{name}: {err:.3e}"

    def test_parameters_are_restored_after_checking(self):
        spec = NetworkSpec.stack((2, 4, 4), 1, 2, 3)
        model = build_network(spec, seed=2)
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        errors = parameter_grad_errors(model, tc.Tensor(np.ones((1, 2, 4, 4))),
                                       np.array([0]))
        assert list(errors) == list(model.parameters())
        for n, p in model.parameters().items():
            assert np.array_equal(p.data, before[n]), n
            assert p.grad is None, n
