"""Autodiff core: forward oracles and finite-difference gradient checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from merlib import tensor as tc
from merlib.errors import (ConfigError, NumericalError, ShapeError,
                           ValidationError)


def conv2d_reference(x, w, b=None, stride=1, pad=0):
    """Naive nested-loop convolution, the oracle for the unrolled path."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (wd + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, cout, out_h, out_w))
    for ni in range(n):
        for co in range(cout):
            for i in range(out_h):
                for j in range(out_w):
                    patch = xp[ni, :, i * stride:i * stride + kh,
                               j * stride:j * stride + kw]
                    out[ni, co, i, j] = np.sum(patch * w[co])
                    if b is not None:
                        out[ni, co, i, j] += b[co]
    return out


def conv2d_grads_reference(x, w, g, stride=1, pad=0):
    """Naive nested-loop (dx, dw, db) of conv2d for output gradient g."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for ni in range(n):
        for co in range(cout):
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    rows = slice(i * stride, i * stride + kh)
                    cols = slice(j * stride, j * stride + kw)
                    dxp[ni, :, rows, cols] += g[ni, co, i, j] * w[co]
                    dw[co] += g[ni, co, i, j] * xp[ni, :, rows, cols]
    dx = dxp[:, :, pad:pad + h, pad:pad + wd]
    return dx, dw, g.sum(axis=(0, 2, 3))


def rand_tensor(rng, shape, requires_grad=False, lo=-1.0, hi=1.0):
    return tc.Tensor(rng.uniform(lo, hi, shape), requires_grad=requires_grad)


class TestTensorBasics:
    def test_scalar_promoted_to_rank1(self):
        t = tc.Tensor(3.5)
        assert t.shape == (1,)
        assert t.item() == 3.5

    def test_rank_bounds(self):
        tc.Tensor(np.zeros((2, 3, 4, 5)))
        with pytest.raises(ShapeError):
            tc.Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_data_is_float64_contiguous(self):
        t = tc.Tensor(np.arange(6, dtype=np.int32).reshape(2, 3))
        assert t.data.dtype == np.float64
        assert t.data.flags["C_CONTIGUOUS"]

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ShapeError):
            tc.Tensor(np.zeros(3)).item()


class TestConv2d:
    @pytest.mark.parametrize("case", [
        # (n, cin, h, w, cout, k, stride, pad)
        (2, 3, 8, 8, 4, 3, 1, 1),
        (1, 1, 5, 5, 2, 1, 1, 0),
        (2, 4, 9, 9, 3, 3, 2, 1),
        (1, 2, 7, 6, 2, 5, 1, 2),
        (3, 2, 6, 6, 5, 3, 1, 0),
    ])
    def test_matches_reference(self, case):
        n, cin, h, w, cout, k, stride, pad = case
        rng = np.random.default_rng(hash(case) % (2 ** 32))
        x = rand_tensor(rng, (n, cin, h, w))
        wt = rand_tensor(rng, (cout, cin, k, k))
        b = rand_tensor(rng, (cout,))
        got = tc.conv2d(x, wt, b, stride=stride, pad=pad)
        want = conv2d_reference(x.data, wt.data, b.data, stride, pad)
        assert got.shape == want.shape
        np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-12)

    def test_identity_kernel_is_exact(self):
        # A single one in the kernel just relabels pixels: bitwise equality.
        rng = np.random.default_rng(7)
        x = rand_tensor(rng, (2, 1, 6, 6))
        w = tc.Tensor(np.array([[[[1.0]]]]))
        out = tc.conv2d(x, w)
        assert np.array_equal(out.data, x.data)

    def test_rejects_fractional_output_size(self):
        x = tc.Tensor(np.zeros((1, 1, 8, 8)))
        w = tc.Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ConfigError):
            tc.conv2d(x, w, stride=2, pad=1)  # (8+2-3)/2 is not an integer

    def test_rejects_channel_mismatch(self):
        x = tc.Tensor(np.zeros((1, 3, 4, 4)))
        w = tc.Tensor(np.zeros((2, 4, 1, 1)))
        with pytest.raises(ShapeError):
            tc.conv2d(x, w)

    def test_rejects_oversized_kernel(self):
        x = tc.Tensor(np.zeros((1, 1, 4, 4)))
        w = tc.Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ShapeError):
            tc.conv2d(x, w)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, (2, 3, 8, 8))
        w = rand_tensor(rng, (4, 3, 3, 3))
        a = tc.conv2d(x, w, stride=1, pad=1).data.tobytes()
        b = tc.conv2d(x, w, stride=1, pad=1).data.tobytes()
        assert a == b


class TestConv2dProperties:
    """conv2d forward and all three gradients against the loop oracles, over
    random shapes: every kernel, stride and pad runs through the one
    lowering, kh GEMMs per image over row windows of MEC's column-shifted
    matrices. Kernels up to 5 rows take stride-2 and stride-3 row phases
    past their first tap (q >= 1). Batches of up to four images exercise
    the loop over images and the dw sum across them; dx uses per-axis pads
    on non-square kernels, and a stride-1 scatter of the gradient when
    strided."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 4), cin=st.integers(1, 3), cout=st.integers(1, 3),
           h=st.integers(1, 8), w=st.integers(1, 8), kh=st.integers(1, 5),
           kw=st.integers(1, 5), stride=st.integers(1, 3), pad=st.integers(0, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_loop_oracle(self, n, cin, cout, h, w, kh, kw, stride, pad, seed):
        rng = np.random.default_rng(seed)
        x = rand_tensor(rng, (n, cin, h, w), requires_grad=True)
        wt = rand_tensor(rng, (cout, cin, kh, kw), requires_grad=True)
        b = rand_tensor(rng, (cout,), requires_grad=True)
        valid = (kh <= h + 2 * pad and kw <= w + 2 * pad
                 and (h + 2 * pad - kh) % stride == 0
                 and (w + 2 * pad - kw) % stride == 0)
        if not valid:
            with pytest.raises(ValidationError):
                tc.conv2d(x, wt, b, stride=stride, pad=pad)
        assume(valid)
        with tc.Tape() as tape:
            out = tc.conv2d(x, wt, b, stride=stride, pad=pad)
            g = rng.uniform(-1, 1, out.shape)
            loss = tc.tsum(tc.mul(out, tc.Tensor(g)))
        tape.backward(loss)
        want_dx, want_dw, want_db = conv2d_grads_reference(x.data, wt.data, g,
                                                           stride, pad)
        np.testing.assert_allclose(out.data, conv2d_reference(
            x.data, wt.data, b.data, stride, pad), rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, want_dx, rtol=0, atol=1e-12)
        np.testing.assert_allclose(wt.grad, want_dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad, want_db, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 4), cin=st.sampled_from([1, 3, 8]),
           cout=st.integers(1, 3), k=st.sampled_from([1, 3]),
           stride=st.sampled_from([1, 2]), pad=st.integers(0, 2),
           oh=st.integers(1, 5), ow=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_batch_equals_stacked_samples_bit_for_bit(self, n, cin, cout, k, stride,
                                                      pad, oh, ow, seed):
        # The score workload checks batch predictions against batch-1
        # readouts, so a sample's output and input gradient must not depend
        # on the rest of its batch, not even in rounding.
        h, wd = (oh - 1) * stride + k - 2 * pad, (ow - 1) * stride + k - 2 * pad
        assume(h >= 1 and wd >= 1)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, cin, h, wd))
        wt = tc.Tensor(rng.standard_normal((cout, cin, k, k)))
        b = tc.Tensor(rng.standard_normal(cout))
        g = rng.standard_normal((n, cout, oh, ow))

        def run(xs, gs):
            xt = tc.Tensor(xs, requires_grad=True)
            with tc.Tape() as tape:
                out = tc.conv2d(xt, wt, b, stride=stride, pad=pad)
                loss = tc.tsum(tc.mul(out, tc.Tensor(gs)))
            tape.backward(loss)
            return out.data, xt.grad

        out, dx = run(x, g)
        singles = [run(x[i:i + 1], g[i:i + 1]) for i in range(n)]
        assert out.tobytes() == np.concatenate([o for o, _ in singles]).tobytes()
        assert dx.tobytes() == np.concatenate([d for _, d in singles]).tobytes()

    def test_taped_padded_conv_keeps_only_its_output(self):
        # The tape holds x itself and the output, no zero-padded copy of x:
        # recording a pad-1 conv grows the traced bytes by about out.nbytes.
        rng = np.random.default_rng(5)
        x = tc.Tensor(rng.standard_normal((8, 8, 16, 16)), requires_grad=True)
        w = tc.Tensor(rng.standard_normal((8, 8, 3, 3)), requires_grad=True)
        padded_nbytes = 8 * 8 * 18 * 18 * 8
        tracemalloc.start()
        try:
            with tc.Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = tc.conv2d(x, w, pad=1)
                kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1
        assert out.data.nbytes <= kept < out.data.nbytes + padded_nbytes // 4


class TestChannelOps:
    def test_concat_then_slice_roundtrip(self):
        rng = np.random.default_rng(11)
        xs = [rand_tensor(rng, (2, c, 3, 3)) for c in (1, 2, 3)]
        out = tc.channel_concat(xs)
        assert out.shape == (2, 6, 3, 3)
        assert np.array_equal(out.data[:, 0:1], xs[0].data)
        assert np.array_equal(out.data[:, 1:3], xs[1].data)
        assert np.array_equal(out.data[:, 3:6], xs[2].data)

    def test_concat_rejects_mismatched_spatial(self):
        a = tc.Tensor(np.zeros((1, 1, 3, 3)))
        b = tc.Tensor(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ShapeError):
            tc.channel_concat([a, b])

    def test_concat_of_single_tensor_preserves_mean(self):
        rng = np.random.default_rng(13)
        x = rand_tensor(rng, (2, 5, 4, 4))
        direct = tc.channel_mean(x)
        via_concat = tc.channel_mean(tc.channel_concat([x]))
        assert np.array_equal(direct.data, via_concat.data)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(1, 3), widths=st.lists(st.integers(1, 4), min_size=3,
                                                max_size=3),
           h=st.integers(1, 5), w=st.integers(1, 5),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_weighted_sum_is_conv_of_concat_by_row_mean(self, n, widths, h, w,
                                                        seed):
        # The attention map's op against its definition: the 1x1 conv of
        # the concatenated branches by the row mean of a [C,C,1,1] weight,
        # forward and every gradient.
        rng = np.random.default_rng(seed)
        c = sum(widths)
        branches = [rng.uniform(-1, 1, (n, wi, h, w)) for wi in widths]
        weight = rng.uniform(-1, 1, (c, c, 1, 1))
        g = tc.Tensor(rng.uniform(-1, 1, (n, 1, h, w)))

        def run(fn):
            xs = [tc.Tensor(b, requires_grad=True) for b in branches]
            wt = tc.Tensor(weight, requires_grad=True)
            with tc.Tape() as tape:
                out = fn(xs, tc.row_mean(wt))
                loss = tc.tsum(tc.mul(out, g))
            tape.backward(loss)
            return [out.data, wt.grad, *(x.grad for x in xs)]

        got = run(tc.weighted_channel_sum)
        want = run(lambda xs, v: tc.conv2d(tc.channel_concat(xs), v))
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_weighted_sum_rejects_wrong_weight_width(self):
        xs = [tc.Tensor(np.zeros((1, 2, 3, 3))) for _ in range(3)]
        with pytest.raises(ShapeError):
            tc.weighted_channel_sum(xs, tc.Tensor(np.zeros((1, 5, 1, 1))))

    def test_channel_mean_shape_and_value(self):
        x = tc.Tensor(np.stack([np.full((1, 2, 2), 1.0),
                                np.full((1, 2, 2), 3.0)], axis=1).reshape(1, 2, 2, 2))
        m = tc.channel_mean(x)
        assert m.shape == (1, 1, 2, 2)
        assert np.array_equal(m.data, np.full((1, 1, 2, 2), 2.0))


class TestElementwise:
    def test_add_and_mul_same_shape(self):
        rng = np.random.default_rng(5)
        x = rand_tensor(rng, (2, 3, 2, 2))
        y = rand_tensor(rng, (2, 3, 2, 2))
        assert np.array_equal(tc.add(x, y).data, x.data + y.data)
        assert np.array_equal(tc.mul(x, y).data, x.data * y.data)

    def test_map_broadcast_across_channels(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, (2, 4, 3, 3))
        m = rand_tensor(rng, (2, 1, 3, 3))
        out = tc.mul(x, m)
        assert np.array_equal(out.data, x.data * m.data)

    def test_rejects_other_broadcasts(self):
        x = tc.Tensor(np.zeros((2, 4, 3, 3)))
        y = tc.Tensor(np.zeros((1, 4, 3, 3)))
        with pytest.raises(ShapeError):
            tc.add(x, y)

    def test_mul_by_one_is_bitwise_identity(self):
        # IEEE-754: x * 1.0 == x for every finite x, including signed zeros.
        rng = np.random.default_rng(8)
        x = rand_tensor(rng, (2, 3, 4, 4), lo=-100, hi=100)
        ones = tc.Tensor(np.ones((2, 1, 4, 4)))
        assert tc.mul(x, ones).data.tobytes() == x.data.tobytes()

    def test_add_scalar(self):
        x = tc.Tensor(np.zeros((2, 2)))
        assert np.array_equal(tc.add_scalar(x, 1.0).data, np.ones((2, 2)))
        with pytest.raises(NumericalError):
            tc.add_scalar(x, float("nan"))


class TestHeadOps:
    def test_relu_values_and_kink(self):
        x = tc.Tensor(np.array([-2.0, -0.0, 0.0, 3.0]))
        assert np.array_equal(tc.relu(x).data, np.array([0.0, 0.0, 0.0, 3.0]))

    def test_global_avg_pool(self):
        x = tc.Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        out = tc.global_avg_pool(x)
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out.data, [[1.5, 5.5]])

    def test_linear(self):
        x = tc.Tensor(np.array([[1.0, 2.0]]))
        w = tc.Tensor(np.array([[3.0, 4.0], [5.0, 6.0], [0.0, 1.0]]))
        b = tc.Tensor(np.array([1.0, -1.0, 0.5]))
        np.testing.assert_allclose(tc.linear(x, w, b).data, [[12.0, 16.0, 2.5]])

    def test_uniform_logits_loss_is_log_k(self):
        logits = tc.Tensor(np.zeros((4, 5)))
        loss = tc.softmax_cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert loss.item() == pytest.approx(np.log(5.0), abs=1e-12)

    def test_cross_entropy_shift_invariance(self):
        rng = np.random.default_rng(17)
        raw = rng.uniform(-2, 2, (3, 4))
        labels = np.array([0, 3, 2])
        a = tc.softmax_cross_entropy(tc.Tensor(raw), labels).item()
        b = tc.softmax_cross_entropy(tc.Tensor(raw + 1000.0), labels).item()
        assert a == pytest.approx(b, abs=1e-9)

    def test_cross_entropy_huge_logits_stay_finite(self):
        logits = tc.Tensor(np.array([[1e300, -1e300, 0.0]]))
        loss = tc.softmax_cross_entropy(logits, np.array([2]))
        assert np.isfinite(loss.item())

    def test_cross_entropy_rejects_bad_labels(self):
        logits = tc.Tensor(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            tc.softmax_cross_entropy(logits, np.array([0, 3]))
        with pytest.raises(ValidationError):
            tc.softmax_cross_entropy(logits, np.array([0.0, 1.0]))


class TestTape:
    def test_backward_accumulates_through_reuse(self):
        # d/dx sum(x + x) = 2 everywhere.
        x = tc.Tensor(np.ones((2, 2)), requires_grad=True)
        with tc.Tape() as tape:
            y = tc.add(x, x)
            loss = tc.tsum(y)
        tape.backward(loss)
        assert np.array_equal(x.grad, np.full((2, 2), 2.0))
        # Each op's output gradient is released once consumed; leaves keep
        # theirs.
        assert y.grad is None and loss.grad is None

    def test_unreached_params_get_zero_grads(self):
        x = tc.Tensor(np.ones(3), requires_grad=True)
        other = tc.Tensor(np.ones(4), requires_grad=True)
        with tc.Tape() as tape:
            loss = tc.tsum(x)
        tape.backward(loss, params=[x, other])
        assert np.array_equal(other.grad, np.zeros(4))
        assert np.array_equal(x.grad, np.ones(3))

    def test_backward_rejects_foreign_loss(self):
        x = tc.Tensor(np.ones(2), requires_grad=True)
        with tc.Tape() as tape:
            tc.tsum(x)
        stray = tc.Tensor(np.array([1.0]))
        with pytest.raises(ValidationError):
            tape.backward(stray)

    def test_backward_rejects_non_scalar(self):
        x = tc.Tensor(np.ones(2), requires_grad=True)
        with tc.Tape() as tape:
            y = tc.add(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_nested_tapes_rejected(self):
        with tc.Tape():
            with pytest.raises(ValidationError):
                with tc.Tape():
                    pass

    def test_no_tape_records_nothing(self):
        x = tc.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        out = tc.relu(x)
        assert out.tape_id is None


class TestGradCheck:
    def test_sum_gradient_is_exact(self):
        rng = np.random.default_rng(23)
        x = tc.Tensor(rng.uniform(-1, 1, (2, 3, 2, 2)))
        assert tc.grad_check(tc.tsum, x) <= 1e-10

    def test_primitives_under_1e6(self):
        rng = np.random.default_rng(31)
        cases = []

        x = tc.Tensor(rng.uniform(-1, 1, (2, 3, 6, 6)))
        w = tc.Tensor(rng.uniform(-1, 1, (4, 3, 3, 3)))
        b = tc.Tensor(rng.uniform(-1, 1, 4))
        cases.append(("conv2d/x", lambda t: tc.tsum(tc.conv2d(t, w, b, stride=1, pad=1)), x))
        cases.append(("conv2d/w", lambda t: tc.tsum(tc.conv2d(x, t, b, stride=1, pad=1)), w))
        cases.append(("conv2d/b", lambda t: tc.tsum(tc.conv2d(x, w, t, stride=1, pad=1)), b))

        xs = tc.Tensor(rng.uniform(-1, 1, (2, 3, 9, 9)))
        ws = tc.Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)))
        cases.append(("conv2d/stride2", lambda t: tc.tsum(tc.conv2d(t, ws, stride=2, pad=1)), xs))

        a = tc.Tensor(rng.uniform(-1, 1, (2, 2, 3, 3)))
        c = tc.Tensor(rng.uniform(-1, 1, (2, 3, 3, 3)))
        cases.append(("concat", lambda t: tc.tsum(tc.mul(tc.channel_concat([t, c]),
                                                         tc.channel_concat([t, c]))), a))
        cases.append(("channel_mean", lambda t: tc.tsum(tc.mul(tc.channel_mean(t),
                                                               tc.channel_mean(t))), c))
        cases.append(("row_mean", lambda t: tc.tsum(tc.mul(tc.row_mean(t),
                                                           tc.row_mean(t))), c))
        v = tc.Tensor(rng.uniform(-1, 1, (1, 5, 1, 1)))

        def squared_weighted_sum(xs, wv):
            out = tc.weighted_channel_sum(xs, wv)
            return tc.tsum(tc.mul(out, out))

        cases.append(("weighted_channel_sum/x",
                      lambda t: squared_weighted_sum([a, t], v), c))
        cases.append(("weighted_channel_sum/w",
                      lambda t: squared_weighted_sum([a, c], t), v))

        m = tc.Tensor(rng.uniform(0.5, 1.5, (2, 1, 3, 3)))
        cases.append(("mul/broadcast_map", lambda t: tc.tsum(tc.mul(c, t)), m))
        cases.append(("add/broadcast_map", lambda t: tc.tsum(tc.mul(tc.add(c, t),
                                                                    tc.add(c, t))), m))

        # keep relu inputs away from the kink
        r = tc.Tensor(rng.uniform(0.2, 1.0, (2, 2, 3, 3)) * rng.choice([-1.0, 1.0], (2, 2, 3, 3)))
        cases.append(("relu", lambda t: tc.tsum(tc.relu(t)), r))

        g = tc.Tensor(rng.uniform(-1, 1, (2, 3, 4, 4)))
        cases.append(("gap", lambda t: tc.tsum(tc.mul(tc.global_avg_pool(t),
                                                      tc.global_avg_pool(t))), g))

        xl = tc.Tensor(rng.uniform(-1, 1, (3, 5)))
        wl = tc.Tensor(rng.uniform(-1, 1, (4, 5)))
        bl = tc.Tensor(rng.uniform(-1, 1, 4))
        labels = np.array([0, 2, 3])
        cases.append(("linear/x", lambda t: tc.tsum(tc.mul(tc.linear(t, wl, bl),
                                                           tc.linear(t, wl, bl))), xl))
        cases.append(("linear/w", lambda t: tc.softmax_cross_entropy(tc.linear(xl, t, bl), labels), wl))
        cases.append(("linear/b", lambda t: tc.softmax_cross_entropy(tc.linear(xl, wl, t), labels), bl))
        cases.append(("softmax_ce", lambda t: tc.softmax_cross_entropy(t, labels),
                      tc.Tensor(rng.uniform(-1, 1, (3, 5)))))
        cases.append(("add_scalar", lambda t: tc.tsum(tc.mul(tc.add_scalar(t, 0.5),
                                                             tc.add_scalar(t, 0.5))), a))

        for name, f, arg in cases:
            err = tc.grad_check(f, arg)
            assert err < 1e-6, f"{name}: relative error {err:.3e}"

    def test_conv_composition_under_1e4(self):
        rng = np.random.default_rng(41)
        x = tc.Tensor(rng.uniform(-1, 1, (2, 2, 6, 6)))
        w1 = tc.Tensor(rng.uniform(-0.5, 0.5, (3, 2, 3, 3)))
        w2 = tc.Tensor(rng.uniform(-0.5, 0.5, (3, 3, 3, 3)))
        labels = np.array([0, 2])
        wl = tc.Tensor(rng.uniform(-0.5, 0.5, (3, 3)))
        bl = tc.Tensor(np.zeros(3))

        def net(t):
            h = tc.relu(tc.conv2d(x, t, stride=1, pad=1))
            h = tc.conv2d(h, w2, stride=1, pad=1)
            return tc.softmax_cross_entropy(tc.linear(tc.global_avg_pool(h), wl, bl), labels)

        assert tc.grad_check(net, w1) < 1e-4

    def test_grad_check_restores_input(self):
        x = tc.Tensor(np.array([1.0, 2.0, 3.0]))
        before = x.data.copy()
        tc.grad_check(tc.tsum, x)
        assert np.array_equal(x.data, before)
        assert x.requires_grad is False
        assert x.grad is None

    def test_grad_check_rejects_non_finite(self):
        x = tc.Tensor(np.array([1.0]))

        def bad(t):
            return tc.Tensor(np.array([float("inf")]))

        with pytest.raises(NumericalError):
            tc.grad_check(bad, x)


class TestConvGradientVsReference:
    """The conv2d weight gradient must agree with finite differences of the naive oracle."""

    def test_weight_grad_matches_oracle_fd(self):
        rng = np.random.default_rng(53)
        x = tc.Tensor(rng.uniform(-1, 1, (1, 2, 5, 5)))
        w = tc.Tensor(rng.uniform(-1, 1, (2, 2, 3, 3)), requires_grad=True)
        with tc.Tape() as tape:
            loss = tc.tsum(tc.conv2d(x, w, stride=1, pad=1))
        tape.backward(loss)
        analytic = w.grad.copy()

        eps = 1e-6
        flat = w.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = conv2d_reference(x.data, w.data, None, 1, 1).sum()
            flat[i] = orig - eps
            fm = conv2d_reference(x.data, w.data, None, 1, 1).sum()
            flat[i] = orig
            numeric = (fp - fm) / (2 * eps)
            assert abs(analytic.reshape(-1)[i] - numeric) < 1e-6
