"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from merlib import model as mmodel  # noqa: E402
from merlib import tensor as tc  # noqa: E402
from workloads import Unit  # noqa: E402


class TinyWorkload:
    """One small attention forward/backward per unit; `seen` keeps what
    every binding held while the unit ran."""

    def __init__(self):
        self.seen = []

    def setup(self, work, seed):
        spec = mmodel.NetworkSpec.stack((3, 8, 8), 1, 4, 5)
        return {"model": mmodel.build_network(spec, seed, attention=True),
                "x": tc.Tensor(np.random.default_rng(seed).standard_normal((2, 3, 8, 8)))}

    def unit(self, ctx, out):
        self.seen.append(tracing.current_bindings())
        with tc.Tape() as tape:
            loss = tc.softmax_cross_entropy(ctx["model"].forward(ctx["x"]), [0, 1])
        tape.backward(loss)
        return Unit(wall=1e-3, attempted=1)


def _runner(tmp_path, workload):
    return run.Runner(workload, workload.setup(str(tmp_path), 0), str(tmp_path))


def test_traced_run_restores_every_binding(tmp_path):
    originals = tracing.current_bindings()
    workload = TinyWorkload()
    tracer = tracing.Tracer()
    plain, traced, _ = run.measure(_runner(tmp_path, workload), 1e-6, tracer)
    assert len(traced) == 1 and tracer.spans
    # While traced, every binding held a wrapper ...
    wrapped = workload.seen[-1]
    assert all(wrapped[b] is not originals[b] for b in originals)
    # ... and afterwards each is the original object again.
    after = tracing.current_bindings()
    assert all(after[b] is originals[b] for b in originals)


def test_tracer_uninstalls_when_the_unit_raises():
    originals = tracing.current_bindings()
    tracer = tracing.Tracer()
    try:
        with tracer:
            raise KeyError("boom")
    except KeyError:
        pass
    after = tracing.current_bindings()
    assert all(after[b] is originals[b] for b in originals)


def test_untraced_run_installs_no_wrapper(tmp_path):
    originals = tracing.current_bindings()
    workload = TinyWorkload()
    plain, traced, warm = run.measure(_runner(tmp_path, workload), 1e-6)
    assert len(plain) == 1 and not traced and len(warm) == 1
    assert all(seen[b] is originals[b] for seen in workload.seen for b in originals)


def test_self_time_arithmetic_on_a_hand_built_tree():
    # name, start, end, parent, run, attrs
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 4.0, 0, 0, None],
        ["a.child", 2.0, 3.0, 1, 0, None],
        ["b", 5.0, 7.0, 0, 0, None],
        ["b.x", 5.5, 6.5, 3, 0, None],   # overlapping children of b: the
        ["b.y", 6.0, 8.0, 3, 0, None],   # union counts once, clipped to b
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 0.5, 1.0, 2.0]


def test_one_block_attention_forward_records_four_convs_and_one_map():
    spec = mmodel.NetworkSpec.stack((3, 8, 8), 1, 4, 5)
    net = mmodel.build_network(spec, seed=3, attention=True)
    x = tc.Tensor(np.random.default_rng(0).standard_normal((2, 3, 8, 8)))
    tracer = tracing.Tracer()
    with tracer:
        net.forward(x)
    m = tracing.layer_metrics(tracer, 0)
    # pointwise 1x1, mid 3x3, wide 3x3, and the 1x1 attention embedding
    assert m["tensor.conv2d_1x1.calls"] == 2
    assert m["tensor.conv2d_3x3.calls"] == 2
    assert m["model.attention_map.calls"] == 1
    # Forward only, no tape: nothing is recorded for backward.
    assert m["tensor.tape.ops"] == 0
    assert all(v == 0 for k, v in m.items() if k.endswith("bwd_s"))
    # 2*4*(3*1*1)*64 + 2*4*(3*9)*64 + 2*4*(4*9)*64 + 2*12*12*64
    assert m["tensor.conv2d.madds"] == 1536 + 13824 + 18432 + 18432


def test_backward_closures_are_timed_per_op():
    spec = mmodel.NetworkSpec.stack((3, 8, 8), 1, 4, 5)
    net = mmodel.build_network(spec, seed=3, attention=False)
    x = tc.Tensor(np.random.default_rng(0).standard_normal((2, 3, 8, 8)))
    tracer = tracing.Tracer()
    with tracer:
        with tc.Tape() as tape:
            loss = tc.softmax_cross_entropy(net.forward(x), [0, 1])
        tape.backward(loss, params=net.parameters().values())
    m = tracing.layer_metrics(tracer, 0)
    qualnames = {s[5]["qualname"] for s in tracer.spans if s[0] == "backward"}
    assert "conv2d.<locals>.backward" in qualnames
    assert m["tensor.tape.ops"] == len(tape)
    assert m["tensor.conv2d_3x3.bwd_s"] > 0 and m["tensor.head.bwd_s"] > 0
    assert m["model.attention_map.calls"] == 0


def test_steal_is_taken_out_of_wall_time(monkeypatch):
    # 400 busy ticks over the stretch, 100 of them stolen: a quarter.
    ticks = iter([(1000, 50), (1400, 150)])
    monkeypatch.setattr(run, "cpu_jiffies", lambda: next(ticks))
    clock = run.StealClock()
    clock.t0 -= 2.0
    assert 1.5 <= clock.stop() < 1.6
    assert clock.frac == 0.25


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(parent, parent, "lower", 0.1)[0] == "no worse"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "lower", 0.1)[0] == "worse"
    noisy = [5.0, 15.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1)[0] == "unresolved"
    # A gain does not count when more operations fail.
    assert compare.verdict(parent, faster, "lower", 0.1, 0, 1)[0] != "improved"
    assert compare.verdict(parent, [v * 1.25 for v in parent], "higher", 0.1)[0] == "improved"
