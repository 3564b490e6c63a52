"""Span tracer for the benchmark's traced run.

The tracer wraps public merlib functions at the module bindings their
callers look up at call time (``merlib.model`` calls ``tc.conv2d``, so the
binding is ``merlib.tensor.conv2d``; ``merlib.cli`` imported ``run_stage``
by name, so it has its own binding ``merlib.cli.run_stage``). Every call
through a wrapped binding becomes one span: name, start, end, parent span,
run id and a few shape-derived counts. Backward closures are timed by
wrapping ``Tape.record``, which sees each closure as it is recorded.

Spans stay in memory until the run ends. Nothing here touches the
program's source, and ``Tracer.uninstall`` puts every original object
back, so untraced runs execute the program exactly as shipped.
"""

import functools
import importlib
import json
import os
import time
from collections import Counter

CONV_LAYERS = ("tensor.conv2d_1x1", "tensor.conv2d_3x3")
ELEMENTWISE_OPS = ("tensor.relu", "tensor.add", "tensor.mul", "tensor.add_scalar",
                   "tensor.channel_concat", "tensor.channel_mean")
HEAD_OPS = ("tensor.global_avg_pool", "tensor.linear",
            "tensor.softmax_cross_entropy")

# (span name, bindings). A binding is "module:attr" or "module:Class.attr".
# One function imported by name into several modules has one binding per
# importing module; a call goes through exactly one of them.
SPANS = [
    ("tensor.conv2d", ["merlib.tensor:conv2d"]),
    *[(name, [f"merlib.tensor:{name.split('.', 1)[1]}"])
      for name in ELEMENTWISE_OPS + HEAD_OPS],
    ("tensor.tape.backward", ["merlib.tensor:Tape.backward"]),
    ("model.forward", ["merlib.model:Network.forward"]),
    ("model.attention_readout", ["merlib.model:attention_readout",
                                 "merlib.cli:attention_readout"]),
    ("model.attention_map", ["merlib.model:attention_map"]),
    ("model.checkpoint.save", ["merlib.model:save_checkpoint",
                               "merlib.train:save_checkpoint",
                               "merlib.cli:save_checkpoint"]),
    ("model.checkpoint.load", ["merlib.model:load_checkpoint",
                               "merlib.train:load_checkpoint",
                               "merlib.cli:load_checkpoint"]),
    ("data.augment", ["merlib.data:augment", "merlib.train:augment"]),
    ("data.load_sample_image", ["merlib.data:load_sample_image",
                                "merlib.train:load_sample_image"]),
    ("imageio.read_image", ["merlib.imageio:read_image", "merlib.cli:read_image"]),
    ("data.load_manifest", ["merlib.data:load_manifest", "merlib.cli:load_manifest"]),
    ("data.resample_balance", ["merlib.data:resample_balance",
                               "merlib.train:resample_balance"]),
    ("train.prepare_input", ["merlib.train:prepare_input", "merlib.cli:prepare_input"]),
    ("train.sgd_step", ["merlib.train:sgd_step"]),
    ("train.run_stage", ["merlib.train:run_stage", "merlib.cli:run_stage"]),
    ("train.evaluate_accuracy", ["merlib.train:evaluate_accuracy"]),
    ("train.predict_classes", ["merlib.train:predict_classes",
                               "merlib.cli:predict_classes"]),
    ("evaluation.folds", ["merlib.evaluation:folds_loso", "merlib.cli:folds_loso",
                          "merlib.evaluation:folds_hde", "merlib.cli:folds_hde"]),
    ("evaluation.aggregate", ["merlib.evaluation:aggregate", "merlib.cli:aggregate"]),
    ("evaluation.report", ["merlib.evaluation:render_report",
                           "merlib.cli:render_report",
                           "merlib.evaluation:report_to_json",
                           "merlib.cli:report_to_json"]),
    ("cli.main", ["merlib.cli:main"]),
]
RECORD_BINDING = "merlib.tensor:Tape.record"

# Per-layer metrics in report order, with units. Time totals and counts are
# per traced operation (one CLI command, or one scoring pass).
LAYER_METRICS = [
    *[(f"{layer}.{field}", unit) for layer in CONV_LAYERS
      for field, unit in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))],
    ("tensor.conv2d.madds", "count"),
    ("tensor.conv2d.im2col_bytes", "bytes"),
    ("tensor.elementwise.fwd_s", "s"), ("tensor.elementwise.bwd_s", "s"),
    ("tensor.head.fwd_s", "s"), ("tensor.head.bwd_s", "s"),
    ("tensor.tape.backward_s", "s"), ("tensor.tape.ops", "count"),
    ("model.forward.self_s", "s"),
    ("model.attention_map.s", "s"), ("model.attention_map.calls", "count"),
    ("model.checkpoint.save_s", "s"), ("model.checkpoint.load_s", "s"),
    ("model.checkpoint.bytes", "bytes"),
    ("data.augment.s", "s"), ("data.augment.calls", "count"),
    ("data.load_sample_image.s", "s"),
    ("imageio.read_image.s", "s"), ("imageio.read_image.bytes", "bytes"),
    ("data.load_manifest.s", "s"), ("data.resample_balance.s", "s"),
    ("train.batch_s", "s"), ("train.sgd_step.s", "s"), ("train.steps", "count"),
    ("train.step_ms.p50", "ms"), ("train.step_ms.p90", "ms"),
    ("train.validation_s", "s"), ("train.validation_frac", "ratio"),
    ("evaluation.folds_s", "s"), ("evaluation.aggregate_s", "s"),
    ("evaluation.report_s", "s"),
    ("cli.self_s", "s"),
]


def resolve(binding):
    """(owner object, attribute name) for a "module:attr" binding, or None
    when the program no longer has it, so that a later refactor of the
    program's imports loses spans instead of breaking the traced run."""
    module_name, _, path = binding.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    return (owner, attr) if hasattr(owner, attr) else None


def _present(bindings):
    """(binding, owner, attr) for each binding the program has."""
    for b in bindings:
        found = resolve(b)
        if found is not None:
            yield (b, *found)


def current_bindings():
    """binding -> the object it holds right now."""
    every = [b for _, bindings in SPANS for b in bindings] + [RECORD_BINDING]
    return {b: getattr(owner, attr) for b, owner, attr in _present(every)}


def _conv_attrs(args, kwargs):
    x, w = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    pad = kwargs.get("pad", args[4] if len(args) > 4 else 0)
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    out_p = ((h + 2 * pad - kh) // stride + 1) * ((wd + 2 * pad - kw) // stride + 1)
    patch = cin * kh * kw
    return (f"tensor.conv2d_{kh}x{kw}",
            {"madds": n * cout * patch * out_p, "im2col_bytes": 8 * n * patch * out_p})


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Records spans while installed; `run_id` tags the operation in flight.

    Each span is a list [name, start, end, parent index, run id, attrs],
    appended when the call starts, so a parent always precedes its children.
    """

    def __init__(self):
        self.spans = []
        self.counters = Counter()  # (run_id, name) -> count
        self.run_id = 0
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, attrs, fn, args, kwargs):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self.run_id, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, fn):
        tracer = self
        if name == "tensor.conv2d":
            @functools.wraps(fn)
            def conv(*args, **kwargs):
                span, attrs = _conv_attrs(args, kwargs)
                return tracer._call(span, attrs, fn, args, kwargs)
            return conv
        if name == "imageio.read_image":
            @functools.wraps(fn)
            def read(*args, **kwargs):
                attrs = {}
                out = tracer._call(name, attrs, fn, args, kwargs)
                attrs["bytes"] = out.nbytes
                return out
            return read
        if name.startswith("model.checkpoint."):
            @functools.wraps(fn)
            def ckpt(*args, **kwargs):
                attrs = {}
                out = tracer._call(name, attrs, fn, args, kwargs)
                path = args[1] if name.endswith("save") else args[0]
                attrs["bytes"] = _file_bytes(path)
                return out
            return ckpt

        @functools.wraps(fn)
        def plain(*args, **kwargs):
            return tracer._call(name, None, fn, args, kwargs)
        return plain

    def _record_wrapper(self, record):
        tracer = self

        @functools.wraps(record)
        def timed_record(tape, output, backward_fn):
            # The op recording itself is the innermost open span.
            op = tracer.spans[tracer._stack[-1]][0] if tracer._stack else ""
            attrs = {"op": op, "qualname": backward_fn.__qualname__}
            tracer.counters[(tracer.run_id, "tensor.tape.ops")] += 1

            def timed_backward(g):
                return tracer._call("backward", attrs, backward_fn, (g,), {})
            return record(tape, output, timed_backward)
        return timed_record

    # -- installation ------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for name, bindings in SPANS:
                for _, owner, attr in _present(bindings):
                    self._swap(owner, attr, lambda fn: self._wrapper(name, fn))
            for _, owner, attr in _present([RECORD_BINDING]):
                self._swap(owner, attr, self._record_wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _swap(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Spans as JSON lines: name, start, end, parent, run, attrs."""
        with open(path, "w") as fh:
            for name, start, end, parent, run, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run,
                                     "attrs": attrs}) + "\n")


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered, reach = 0.0, s[1]
        for lo, hi in sorted((max(spans[k][1], s[1]), min(spans[k][2], s[2]))
                             for k in kids):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[2] - s[1]) - covered)
    return out


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(tracer, run_id):
    """Per-layer metric name -> value for one traced operation."""
    # A run's spans are contiguous: run_id changes only between units.
    first = next((i for i, s in enumerate(tracer.spans) if s[4] == run_id), 0)
    local = [[name, start, end, parent - first if parent >= first else -1, run, attrs]
             for name, start, end, parent, run, attrs in tracer.spans
             if run == run_id]
    selfs = self_times(local)

    m = {name: 0.0 for name, _ in LAYER_METRICS}
    in_stage = [False] * len(local)
    in_val = [False] * len(local)
    step_start, steps_ms, stage_s = None, [], 0.0
    for i, (name, start, end, parent, _, attrs) in enumerate(local):
        dur = end - start
        if parent >= 0:
            in_stage[i] = in_stage[parent]
            in_val[i] = in_val[parent]
        in_stage[i] = in_stage[i] or name == "train.run_stage"
        in_val[i] = in_val[i] or name == "train.evaluate_accuracy"
        training = in_stage[i] and not in_val[i]

        if name in CONV_LAYERS:
            m[f"{name}.fwd_s"] += dur
            m[f"{name}.calls"] += 1
            m["tensor.conv2d.madds"] += attrs["madds"]
            m["tensor.conv2d.im2col_bytes"] += attrs["im2col_bytes"]
        elif name in ELEMENTWISE_OPS:
            m["tensor.elementwise.fwd_s"] += dur
        elif name in HEAD_OPS:
            m["tensor.head.fwd_s"] += dur
        elif name == "backward":
            op = attrs["op"]
            if op in CONV_LAYERS:
                m[f"{op}.bwd_s"] += dur
            elif op in ELEMENTWISE_OPS:
                m["tensor.elementwise.bwd_s"] += dur
            elif op in HEAD_OPS:
                m["tensor.head.bwd_s"] += dur
        elif name == "tensor.tape.backward":
            m["tensor.tape.backward_s"] += dur
        elif name in ("model.forward", "model.attention_readout"):
            m["model.forward.self_s"] += selfs[i]
            if name == "model.forward" and training:
                step_start = start
        elif name == "model.attention_map":
            m["model.attention_map.s"] += dur
            m["model.attention_map.calls"] += 1
        elif name == "model.checkpoint.save":
            m["model.checkpoint.save_s"] += dur
            m["model.checkpoint.bytes"] += attrs["bytes"]
        elif name == "model.checkpoint.load":
            m["model.checkpoint.load_s"] += dur
            m["model.checkpoint.bytes"] += attrs["bytes"]
        elif name == "data.augment":
            m["data.augment.s"] += dur
            m["data.augment.calls"] += 1
        elif name == "data.load_sample_image":
            m["data.load_sample_image.s"] += dur
        elif name == "imageio.read_image":
            m["imageio.read_image.s"] += dur
            m["imageio.read_image.bytes"] += attrs["bytes"]
        elif name == "data.load_manifest":
            m["data.load_manifest.s"] += dur
        elif name == "data.resample_balance":
            m["data.resample_balance.s"] += dur
        elif name == "train.sgd_step":
            m["train.sgd_step.s"] += dur
            m["train.steps"] += 1
            if step_start is not None:
                steps_ms.append(1000.0 * (end - step_start))
                step_start = None
        elif name == "train.evaluate_accuracy":
            m["train.validation_s"] += dur
        elif name == "train.run_stage":
            stage_s += dur
        elif name == "evaluation.folds":
            m["evaluation.folds_s"] += dur
        elif name == "evaluation.aggregate":
            m["evaluation.aggregate_s"] += dur
        elif name == "evaluation.report":
            m["evaluation.report_s"] += dur
        elif name == "cli.main":
            m["cli.self_s"] += selfs[i]
        # Batch assembly inside training: the direct children of the
        # batch loop that load, augment and convert each sample.
        if training and name in ("data.load_sample_image", "data.augment",
                                 "train.prepare_input"):
            m["train.batch_s"] += dur
    m["train.validation_frac"] = m["train.validation_s"] / stage_s if stage_s else 0.0
    m["train.step_ms.p50"] = percentile(steps_ms, 50)
    m["train.step_ms.p90"] = percentile(steps_ms, 90)
    m["tensor.tape.ops"] = tracer.counters[(run_id, "tensor.tape.ops")]
    return m
