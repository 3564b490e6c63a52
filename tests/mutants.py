"""Mutation checks: each entry plants one known defect in a copy of `src/`
and names the tests that must catch it.

Run from anywhere, with numpy, pytest and hypothesis installed:

    python tests/mutants.py

The named tests first run once on an unmodified copy, where they must all
pass. Then each mutant is applied alone to that copy, and its tests run
with PYTHONPATH pointing at it; at least one of them must fail. The
script exits 1 if a mutant survives, if a test errors out instead of
failing, if a run of tests takes longer than TIMEOUT seconds (a mutant
that deadlocks), or if a snippet is no longer found exactly once in its
file (a refactor moved the code: update the entry). Tier-1 does not run
this; it is its own CI step. Only fast tests belong here.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from contextlib import suppress

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Seconds one run of tests may take, the unmodified run of every named test
# included.
TIMEOUT = 300

# (file under src/, exact snippet, replacement, test ids that must fail)
MUTANTS = [
    # Zero-attention identity: a fresh attention network is the plain one.
    ("merlib/model.py",
     "return tc.Tensor(np.zeros((c, c, 1, 1)), requires_grad=True)",
     "return tc.Tensor(np.full((c, c, 1, 1), 1e-3), requires_grad=True)",
     ["tests/test_model.py::TestZeroAttentionIdentity::"
      "test_fresh_attention_and_plain_networks_agree_bitwise"]),
    # Exact upgrade: the upgrade must share the fresh network's zero weight.
    ("merlib/model.py",
     "bp.attn_w = _zero_attention_weight(bs)",
     "bp.attn_w = tc.Tensor(np.full((bs.concat_channels, bs.concat_channels,"
     " 1, 1), 1e-3), requires_grad=True)",
     ["tests/test_model.py::TestCheckpoints::"
      "test_upgrade_load_preserves_logits_bitwise"]),
    # Byte-determinism: augmentation draws depend on (seed, sample, epoch)
    # only.
    ("merlib/train.py",
     "np.random.SeedSequence((seed, int(i), epoch))",
     "np.random.SeedSequence((seed, int(i), epoch,"
     " __import__('time').time_ns()))",
     ["tests/test_train.py::TestRunStage::"
      "test_augmented_training_stays_deterministic"]),
    # Gradient correctness: a channel dropped from the broadcast map's sum.
    ("merlib/tensor.py",
     "_accum(y, gy.sum(axis=1, keepdims=True) if broadcast else gy)",
     "_accum(y, gy[:, 1:].sum(axis=1, keepdims=True) if broadcast else gy)",
     ["tests/test_tensor.py::TestGradCheck::test_primitives_under_1e6"]),
    # Checkpoint validation: stored tensors must be finite.
    ("merlib/model.py",
     "if not np.all(np.isfinite(t.data)):",
     "if False:",
     ["tests/test_model.py::TestCheckpoints::test_non_finite_tensor_is_corrupt"]),
    # A stage validates only on a held-out set, never on its training set.
    ("merlib/cli.py",
     "    val_manifest = None\n",
     "    val_manifest = train_manifest\n",
     ["tests/test_cli.py::test_train_single_stage"]),
    # A plain SIGTERM to eval or train must still stop its workers.
    ("merlib/workers.py",
     "previous = signal.signal(signal.SIGTERM, _exit_on_signal)",
     "previous = signal.getsignal(signal.SIGTERM)",
     ["tests/test_cli.py::test_eval_sigterm_stops_running_workers",
      "tests/test_cli.py::test_train_sigterm_stops_its_helper"]),
    # A worker closes its copy of the parent's pipe end, or it never reads
    # EOF once its parent has died.
    ("merlib/workers.py",
     "    parent_end.close()\n",
     "",
     ["tests/test_cli.py::test_helper_exits_when_its_parent_is_killed"]),
    # Importing merlib keeps freed memory for reuse instead of returning it
    # to the kernel, under main and for library callers alike.
    ("merlib/__init__.py",
     "\n\n\n_keep_freed_memory()\n",
     "\n",
     ["tests/test_cli.py::test_library_forwards_reuse_freed_memory",
      "tests/test_cli.py::test_repeated_training_reuses_freed_memory"]),
    # Stage 0 numbers the pretraining classes as stage 1 reads them.
    ("merlib/cli.py",
     "_load_in_vocabulary(cfg[\"pretrain_manifest\"], classes)",
     "_load_manifests([cfg[\"pretrain_manifest\"]])[0]",
     ["tests/test_cli.py::test_two_stage_pretrains_in_training_vocabulary"]),
    # Backward releases each op's output gradient once consumed.
    ("merlib/tensor.py",
     "                output.grad = None\n",
     "",
     ["tests/test_tensor.py::TestTape::"
      "test_backward_accumulates_through_reuse"]),
    # Gradient correctness: the weight gradient drops the batch's last image.
    ("merlib/tensor.py",
     "for gi, blocks in zip(g.reshape(n, cout, oh * ow),",
     "for gi, blocks in zip(g.reshape(n, cout, oh * ow)[:-1],",
     ["tests/test_tensor.py::TestConv2dProperties::test_matches_loop_oracle"]),
    # Conv lowering: tap row di reads row phase di % stride; the next phase
    # gives wrong values, not a shape error, for a 2-row kernel at stride 2.
    ("merlib/tensor.py",
     "mats[di % stride]",
     "mats[(di + 1) % stride]",
     ["tests/test_tensor.py::TestConv2dProperties::test_matches_loop_oracle"]),
    # A block stride must tile its input before any work starts.
    ("merlib/model.py",
     "if (h - 1) % b.stride or (w - 1) % b.stride:",
     "if False:",
     ["tests/test_cli.py::test_bad_config_exits_one"]),
    # A shard pass loads the step's parameters, which a helper forked at
    # the stage's start does not have.
    ("merlib/train.py",
     "        p.data = a\n",
     "        p.data = p.data\n",
     ["tests/test_cli.py::test_train_artifacts_do_not_depend_on_cpu_count"]),
    # Every shard is augmented with its step's epoch stream.
    ("merlib/train.py",
     "(arrays, epoch, s)",
     "(arrays, 0, s)",
     ["tests/test_train.py::TestRunStage::"
      "test_sharded_gradient_equals_single_pass"]),
    # Each shard's gradient weighs by its share of the batch.
    ("merlib/train.py",
     "weight = len(s) / len(idx)",
     "weight = 1 / len(shards)",
     ["tests/test_train.py::TestRunStage::"
      "test_sharded_gradient_equals_single_pass"]),
    # The worker loop calls with each request's arguments, not the first's.
    ("merlib/workers.py",
     "            args = conn.recv()\n",
     "            args = conn.recv()\n"
     "            serve.first = getattr(serve, 'first', args)\n"
     "            args = serve.first\n",
     ["tests/test_cli.py::test_eval_workers_match_in_process_training",
      "tests/test_cli.py::test_eval_artifacts_do_not_depend_on_fold_workers"]),
    # The attention map weighs each branch by its own slice of the weight.
    ("merlib/tensor.py",
     "for lo, hi in zip(bounds[:-1], bounds[1:])]\n",
     "for lo, hi in zip(bounds[:-1], bounds[1:])]\n    ws[-1] = ws[0]\n",
     ["tests/test_model.py::TestAttentionArithmetic::"
      "test_map_is_channel_mean_of_full_embedding"]),
    # A failed task keeps every later task from being sent to a worker.
    ("merlib/workers.py",
     "while self.idle and self.sent < self.end:",
     "while self.idle and self.sent < len(self.tasks):",
     ["tests/test_cli.py::"
      "test_eval_later_fold_error_stops_the_folds_after_it"]),
    # The pool yields results in task order, not in the order they arrive.
    ("merlib/workers.py",
     "            k, (proc, _) = self.busy.pop(conn)\n",
     "            k, (proc, _) = self.busy.pop(conn)\n"
     "            k = self.arrived = getattr(self, 'arrived', -1) + 1\n",
     ["tests/test_workers.py::test_pool_yields_results_in_task_order"]),
    # A worker found dead when it is sent a task is reported by that task's
    # name, not as the send's BrokenPipeError.
    ("merlib/workers.py",
     "            with suppress(ConnectionError):\n",
     "            with suppress():\n",
     ["tests/test_cli.py::test_train_dead_helper_exits_two_naming_its_shard",
      "tests/test_cli.py::"
      "test_eval_worker_killed_while_idle_names_its_next_fold"]),
    # A pool forks only when two tasks can run at once.
    ("merlib/workers.py",
     "self.call, self.forks = call, width > 1",
     "self.call, self.forks = call, width > 0",
     ["tests/test_workers.py::test_pool_of_width_one_runs_tasks_in_the_caller"]),
    # A pool without workers runs each task only when its result is asked
    # for, so a failed task keeps the tasks after it from running.
    ("merlib/workers.py",
     "return (self.call(*args) for _, args in tasks)",
     "return iter([self.call(*args) for _, args in tasks])",
     ["tests/test_workers.py::test_pool_of_width_one_runs_tasks_in_the_caller"]),
    # PPM headers: width, height and maxval must be ASCII digits.
    ("merlib/imageio.py",
     "if not all(t.isdigit() for t in tokens[1:4]):",
     "if False:",
     ["tests/test_data.py::TestImageIO::test_malformed_header_rejected",
      "tests/test_data.py::TestImageIO::"
      "test_random_headers_give_validation_error_or_exact_image"]),
]


def run_tests(src, test_ids):
    """pytest's exit code for test_ids run against the package under src, or
    None if they ran longer than TIMEOUT seconds."""
    # No bytecode cache: a mutant and its restored original can share a
    # size and an mtime second, which would let a stale .pyc run.
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *test_ids]
    # In its own process group, so that a timeout reaches the worker
    # processes the tests forked too. SIGINT first: pytest unwinds, and each
    # test's cleanup ends the processes it started in sessions of their
    # own; then SIGKILL ends whatever is left of the group.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        for sig in (signal.SIGINT, signal.SIGKILL):
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, sig)
            with suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=10)
        return None


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="merlib-mutants-") as scratch:
        src = os.path.join(scratch, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        every_test = sorted({t for *_, tests in MUTANTS for t in tests})
        code = run_tests(src, every_test)
        if code is None:
            print(f"unmodified source: timed out after {TIMEOUT} s")
            return 1
        if code != 0:
            print(f"unmodified source: named tests exit {code}, expected 0")
            return 1
        for n, (rel, snippet, replacement, tests) in enumerate(MUTANTS):
            path = os.path.join(src, rel)
            with open(path) as fh:
                original = fh.read()
            found = original.count(snippet)
            if found != 1:
                failures.append(f"mutant {n} ({rel}): snippet found {found} "
                                f"times, expected once: {snippet!r}")
                continue
            with open(path, "w") as fh:
                fh.write(original.replace(snippet, replacement))
            try:
                code = run_tests(src, tests)
            finally:
                with open(path, "w") as fh:
                    fh.write(original)
            # pytest exits 1 when a test failed; anything else (errors,
            # nothing collected, a timeout) says nothing about the mutant.
            verdict = {0: "SURVIVED", 1: "killed",
                       None: f"timed out after {TIMEOUT} s"}.get(
                           code, f"pytest exit {code}")
            print(f"mutant {n} ({rel}): {verdict}")
            if code != 1:
                failures.append(f"mutant {n} ({rel}): {verdict}: {snippet!r}")
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
