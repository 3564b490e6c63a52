"""The worker pool that `eval`'s folds and a training stage's shards run on."""

import os
import time
from functools import partial

import pytest

from merlib import workers


def sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def test_pool_yields_results_in_task_order(monkeypatch):
    # Two workers; the first task finishes last, and its result still
    # comes first.
    started = []
    real_start = workers.start

    def counting_start(call):
        started.append(call)
        return real_start(call)

    monkeypatch.setattr(workers, "start", counting_start)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with workers.Pool(sleep_then_return, 2) as pool:
        assert len(started) == 2
        results = pool.imap([("slow", (0.5, "a")), ("fast", (0, "b"))])
        assert list(results) == ["a", "b"]


def pid_unless_two(calls, k):
    calls.append(k)
    if k == 2:
        raise ValueError("task 2 fails")
    return os.getpid(), k


def refuse_to_start(call):
    raise AssertionError("a worker process was started")


def check_pool_runs_tasks_here(tasks):
    """Make a pool sized for `tasks` tasks in this process and check that it
    forks nothing and runs four tasks here: each when the iterator reaches
    it, in task order; task 2 raises its own exception and task 3 never
    runs. Returns this process's pid."""
    real_start, workers.start = workers.start, refuse_to_start
    try:
        calls = []
        with workers.Pool(partial(pid_unless_two, calls), tasks) as pool:
            results = pool.imap((f"task {k}", (k,)) for k in range(4))
            assert calls == []
            assert next(results) == (os.getpid(), 0)
            assert calls == [0]
            assert next(results) == (os.getpid(), 1)
            with pytest.raises(ValueError, match="task 2 fails"):
                next(results)
        assert calls == [0, 1, 2]
    finally:
        workers.start = real_start
    return os.getpid()


@pytest.mark.parametrize("cpus, tasks", [({0}, 4), ({0, 1}, 1)],
                         ids=["one-cpu", "one-task"])
def test_pool_of_width_one_runs_tasks_in_the_caller(monkeypatch, cpus, tasks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert check_pool_runs_tasks_here(tasks) == os.getpid()


def test_pool_made_in_a_worker_runs_tasks_in_that_worker(monkeypatch):
    # Width 0 inside a worker, whatever the CPUs and tasks.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with workers.Pool(check_pool_runs_tasks_here, 2) as pool:
        [worker_pid] = pool.imap([("nested pool", (4,))])
    assert worker_pid != os.getpid()


def test_worker_exits_quietly_when_its_reply_goes_unread():
    # The parent closes its end with the worker's reply still unread, as a
    # parent killed at that moment does: the worker's next read then fails
    # with a connection reset, not EOF, and it must still return quietly.
    proc, conn = workers.start(sleep_then_return)
    conn.send((0, "reply"))
    assert conn.poll(10)
    conn.close()
    proc.join(10)
    assert proc.exitcode == 0
