"""The worker pool that `eval`'s folds and a training stage's shards run on."""

import os
import time

from merlib import workers


def sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def test_pool_yields_results_in_task_order(monkeypatch):
    # Two workers; the first task finishes last, and its result still
    # comes first.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with workers.Pool(sleep_then_return, 2) as pool:
        assert len(pool) == 2
        results = pool.imap([("slow", (0.5, "a")), ("fast", (0, "b"))])
        assert list(results) == ["a", "b"]


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
