"""Forked worker processes: how merlib starts, stops and talks to them.

`eval` trains each fold in one (`cli._run_folds`), and a training stage
whose batches hold more than one shard computes all but the first shard of
every step in one (`train.run_stage`). Each worker gets one duplex pipe to
its parent. Fork, not spawn or forkserver: it starts no server process that
could outlive the caller, and a worker's body and arguments need no
pickling. A stage run inside a worker starts no helper (`in_worker`), so
at most one busy process runs per CPU.
"""

import signal
import sys
from contextlib import contextmanager


def _exit_on_signal(signum, frame):
    """SIGTERM handler: unwind like an exit, running every `finally`."""
    sys.exit(128 + signum)


def _worker_main(body, conn, parent_end, args):
    # Ctrl-C reaches the whole process group; the parent alone handles it
    # and stops its workers with SIGTERM, which unwinds a worker like an
    # exit, so a write in progress removes its temporary file.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    # The fork copied the parent's end of the pipe. While that copy is open
    # the pipe never reads as closed here, so a worker whose parent died
    # would wait for its next message forever.
    parent_end.close()
    body(conn, *args)


def start(body, *args) -> tuple:
    """Fork a process that runs body(conn, *args) and returns (process,
    conn): the two ends of one duplex pipe."""
    # Imported here, not at the top: the modules take about 1 MB that a
    # process which never forks does not need.
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    conn, child_end = fork.Pipe()
    proc = fork.Process(target=_worker_main, args=(body, child_end, conn, args))
    proc.start()
    child_end.close()  # so a dead worker reads as EOF, not a hang
    return proc, conn


def stop(workers):
    """Terminate every (process, conn) pair, then join it and close its
    pipe end."""
    for proc, _ in workers:
        proc.terminate()
    for proc, conn in workers:
        proc.join()
        conn.close()


@contextmanager
def sigterm_exits():
    """While the block runs, SIGTERM raises SystemExit, so a plain `kill`
    reaches the `finally` that stops the workers; the previous handler is
    restored on the way out. Installing a handler needs the main thread."""
    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def in_worker() -> bool:
    """True in a process that multiprocessing started, such as an `eval`
    fold worker."""
    import multiprocessing

    return multiprocessing.parent_process() is not None
