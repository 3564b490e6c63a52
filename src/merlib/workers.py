"""Forked worker processes: how merlib starts, stops and talks to them.

Every worker runs one loop, `serve`: it receives an argument tuple, replies
with the result of its call or with the exception the call raised, and
returns once its parent closes the pipe. `eval` forks its fold workers once
per available CPU before the first fold and sends each idle one the next
fold index (`cli._run_folds`); a training stage whose batches hold more
than one shard forks one helper that computes all but the first shard of
every step (`train.run_stage`). Each worker gets one duplex pipe to its
parent. Fork, not spawn or forkserver: it starts no server process that
could outlive the caller, and a worker's call needs no pickling. A stage
run inside a worker starts no helper (`in_worker`), so at most one busy
process runs per CPU.
"""

import signal
import sys
from contextlib import contextmanager

def _exit_on_signal(signum, frame):
    """SIGTERM handler: unwind like an exit, running every `finally`."""
    sys.exit(128 + signum)


def serve(conn, call):
    """Reply to each argument tuple received on `conn` with call(*args), or
    with the exception it raised; return on EOF or once the parent has
    gone."""
    while True:
        try:
            args = conn.recv()
        except EOFError:
            return
        try:
            outcome = call(*args)
        except Exception as e:
            outcome = e
        try:
            conn.send(outcome)
        except ConnectionError:
            return


def _worker_main(call, conn, parent_end):
    # Ctrl-C reaches the whole process group; the parent alone handles it
    # and stops its workers with SIGTERM, which unwinds a worker like an
    # exit, so a write in progress removes its temporary file.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, _exit_on_signal)
    # The fork copied the parent's end of the pipe. While that copy is open
    # the pipe never reads as closed here, so a worker whose parent died
    # would wait for its next message forever. (It also copied the parent's
    # ends of any earlier worker's pipe: that worker reads EOF only once
    # this one has exited too, which it does on its own EOF.)
    parent_end.close()
    serve(conn, call)


def start(call) -> tuple:
    """Fork a process that serves `call` (`serve`) and return (process,
    conn), conn being the parent's end of its duplex pipe."""
    # Imported here, not at the top: the modules take about 1 MB that a
    # process which never forks does not need.
    import multiprocessing

    fork = multiprocessing.get_context("fork")
    conn, child_end = fork.Pipe()
    proc = fork.Process(target=_worker_main, args=(call, child_end, conn))
    proc.start()
    child_end.close()  # so a dead worker reads as EOF, not a hang
    return proc, conn


def stop(busy, idle=()):
    """End (process, conn) pairs: close the pipes of the idle ones, which
    return from `serve` on EOF, terminate the busy ones, then join every
    process and close its pipe end."""
    busy, idle = list(busy), list(idle)
    for _, conn in idle:
        conn.close()
    for proc, _ in busy:
        proc.terminate()
    for proc, conn in busy + idle:
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
