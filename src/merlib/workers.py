"""Forked worker processes: the one pool that `eval`'s folds and a training
stage's shards run on.

A `Pool` is sized by one rule: its width is min(CPUs in the affinity set
(`os.sched_getaffinity`), tasks), and 0 in a process that is itself a
worker. It forks only when two tasks can run at once: at width 2 or more it
forks `width` workers, and the caller's own process only sends tasks, waits
and collects results; below that it forks nothing and runs each task itself.
Every worker runs one loop, `serve`, over one duplex pipe to its parent.
Fork, not spawn or forkserver: it starts no server process that could
outlive the caller, and a worker's call needs no pickling.
"""

import os
import signal
import sys
from contextlib import contextmanager, suppress

_in_worker = False  # set in every process `start` forks


def _exit_on_signal(signum, frame):
    """SIGTERM handler: unwind like an exit, running every `finally`."""
    sys.exit(128 + signum)


def serve(conn, call):
    """Reply to each argument tuple received on `conn` with call(*args), or
    with the exception it raised; return on EOF or once the parent has
    gone (a parent gone with a reply unread reads as a reset, not EOF)."""
    while True:
        try:
            args = conn.recv()
        except (EOFError, ConnectionError):
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
    global _in_worker
    _in_worker = True
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


class Pool:
    """`call` run on up to `tasks` tasks at a time, in `width` forked workers
    when the width (see the module docstring) is 2 or more, in the caller's
    own process otherwise. Use it as a context manager: on the way out, idle
    workers are ended by closing their pipes and busy ones are terminated.
    """

    def __init__(self, call, tasks: int):
        width = 0 if _in_worker else min(len(os.sched_getaffinity(0)), tasks)
        self.call, self.forks = call, width > 1
        self.idle, self.busy = [], {}  # workers; conn -> (task, worker)
        try:
            for _ in range(width if self.forks else 0):
                self.idle.append(start(call))
        except BaseException:
            self.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        busy = [worker for _, worker in self.busy.values()]
        for _, conn in self.idle:
            conn.close()  # `serve` returns on EOF
        for proc, _ in busy:
            proc.terminate()
        for proc, conn in busy + self.idle:
            proc.join()
            conn.close()
        self.idle, self.busy = [], {}

    def imap(self, tasks):
        """Run (name, argument tuple) tasks; return an iterator over their
        results in task order.

        Without workers, each task runs in this process when the iterator
        reaches it. With workers, the first tasks are sent to them now and
        the others as workers come free. Either way, a task that raises
        stops the tasks after it from running, and its exception is raised
        in its place (once the busy workers have finished), as running the
        tasks one after another in-process would. A worker that ends without
        a result, busy or when sent its next task, is a RuntimeError naming
        that task. One imap at a time.
        """
        if not self.forks:
            return (self.call(*args) for _, args in tasks)
        self.tasks, self.done = list(tasks), {}  # done: task -> outcome
        self.end = len(self.tasks)  # tasks from the first failure on are never sent
        self.sent = 0
        self._send_to_idle()
        return self._in_order()

    def _in_order(self):
        for k in range(len(self.tasks)):
            while k not in self.done:  # then task k is busy
                self._receive()
                self._send_to_idle()
            if k == self.end:
                while self.busy:
                    self._receive()
                raise self.done[k]
            yield self.done.pop(k)

    def _send_to_idle(self):
        while self.idle and self.sent < self.end:
            worker, k = self.idle.pop(), self.sent
            self.sent += 1
            # A worker that died while idle fails this send; its pipe then
            # reads as closed in `_receive`, as a busy worker's would.
            with suppress(ConnectionError):
                worker[1].send(self.tasks[k][1])
            self.busy[worker[1]] = k, worker

    def _receive(self):
        """Wait for a busy worker, and take the outcome of every one that
        has replied or died."""
        from multiprocessing.connection import wait

        for conn in wait(list(self.busy)):
            k, (proc, _) = self.busy.pop(conn)
            try:
                self.done[k] = conn.recv()
                self.idle.append((proc, conn))
            except (EOFError, ConnectionError):  # it has exited
                proc.join()
                conn.close()
                self.done[k] = RuntimeError(
                    f"{self.tasks[k][0]}: worker exited with code "
                    f"{proc.exitcode} before sending a result")
            if isinstance(self.done[k], Exception):
                self.end = min(self.end, k)
