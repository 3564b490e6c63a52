"""Forked worker processes: the one pool that `eval`'s folds and a training
stage's shards run on.

A `Pool` forks its workers when it is made, sized by one CPU rule: at most
one busy process per CPU in the affinity set (`os.sched_getaffinity`), and
never more processes than tasks. So `eval`, whose own process only waits,
forks min(CPUs, folds) workers; a stage, whose own process computes each
batch's first shard, forks min(CPUs, shards) - 1 helpers; and a process
that is itself a worker forks none. Every worker runs one loop, `serve`,
over one duplex pipe to its parent. Fork, not spawn or forkserver: it
starts no server process that could outlive the caller, and a worker's
call needs no pickling.
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
    """Worker processes serving `call`, for up to `tasks` tasks at a time,
    `caller_works` of them run by the caller's own process; false when it
    has no workers. Use it as a context manager: on the way out, idle
    workers are ended by closing their pipes and busy ones are terminated.
    """

    def __init__(self, call, tasks: int, caller_works: bool = False):
        width = 0 if _in_worker else min(len(os.sched_getaffinity(0)), tasks)
        self.idle, self.busy = [], {}  # workers; conn -> (task, worker)
        try:
            for _ in range(width - caller_works):
                self.idle.append(start(call))
        except BaseException:
            self.close()
            raise

    def __len__(self):
        return len(self.idle) + len(self.busy)

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
        """Send (name, argument tuple) tasks to idle workers, the first ones
        now; return an iterator over their results in task order.

        A task that raises stops the tasks after it from being sent; once
        the busy workers have finished, its exception is raised, as running
        the tasks one after another in-process would. A worker that ends
        without a result, busy or when sent its next task, is a
        RuntimeError naming that task. Needs a worker; one imap at a time.
        """
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
