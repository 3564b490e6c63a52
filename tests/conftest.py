"""Shared fixtures."""

import os

import pytest

from merlib import model as model_module


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail every test after which this process still has a child, running
    or a zombie: `merlib eval` must end every fold worker it forks."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test "
                f"({'still running' if pid == 0 else f'zombie pid {pid}'})")


@pytest.fixture
def writes_fail_half_way(monkeypatch):
    """Every file merlib.model opens takes half of the bytes written to it,
    then the write fails. Checkpoints, training logs, gradcheck tables, eval
    reports and manifests are all written through `model.write_atomic`, so
    each of those writes fails this way."""
    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            return False

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(model_module, "open",
                        lambda *a, **k: HalfWriter(real_open(*a, **k)),
                        raising=False)
