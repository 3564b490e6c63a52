"""Shared fixtures."""

import pytest

from merlib import model as model_module


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
