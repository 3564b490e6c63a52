"""Micro-expression recognition toolkit: attention residual networks on a
small numpy autodiff core, plus the training and evaluation protocols that
go with them.

Importing the package sets glibc's allocator to keep freed memory (see
`_keep_freed_memory`), for the CLI and library callers alike."""

import ctypes
import platform

from .tensor import Tensor, Tape  # noqa: F401

__version__ = "0.1.0"

# glibc's mallopt(3) parameter numbers, from <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Make glibc keep freed memory for reuse instead of returning it to the
    kernel, so a training step or forward pass reuses the previous one's
    pages and pays no first-touch page faults for its activations and
    gradients.

    By default glibc maps a large block (a batch-50 activation is 3.2 MB)
    on its own and unmaps it on free, and trims the heap's top once a few
    of them are free, so each pass's peak goes back to the kernel. Now
    blocks under 32 MiB (glibc's cap on the mmap threshold) come from the
    heap, and the heap is trimmed only past 1 GiB free. Both are set
    because setting either turns off glibc's dynamic mmap threshold, which
    would leave it at 128 KiB. The setting is process-wide, forked workers
    inherit it, and it changes no arithmetic. It does nothing on another
    libc or without mallopt. Runs once, when the package is imported.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()
