"""numpy's BLAS thread count, held at one thread around mvkmf's numpy work.

numpy and scipy wheels each bundle their own OpenBLAS, and each OpenBLAS
keeps its own thread pool. A process that calls both runs two pools on the
same cores, and the pool that just worked keeps spinning while the other
runs. mvkmf's numpy products are skinny and bound by memory traffic (n x n
times n x k, n x d times d x R*k), so numpy's extra threads mostly fight
the main thread; scipy's ``dsymv`` in the seed eigensolve does gain from its
threads, so scipy's pool is left alone.

``one_thread()`` sets numpy's count to 1 and restores the caller's count
on exit, on an exception too. It finds numpy's OpenBLAS only where a numpy
wheel bundles scipy-openblas (``numpy.libs/libscipy_openblas*`` on Linux and
Windows, ``numpy/.dylibs`` on macOS) and only as a library numpy has
already loaded; with any other BLAS it does nothing. The count is global to
the process: mvkmf starts no threads, and a caller that runs mvkmf on
several threads at once shares one count between them.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


class _Control(NamedTuple):
    get: Callable[[], int]  # numpy's current thread count
    set: Callable[[int], None]


@functools.cache
def _control() -> _Control | None:
    """The thread-count functions of numpy's bundled scipy-openblas, or None
    when numpy has no such library loaded."""
    root = Path(np.__file__).parent
    for lib in sorted([*root.parent.glob("numpy.libs/*scipy_openblas*"),
                       *root.glob(".dylibs/*scipy_openblas*")]):
        try:
            # RTLD_NOLOAD: the copy numpy loaded, never a second one
            handle = ctypes.CDLL(str(lib), mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        # the 64-bit-integer build suffixes its symbols with 64_
        for suffix in ("64_", ""):
            name = "scipy_openblas_{}_num_threads" + suffix
            try:
                get = getattr(handle, name.format("get"))
                set_ = getattr(handle, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return _Control(get, set_)
    return None


@contextmanager
def one_thread():
    """Run the body with numpy's BLAS on one thread, then restore the
    caller's count. Re-entrant; a no-op when the count cannot be set."""
    control = _control()
    before = 1 if control is None else control.get()
    if before == 1:
        yield
        return
    control.set(1)
    try:
        yield
    finally:
        control.set(before)
