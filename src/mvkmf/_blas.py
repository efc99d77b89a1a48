"""The two OpenBLAS thread pools mvkmf runs in: numpy's, held at one thread
around mvkmf's numpy work, and scipy's, released after each solve.

numpy and scipy wheels each bundle their own OpenBLAS, and each OpenBLAS
keeps its own thread pool. A process that calls both runs two pools on the
same cores. After a threaded call, a pool's workers busy-wait for their next
task for about 0.1 s, on a core the other pool or the main thread needs.

- numpy's pool. mvkmf's numpy products are skinny and bound by memory
  traffic (n x n times n x k, R*k x d times d x n), so numpy's extra threads
  mostly fight the main thread. ``one_thread()`` sets numpy's count to 1 and
  restores the caller's count on exit, on an exception too.
- scipy's pool. The start's eigensolve runs its products in scipy's BLAS
  (``dsymv``), which does gain from its threads, and its workers spin
  between products, which is what keeps them fast. So scipy's count is left
  as the process set it: a count of 1 slows the solve, and setting it to 1
  after the solve does not stop the workers. ``released()`` instead stops
  them (OpenBLAS's ``blas_thread_shutdown_``) on exit, on an exception
  too. OpenBLAS starts them again, at the same count, at its next threaded
  call, so a solve keeps its threads and its bits and no worker spins
  through the rest of a fit.

Each control is found only where the wheel bundles scipy-openblas
(``numpy.libs/*scipy_openblas*`` or ``scipy.libs/*scipy_openblas*`` on
Linux and Windows, ``numpy/.dylibs`` or ``scipy/.dylibs`` on macOS) and only
as a library the package has already loaded; with any other BLAS it does
nothing. Both act on the whole process: mvkmf starts no threads, a caller
that runs mvkmf on several threads at once shares numpy's count between
them, and a release stops the workers of every caller of scipy's BLAS, so
a caller that runs scipy's BLAS on another thread at the same time must not
rely on it.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg.blas  # loads scipy's OpenBLAS, which _release looks for


class _Control(NamedTuple):
    get: Callable[[], int]  # numpy's current thread count
    set: Callable[[int], None]


def _bundled(package: ModuleType) -> list[ctypes.CDLL]:
    """The scipy-openblas libraries that ``package``'s wheel bundles and
    that are already loaded."""
    root = Path(package.__file__).parent
    handles = []
    for lib in sorted([*root.parent.glob(f"{root.name}.libs/*scipy_openblas*"),
                       *root.glob(".dylibs/*scipy_openblas*")]):
        try:
            # RTLD_NOLOAD: the copy the package loaded, never a second one
            handles.append(ctypes.CDLL(str(lib),
                                       mode=getattr(os, "RTLD_NOLOAD", 0)))
        except OSError:
            continue
    return handles


@functools.cache
def _control() -> _Control | None:
    """The thread-count functions of numpy's bundled scipy-openblas, or None
    when numpy has no such library loaded."""
    for handle in _bundled(np):
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


@functools.cache
def _release() -> Callable[[], int] | None:
    """``blas_thread_shutdown_`` of scipy's bundled scipy-openblas, which
    stops that pool's workers, or None when scipy has no such library
    loaded."""
    for handle in _bundled(scipy):
        try:
            shutdown = handle.blas_thread_shutdown_
        except AttributeError:
            continue
        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
        return shutdown
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


@contextmanager
def released():
    """Run the body, then stop scipy's BLAS workers, on a raise too. The
    count is kept; a no-op when scipy's pool cannot be released."""
    try:
        yield
    finally:
        release = _release()
        if release is not None:
            release()
