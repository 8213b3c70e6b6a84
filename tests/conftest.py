"""Test seams shared by the comedian's and the depth kernel's tests."""

import threading
from contextlib import contextmanager

import pytest

from rmdshrink import primitives


@contextmanager
def helper_threads(kernel, workers, block_floats=None, fail=None):
    """Run ``kernel`` with ``workers`` workers; yields the list of helper threads it starts.

    ``kernel`` is the module whose ``_fill`` the thread runner calls:
    ``primitives`` for the comedian's tiles, ``depth`` for the depth
    kernel's blocks. With ``block_floats``, that module's ``_BLOCK_FLOATS``
    is patched. A helper is a thread other than the caller's that fills; it
    is listed once per fill. With ``fail``, each helper raises that
    exception in place of filling.
    """
    fill = kernel._fill
    caller = threading.current_thread()
    helpers = []

    def recorded_fill(*args):
        if threading.current_thread() is not caller:
            helpers.append(threading.current_thread())
            if fail is not None:
                raise fail
        fill(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primitives, "_WORKERS", workers)
        if block_floats is not None:
            mp.setattr(kernel, "_BLOCK_FLOATS", block_floats)
        mp.setattr(kernel, "_fill", recorded_fill)
        yield helpers
