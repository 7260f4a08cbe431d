"""gradkit's one compute helper thread, and how work is handed to it.

``adam_step`` and ``score_loss`` cut large passes in two with ``in_halves``;
``backward`` submits the embedding's gradient product and joins it only where
that gradient is next needed. Each caller joins what it submitted before it
hands the helper more, so no call waits behind another. The helper runs each
call in a copy of its submitter's context, so numpy's error state
(``np.errstate``) holds on both threads.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence


class _Helper(ThreadPoolExecutor):
    """One worker thread that runs each call in its submitter's context."""

    def __init__(self) -> None:
        super().__init__(max_workers=1, thread_name_prefix="gradkit-helper")

    def submit(self, fn, /, *args, **kwargs) -> Future:
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


_helpers: dict[int, _Helper] = {}  # by process id: a forked child inherits no thread


def helper() -> ThreadPoolExecutor:
    """The one helper thread, created on first use."""
    pid = os.getpid()
    if pid not in _helpers:
        _helpers[pid] = _Helper()
    return _helpers[pid]


def drop(future: Future) -> None:
    """Cancel the call or wait it out, ignoring its value and its error."""
    if not future.cancel():
        wait((future,))


def in_halves(fn: Callable, first: Sequence, second: Sequence) -> tuple:
    """``(fn(*first), fn(*second))``: the second call on the helper thread
    while the caller makes the first.

    The caller's error comes first: it is raised once the helper's half has
    finished or been cancelled. Either half's value and error are those of
    the same call made serially.
    """
    later = helper().submit(fn, *second)
    try:
        done = fn(*first)
    except BaseException:
        drop(later)
        raise
    return done, later.result()
