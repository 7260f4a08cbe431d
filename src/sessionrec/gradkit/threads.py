"""The one helper thread gradkit and training share, and how work is handed to it.

``adam_step`` and ``score_loss`` cut large passes in two with ``in_halves``;
``backward`` joins the embedding's gradient product, started as a
``Deferred``, only where that gradient is next needed; training writes its
checkpoints there. The helper runs each call in a copy of its submitter's
context, so numpy's error state (``np.errstate``) holds on both threads.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Sequence


class _Helper(ThreadPoolExecutor):
    """One worker thread that keeps its unfinished calls in submission order."""

    def __init__(self) -> None:
        super().__init__(max_workers=1, thread_name_prefix="gradkit-helper")
        self.calls: list[Future] = []

    def submit(self, fn, /, *args, **kwargs) -> Future:
        future = super().submit(contextvars.copy_context().run, fn, *args, **kwargs)
        self.calls = [call for call in self.calls if not call.done()] + [future]
        return future


_helpers: dict[int, _Helper] = {}  # by process id: a forked child inherits no thread


def helper() -> ThreadPoolExecutor:
    """The one helper thread, created on first use."""
    pid = os.getpid()
    if pid not in _helpers:
        _helpers[pid] = _Helper()
    return _helpers[pid]


class Deferred:
    """``fn(*args)`` started on the helper thread, to be joined with ``result``.

    If work submitted earlier (a checkpoint write, say) is still unfinished
    when the call is joined, the call has not started: it is taken back and
    made on the caller, so the caller never waits behind that work.
    """

    __slots__ = ("fn", "args", "ahead", "future")

    def __init__(self, fn: Callable, *args) -> None:
        pool = helper()
        self.fn, self.args = fn, args
        self.ahead = [call for call in pool.calls if not call.done()]
        self.future = pool.submit(fn, *args)

    def result(self):
        """The call's value; its error is raised here."""
        if not all(call.done() for call in self.ahead) and self.future.cancel():
            return self.fn(*self.args)  # still queued behind earlier work
        return self.future.result()

    def drop(self) -> None:
        """Cancel the call or wait it out, ignoring its value and its error."""
        if not self.future.cancel():
            wait((self.future,))


def in_halves(fn: Callable, first: Sequence, second: Sequence) -> tuple:
    """``(fn(*first), fn(*second))``: the second call on the helper thread
    while the caller makes the first.

    The caller's error comes first: it is raised once the helper's half has
    finished or been cancelled. Either half's value and error are those of
    the same call made serially.
    """
    later = Deferred(fn, *second)
    try:
        done = fn(*first)
    except BaseException:
        later.drop()
        raise
    return done, later.result()
