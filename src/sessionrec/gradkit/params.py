"""Named parameter storage, seeded initialization, and the Adam update rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import ConfigError, NumericsError, ShapeError
from .tensor import Array, Tensor
from .threads import in_halves

GROUPS = ("intra_shared", "inter")


@dataclass(frozen=True)
class ParamSpec:
    """Name, shape, and learning-rate group of one parameter tensor."""

    name: str
    shape: tuple[int, ...]
    group: str


class ParamStore:
    """Ordered collection of leaf tensors with per-parameter Adam state.

    Parameters belong to one of two learning-rate groups so the trainer can
    decay them on different schedules. Insertion order is the canonical order
    everywhere (initialization, updates, serialization), which keeps runs
    bit-reproducible.
    """

    def __init__(self) -> None:
        self._params: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}
        self._m: dict[str, Array] = {}
        self._v: dict[str, Array] = {}
        self._steps: dict[str, int] = {}

    def add(self, name: str, values, group: str) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name: {name}")
        if group not in GROUPS:
            raise ConfigError(f"unknown parameter group: {group!r}")
        # C order, so the optimizer can update flat views of values and moments.
        t = Tensor(np.require(values, np.float64, "C"), op=f"param:{name}")
        self._params[name] = t
        self._groups[name] = group
        # untouched pages until adam_step writes them: a store that only predicts never fills them
        self._m[name] = np.zeros(t.values.shape)
        self._v[name] = np.zeros(t.values.shape)
        self._steps[name] = 0
        return t

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise ConfigError(f"unknown parameter: {name}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def items(self) -> Iterable[tuple[str, Tensor]]:
        return self._params.items()

    def group(self, name: str) -> str:
        return self._groups[name]

    def step_count(self, name: str) -> int:
        return self._steps[name]

    def values(self) -> dict[str, Array]:
        """Copies of all parameter arrays, in canonical order."""
        return {name: t.values.copy() for name, t in self._params.items()}


def init_params(specs: Sequence[ParamSpec], seed: int) -> ParamStore:
    """Draw every parameter from N(0, 0.1) with one seeded generator.

    The same spec list and seed always produce bit-identical stores; parameter
    order follows the spec list.
    """
    rng = np.random.default_rng(seed)
    store = ParamStore()
    for spec in specs:
        store.add(spec.name, rng.normal(0.0, 0.1, spec.shape), spec.group)
    return store


# Adam sweeps each parameter in blocks of ADAM_BLOCK values and runs every
# step of the update on one block before it starts the next, so the block's
# slices of p, g, m, v and the two scratch buffers (6 x 256 KB) stay in a
# 2 MB per-core L2 cache through all 12 passes and the NaN/Inf screen. A step
# of ADAM_SPLIT_MIN values or more is split between the caller and the helper
# thread. One step over the 2.3M values of the paper-default store
# (V=13,611, d=100, H=8) on a 2-vCPU Xeon host, min of 31 in six rounds, took
# 16.8-22.4 ms on one thread in blocks of 32K; split, in blocks of 8K
# 19.2-26.2 ms, 16K 13.6-16.9 ms, 32K 10.9-14.2 ms, 64K 10.7-14.1 ms and 128K
# 13.1-14.8 ms. Below about eight blocks a split step read no faster, and on
# test-sized stores of 15-30K values in 18 tensors it read 2.3x slower: the
# hand-off and the GIL cost more than the second thread saves.
ADAM_BLOCK = 1 << 15
ADAM_SPLIT_MIN = 8 * ADAM_BLOCK

def _adam_blocks(blocks: list, beta1: float, beta2: float) -> Optional[str]:
    """Update each (name, lr_t, eps_t, p, g, m, v) block in order through two
    scratch buffers of its own; the name of the first block that goes
    non-finite, where the run stops, or None."""
    scratch_a, scratch_b = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name, lr_t, eps_t, p, g, m, v in blocks:
        a, b = scratch_a[: g.size], scratch_b[: g.size]
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)       # m += (1 - beta1) * g
        v *= beta2
        np.multiply(1.0 - beta2, g, out=a)
        v += np.multiply(a, g, out=a)                 # v += (1 - beta2) * g * g
        np.multiply(lr_t, m, out=a)                   # lr_t * m
        np.sqrt(v, out=b)
        b += eps_t
        p -= np.divide(a, b, out=a)                   # lr_t * m / (sqrt(v) + eps_t)
        if not math.isfinite(np.add.reduce(p)):
            return name
    return None


def adam_step(
    store: ParamStore,
    grads: Mapping[str, Array],
    lr: Union[float, Mapping[str, float]],
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update for every parameter with a gradient.

    ``lr`` is either one float or a mapping from group name to learning rate.
    Parameters absent from ``grads`` keep their moments and step counters, so
    bias correction stays per-parameter correct when updates are sparse.
    Every gradient's name, shape, finiteness and learning rate (a finite
    positive number for its group) is checked before any parameter changes,
    so a rejected step leaves the store as it was. Each parameter is updated
    in blocks of ``ADAM_BLOCK`` values through two block-sized scratch
    buffers, so the update makes no parameter-sized temporaries. A step of
    ``ADAM_SPLIT_MIN`` values or more cuts its blocks, in canonical order, in
    two at their value midpoint: the caller updates the first half and the
    helper thread the second (``threads.in_halves``), and the caller waits
    for the helper before it returns or raises. Each block is updated as a
    serial run would update it, so the split changes no bit. The update is
    Kingma & Ba's efficient form, ``p -= lr_t * m / (sqrt(v) + eps_t)`` with
    ``lr_t = lr * sqrt(1 - beta2**t) / (1 - beta1**t)`` and
    ``eps_t = eps * sqrt(1 - beta2**t)``: the textbook update up to rounding,
    bit-identical to those expressions evaluated as written. A block that
    goes non-finite raises ``NumericsError`` naming the first such parameter
    in canonical order.
    """
    for name in grads:
        if name not in store:
            raise ConfigError(f"gradient for unknown parameter: {name}")
    updates = []
    for name in store.names():
        if name not in grads:
            continue
        g = np.ascontiguousarray(grads[name], dtype=np.float64)  # same layout as the moments
        shape = store[name].shape
        if g.shape != shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {name} {shape}")
        if not math.isfinite(np.add.reduce(g, axis=None)):
            raise NumericsError(f"gradient for {name} is not finite")
        if isinstance(lr, Mapping):
            group = store.group(name)
            try:
                step_lr = lr[group]
            except KeyError:
                raise ConfigError(f"no learning rate for group {group!r}") from None
        else:
            step_lr = lr
        if isinstance(step_lr, bool) or not (isinstance(step_lr, Real) and 0 < step_lr < math.inf):
            raise ConfigError(f"learning rate for {name} must be positive and finite, got {step_lr!r}")
        updates.append((name, g.reshape(-1), step_lr))

    blocks = []
    for name, g_all, step_lr in updates:
        t = store._steps[name] + 1
        store._steps[name] = t
        # Views: ParamStore keeps values and moments C-contiguous.
        p_all = store[name].values.reshape(-1)
        m_all = store._m[name].reshape(-1)
        v_all = store._v[name].reshape(-1)
        # both bias corrections folded into two scalars, so no value is divided by them
        root_v_scale = math.sqrt(1.0 - beta2**t)
        lr_t = step_lr * root_v_scale / (1.0 - beta1**t)
        eps_t = eps * root_v_scale
        for lo in range(0, g_all.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            blocks.append((name, lr_t, eps_t, p_all[block], g_all[block], m_all[block], v_all[block]))

    cut = len(blocks)
    ends = np.cumsum([b[4].size for b in blocks])
    if cut and ends[-1] >= ADAM_SPLIT_MIN:
        cut = int(np.searchsorted(ends, ends[-1] / 2)) + 1  # up to the block holding the midpoint
    if cut < len(blocks):
        halves = in_halves(_adam_blocks, (blocks[:cut], beta1, beta2), (blocks[cut:], beta1, beta2))
        bad = halves[0] or halves[1]
    else:
        bad = _adam_blocks(blocks, beta1, beta2)
    if bad is not None:
        raise NumericsError(f"parameter {bad} went non-finite after update")
