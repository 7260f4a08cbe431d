"""Named parameter storage, seeded initialization, and the Adam update rule."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from ..errors import ConfigError, NumericsError, ShapeError
from .tensor import Array, Tensor

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
        self._m[name] = np.zeros_like(t.values)
        self._v[name] = np.zeros_like(t.values)
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
# 2 MB per-core L2 cache through all 14 passes. One step over the 2.3M values
# of the paper-default store (V=13,611, d=100, H=8) on a 2-vCPU Xeon host
# took 47-52 ms (median of 15) with one whole-array sweep per pass; in blocks
# of 2K values 50-55 ms, 8K 32-35 ms, 16K-32K 25-34 ms, 64K 27-41 ms and
# 128K 36-40 ms.
ADAM_BLOCK = 1 << 15


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
    Every gradient's name, shape, finiteness and learning-rate group is
    checked before any parameter changes, so a rejected step leaves the store
    as it was. Each parameter is updated in blocks of ``ADAM_BLOCK`` values
    through two block-sized scratch buffers, with each expression evaluated in
    its textbook order, so the update is bit-identical to the allocating
    formula and makes no parameter-sized temporaries.
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
        updates.append((name, g.reshape(-1), step_lr))

    scratch_a, scratch_b = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    for name, g_all, step_lr in updates:
        t = store._steps[name] + 1
        store._steps[name] = t
        # Views: ParamStore keeps values and moments C-contiguous.
        p_all = store[name].values.reshape(-1)
        m_all = store._m[name].reshape(-1)
        v_all = store._v[name].reshape(-1)
        m_scale, v_scale = 1.0 - beta1**t, 1.0 - beta2**t
        for lo in range(0, g_all.size, ADAM_BLOCK):
            block = slice(lo, lo + ADAM_BLOCK)
            p, g, m, v = p_all[block], g_all[block], m_all[block], v_all[block]
            a, b = scratch_a[: g.size], scratch_b[: g.size]
            m *= beta1
            m += np.multiply(1.0 - beta1, g, out=a)       # m += (1 - beta1) * g
            v *= beta2
            np.multiply(1.0 - beta2, g, out=a)
            v += np.multiply(a, g, out=a)                 # v += (1 - beta2) * g * g
            np.divide(m, m_scale, out=a)                  # m_hat
            np.multiply(step_lr, a, out=a)                # step_lr * m_hat
            np.divide(v, v_scale, out=b)                  # v_hat
            np.sqrt(b, out=b)
            b += eps
            p -= np.divide(a, b, out=a)                   # step_lr * m_hat / (sqrt(v_hat) + eps)
            if not math.isfinite(np.add.reduce(p)):
                raise NumericsError(f"parameter {name} went non-finite after update")
