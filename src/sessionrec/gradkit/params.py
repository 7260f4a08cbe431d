"""Named parameter storage, seeded initialization, and the Adam update rule."""

from __future__ import annotations

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
        t = Tensor(values, op=f"param:{name}")
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
    Every intermediate goes through two scratch buffers sized to the largest
    parameter, with each expression evaluated in its textbook order, so the
    update is bit-identical to the allocating formula and makes no
    parameter-sized temporaries.
    """
    largest = max((t.values.size for t in store.tensors()), default=0)
    scratch_a, scratch_b = np.empty(largest), np.empty(largest)
    for name in store.names():
        if name not in grads:
            continue
        g = np.ascontiguousarray(grads[name], dtype=np.float64)  # same layout as the moments
        p = store[name]
        if g.shape != p.values.shape:
            raise ShapeError(
                f"gradient shape {g.shape} does not match parameter {name} {p.values.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"gradient for {name} is not finite")
        if isinstance(lr, Mapping):
            group = store.group(name)
            try:
                step_lr = lr[group]
            except KeyError:
                raise ConfigError(f"no learning rate for group {group!r}") from None
        else:
            step_lr = lr
        t = store._steps[name] + 1
        store._steps[name] = t
        m = store._m[name]
        v = store._v[name]
        a = scratch_a[: g.size].reshape(g.shape)
        b = scratch_b[: g.size].reshape(g.shape)
        m *= beta1
        m += np.multiply(1.0 - beta1, g, out=a)       # m += (1 - beta1) * g
        v *= beta2
        np.multiply(1.0 - beta2, g, out=a)
        v += np.multiply(a, g, out=a)                 # v += (1 - beta2) * g * g
        np.divide(m, 1.0 - beta1**t, out=a)           # m_hat
        np.multiply(step_lr, a, out=a)                # step_lr * m_hat
        np.divide(v, 1.0 - beta2**t, out=b)           # v_hat
        np.sqrt(b, out=b)
        b += eps
        p.values -= np.divide(a, b, out=a)            # step_lr * m_hat / (sqrt(v_hat) + eps)
        if not np.all(np.isfinite(p.values)):
            raise NumericsError(f"parameter {name} went non-finite after update")
