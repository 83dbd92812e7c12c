"""First-order optimisers operating on parameter lists.

The paper trains with Adam at an initial learning rate of 0.01 (§5.1.3);
SGD is provided for the ablation/benchmark suite and for tests.

Update rules execute through the active backend's ``sgd_step`` /
``adam_step`` composites, so a performance backend can run them fully in
place.
"""

from __future__ import annotations

import math
from typing import Iterable

from ..backend import get_backend
from ..nn.module import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimiser: holds parameters, exposes ``step``/``zero_grad``."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float, momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        backend = get_backend()
        self._velocity = [backend.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        backend = get_backend()
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            backend.sgd_step(param.data, param.grad, velocity, self.lr, self.momentum)


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction, at that paper's
    moment decays ``(0.9, 0.999)`` and ``eps = 1e-8``."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-2,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.weight_decay = weight_decay
        self._step_count = 0
        backend = get_backend()
        self._m = [backend.zeros_like(p.data) for p in self.parameters]
        self._v = [backend.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        backend = get_backend()
        beta1, beta2 = 0.9, 0.999
        self._step_count += 1
        correction1 = 1.0 - beta1 ** self._step_count
        correction2 = 1.0 - beta2 ** self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            backend.adam_step(
                param.data,
                param.grad,
                m,
                v,
                self.lr,
                beta1,
                beta2,
                1e-8,
                correction1,
                correction2,
                self.weight_decay,
            )


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip the global L2 norm of all gradients to ``max_norm``.

    Returns the pre-clipping norm (useful for logging).
    """
    backend = get_backend()
    params = [p for p in parameters if p.grad is not None]
    total = math.sqrt(sum(backend.grad_norm_squared(p.grad) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in params:
            backend.scale_inplace(param.grad, scale)
    return total
