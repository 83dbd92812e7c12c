"""Neural network module base classes.

Provides the ``Parameter`` / ``Module`` abstractions that every layer and
model in this repository builds on, mirroring the small subset of
``torch.nn.Module`` behaviour the paper's implementation relies on:
recursive parameter collection, train/eval mode, and state dictionaries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from ..autograd import Tensor
from ..backend import get_backend

__all__ = ["Parameter", "Module", "Sequential", "ModuleList"]


class Parameter(Tensor):
    """A tensor that is registered as a learnable module parameter."""

    def __init__(self, data, name: str | None = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class with recursive parameter/submodule registration.

    Subclasses assign ``Parameter`` and ``Module`` instances as attributes;
    registration happens automatically through ``__setattr__``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its submodules."""
        for _name, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules, depth-first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout etc.)."""
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Return host numpy copies of all parameters, keyed by dotted names.

        Always numpy — never backend-native tensors — so checkpoints,
        ``.npz`` bundles and store-scope hashes are identical regardless
        of the backend a model was trained on, and a state
        saved under one backend loads under any other.
        """
        backend = get_backend()
        return OrderedDict(
            (name, np.array(backend.to_numpy(param.data), copy=True))
            for name, param in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        backend = get_backend()
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, values in state.items():
            param = own[name]
            values = backend.asarray(values, dtype=param.data.dtype)
            if values.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: {values.shape} vs {param.shape}")
            backend.copyto(param.data, values)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}("]
        for name, module in self._modules.items():
            inner = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {inner}")
        lines.append(")")
        return "\n".join(lines) if self._modules else f"{type(self).__name__}()"


class Sequential(Module):
    """Chain modules, feeding each output into the next module."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self.layers = ModuleList(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """A list container that registers contained modules."""

    def __init__(self, modules=()) -> None:
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
