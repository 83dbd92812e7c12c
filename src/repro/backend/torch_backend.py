"""Torch accelerator backend: the ArrayBackend protocol on ``torch.Tensor``.

Second registered backend (after ``numpy_ref``), and the first whose
arrays are not numpy — it proves the protocol against a second
tensor library and unlocks vectorised-CPU / GPU execution for the whole
substrate (``autograd``, ``nn``, ``optim``, the engine and serving run
unchanged on top of it).

Design decisions
----------------
* **Own autograd, not torch's.**  The repository's reverse-mode tape
  (:mod:`repro.autograd.tensor`) drives every backward pass; torch tensors
  here are raw storage + kernels.  ``requires_grad`` is never set and no
  torch graph is ever built.
* **float64 by default** so the parity suite can hold the backend to tight
  tolerance against ``numpy_ref``; ``float32`` is an explicit opt-in
  (constructor / ``STSMConfig.dtype`` / ``REPRO_TORCH_DTYPE``) that trades
  parity for speed and memory.
* **Device selection**: constructor argument, else ``REPRO_TORCH_DEVICE``,
  else ``cuda`` when available, else ``cpu``.
* **Deterministic RNG by construction**: ``default_rng`` returns a *numpy*
  ``Generator`` and every draw happens host-side before transfer, so seeds
  produce bit-identical draw sequences (and therefore identical masks,
  dropout patterns and initialisations) across all registered backends —
  torch's own RNG is never consulted.
* **Zero-copy bridging on CPU**: ``torch.from_numpy`` /
  ``Tensor.numpy()`` share memory at the numpy↔torch boundary, so the
  host-side data pipeline feeds tensors without copies; CUDA pays the
  expected transfer at the same two seams.
* **numpy dtype-promotion semantics**: torch promotes ``int64 * 0.5`` to
  its *default* dtype (float32); numpy promotes to float64.  Binary ops
  here upcast integer/bool tensors to float64 when combined with a Python
  float, so backend-agnostic code keeps numpy semantics.

This module imports ``torch`` at module level and must only be imported
through the registry's lazy factory — ``import repro.backend`` works on
machines without torch installed.
"""

from __future__ import annotations

import os
from typing import Sequence

import numpy as np

try:
    import torch
    import torch.nn.functional as F
except ImportError as error:  # pragma: no cover - exercised without torch
    raise ImportError(
        "the 'torch' backend requires PyTorch "
        "(pip install torch --index-url https://download.pytorch.org/whl/cpu)"
    ) from error

from .base import ArrayBackend

__all__ = ["TorchBackend"]

ENV_DEVICE = "REPRO_TORCH_DEVICE"
ENV_DTYPE = "REPRO_TORCH_DTYPE"

_FLOAT_DTYPES = {"float64": torch.float64, "float32": torch.float32}

#: numpy <-> torch dtype bridge for the dtypes the substrate uses.
_TORCH_FROM_NUMPY = {
    np.dtype(np.float64): torch.float64,
    np.dtype(np.float32): torch.float32,
    np.dtype(np.int64): torch.int64,
    np.dtype(np.int32): torch.int32,
    np.dtype(np.bool_): torch.bool,
}
_NUMPY_FROM_TORCH = {t: n for n, t in _TORCH_FROM_NUMPY.items()}


def _is_basic_index(index) -> bool:
    """True when ``index`` contains no integer/bool arrays (no duplicates)."""
    if isinstance(index, tuple):
        return all(_is_basic_index(part) for part in index)
    return isinstance(index, (int, np.integer, slice, type(None), type(Ellipsis)))


class TorchBackend(ArrayBackend):
    """:class:`ArrayBackend` on ``torch.Tensor`` (see module docstring)."""

    name = "torch"

    #: Cache of configured instances keyed by (device, dtype) so repeated
    #: ``resolve_backend("torch", ...)`` calls share kernels and state.
    _configured: dict[tuple[str, str], "TorchBackend"] = {}

    def __init__(self, device: str | None = None, dtype: str | None = None) -> None:
        if device is None:
            device = os.environ.get(ENV_DEVICE)
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self.device = torch.device(device)
        if dtype is None:
            dtype = os.environ.get(ENV_DTYPE, "float64")
        if dtype not in _FLOAT_DTYPES:
            raise ValueError(
                f"unknown torch backend dtype {dtype!r}; use 'float64' or 'float32'"
            )
        self.dtype = _FLOAT_DTYPES[dtype]

    def configured(self, device: str | None = None, dtype: str | None = None) -> "TorchBackend":
        if device is None and dtype is None:
            return self
        key = (
            device if device is not None else str(self.device),
            dtype if dtype is not None else str(self.dtype).removeprefix("torch."),
        )
        backend = self._configured.get(key)
        if backend is None:
            backend = TorchBackend(device=key[0], dtype=key[1])
            self._configured[key] = backend
        return backend

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ArrayBackend 'torch' device={self.device} dtype={self.dtype}>"

    # ------------------------------------------------------------------
    # Conversion plumbing
    # ------------------------------------------------------------------
    def _torch_dtype(self, dtype) -> torch.dtype | None:
        if dtype is None or isinstance(dtype, torch.dtype):
            return dtype
        if dtype is bool:
            return torch.bool
        return _TORCH_FROM_NUMPY[np.dtype(dtype)]

    def _from_host(self, arr: np.ndarray) -> torch.Tensor:
        """Host numpy array -> device tensor (zero-copy on CPU)."""
        if not arr.flags.writeable:
            # from_numpy would alias read-only memory (and warn); the
            # substrate mutates some buffers in place, so copy instead.
            arr = arr.copy()
        try:
            t = torch.from_numpy(arr)
        except (TypeError, ValueError):
            t = torch.from_numpy(np.ascontiguousarray(arr))
        return t if self.device.type == "cpu" else t.to(self.device)

    def _tensorize(self, data) -> torch.Tensor:
        """Any array-like -> tensor on this backend's device.

        Routes non-tensor input through numpy so Python scalars and
        nested lists get numpy's dtype rules (float lists become float64,
        not torch's float32 default).
        """
        if isinstance(data, torch.Tensor):
            return data if data.device == self.device else data.to(self.device)
        return self._from_host(np.asarray(data))

    @staticmethod
    def _match_numpy_promotion(a, b):
        """Upcast int/bool tensors paired with a Python float to float64.

        numpy promotes ``int64_array * 0.5`` to float64; torch would use
        its global default dtype (float32) instead.
        """

        def _needs(tensor, other) -> bool:
            return (
                isinstance(tensor, torch.Tensor)
                and not tensor.dtype.is_floating_point
                and tensor.dtype is not torch.complex64
                and isinstance(other, float)
            )

        if _needs(a, b):
            a = a.to(torch.float64)
        if _needs(b, a):
            b = b.to(torch.float64)
        return a, b

    def _pair(self, a, b):
        """Prepare two operands for a binary op (scalars stay scalar)."""
        if isinstance(a, np.ndarray):
            a = self._from_host(a)
        if isinstance(b, np.ndarray):
            b = self._from_host(b)
        return self._match_numpy_promotion(a, b)

    def _pair_tensor(self, a, b):
        """Like :meth:`_pair` but guarantees both sides are tensors
        (for torch functions that reject Python scalars)."""
        a, b = self._pair(a, b)
        if not isinstance(a, torch.Tensor) and not isinstance(b, torch.Tensor):
            a = self._from_host(np.asarray(a))
        if not isinstance(a, torch.Tensor):
            a = torch.as_tensor(a, dtype=b.dtype if b.dtype.is_floating_point or not isinstance(a, float) else torch.float64, device=b.device)
        if not isinstance(b, torch.Tensor):
            b = torch.as_tensor(b, dtype=a.dtype if a.dtype.is_floating_point or not isinstance(b, float) else torch.float64, device=a.device)
        return a, b

    # ------------------------------------------------------------------
    # Creation / conversion
    # ------------------------------------------------------------------
    def asarray(self, data, dtype=None):
        target = self._torch_dtype(dtype)
        if isinstance(data, torch.Tensor):
            out = data if target is None or data.dtype == target else data.to(target)
            return out if out.device == self.device else out.to(self.device)
        if target is None:
            return self._from_host(np.asarray(data))
        return self._from_host(np.asarray(data, dtype=_NUMPY_FROM_TORCH[target]))

    def to_float_array(self, data):
        t = self.asarray(data)
        if t.dtype == self.dtype:
            return t
        if t.dtype == torch.float32 and self.dtype == torch.float64:
            # Mirror numpy_ref: float32 data is preserved, not widened.
            return t
        return t.to(self.dtype)

    def to_numpy(self, a):
        if isinstance(a, torch.Tensor):
            return a.detach().cpu().numpy()
        return np.asarray(a)

    def copy(self, a):
        return self._tensorize(a).clone()

    def copy_cast(self, a, dtype):
        return self._tensorize(a).to(self._torch_dtype(dtype), copy=True)

    def copyto(self, dst, src) -> None:
        dst.copy_(self._tensorize(src))

    def cast(self, a, dtype):
        # numpy's astype copies unconditionally; keep that so casts of
        # broadcast views never alias writable gradient buffers.
        return self._tensorize(a).to(self._torch_dtype(dtype), copy=True)

    def zeros(self, shape, dtype=None):
        return torch.zeros(shape, dtype=self._torch_dtype(dtype) or self.dtype, device=self.device)

    def zeros_like(self, a):
        return torch.zeros_like(a)

    def ones(self, shape, dtype=None):
        return torch.ones(shape, dtype=self._torch_dtype(dtype) or self.dtype, device=self.device)

    def ones_like(self, a):
        return torch.ones_like(a)

    def empty_like(self, a):
        return torch.empty_like(a)

    def arange(self, start, stop=None, step=1):
        # numpy decides the dtype (int64 for int args, float64 for float
        # args); torch.arange would pick float32 for float args.
        if stop is None:
            return self._from_host(np.arange(start))
        return self._from_host(np.arange(start, stop, step))

    def eye(self, n, dtype=None):
        return torch.eye(n, dtype=self._torch_dtype(dtype) or self.dtype, device=self.device)

    # ------------------------------------------------------------------
    # Elementwise (Python operators handle scalar-first and broadcasting)
    # ------------------------------------------------------------------
    def add(self, a, b, out=None):
        a, b = self._pair(a, b)
        if out is not None:
            a, b = self._pair_tensor(a, b)
            return torch.add(a, b, out=out)
        return a + b

    def subtract(self, a, b, out=None):
        a, b = self._pair(a, b)
        if out is not None:
            a, b = self._pair_tensor(a, b)
            return torch.subtract(a, b, out=out)
        return a - b

    def multiply(self, a, b, out=None):
        a, b = self._pair(a, b)
        if out is not None:
            a, b = self._pair_tensor(a, b)
            return torch.multiply(a, b, out=out)
        return a * b

    def divide(self, a, b, out=None):
        a, b = self._pair(a, b)
        if out is not None:
            a, b = self._pair_tensor(a, b)
            return torch.divide(a, b, out=out)
        return a / b

    def power(self, a, exponent):
        return self._tensorize(a) ** exponent

    def maximum(self, a, b):
        return torch.maximum(*self._pair_tensor(a, b))

    def minimum(self, a, b):
        return torch.minimum(*self._pair_tensor(a, b))

    def iadd(self, a, b):
        a += b
        return a

    def isub(self, a, b):
        a -= b
        return a

    def imul(self, a, b):
        a *= b
        return a

    def negative(self, a, out=None):
        return torch.neg(self._tensorize(a), out=out) if out is not None else -self._tensorize(a)

    def exp(self, a, out=None):
        return torch.exp(self._tensorize(a), out=out) if out is not None else torch.exp(self._tensorize(a))

    def log(self, a, out=None):
        return torch.log(self._tensorize(a), out=out) if out is not None else torch.log(self._tensorize(a))

    def log1p(self, a, out=None):
        return torch.log1p(self._tensorize(a), out=out) if out is not None else torch.log1p(self._tensorize(a))

    def sqrt(self, a, out=None):
        return torch.sqrt(self._tensorize(a), out=out) if out is not None else torch.sqrt(self._tensorize(a))

    def abs(self, a, out=None):
        return torch.abs(self._tensorize(a), out=out) if out is not None else torch.abs(self._tensorize(a))

    def sign(self, a):
        return torch.sign(self._tensorize(a))

    def tanh(self, a, out=None):
        return torch.tanh(self._tensorize(a), out=out) if out is not None else torch.tanh(self._tensorize(a))

    def sin(self, a):
        return torch.sin(self._tensorize(a))

    def cos(self, a):
        return torch.cos(self._tensorize(a))

    def clip(self, a, low, high, out=None):
        t = self._tensorize(a)
        if out is not None:
            return torch.clamp(t, min=low, max=high, out=out)
        return torch.clamp(t, min=low, max=high)

    def where(self, condition, a, b):
        cond = self._tensorize(condition)
        if cond.dtype != torch.bool:
            cond = cond.to(torch.bool)
        a, b = self._pair(a, b)
        if not isinstance(a, torch.Tensor) and not isinstance(b, torch.Tensor):
            # Two scalar branches (e.g. the GAT mask's (0.0, -1e9)):
            # numpy would produce float64, torch would use float32.
            dtype = torch.float64 if isinstance(a, float) or isinstance(b, float) else torch.int64
            a = torch.as_tensor(a, dtype=dtype, device=cond.device)
        if not isinstance(a, torch.Tensor):
            a = torch.as_tensor(a, dtype=b.dtype, device=b.device)
        if not isinstance(b, torch.Tensor):
            b = torch.as_tensor(b, dtype=a.dtype, device=a.device)
        return torch.where(cond, a, b)

    def greater(self, a, b):
        a, b = self._pair(a, b)
        return a > b

    def greater_equal(self, a, b):
        a, b = self._pair(a, b)
        return a >= b

    def less_equal(self, a, b):
        a, b = self._pair(a, b)
        return a <= b

    def equal(self, a, b):
        a, b = self._pair(a, b)
        return a == b

    def logical_or(self, a, b):
        return torch.logical_or(*self._pair_tensor(a, b))

    def logical_and(self, a, b):
        return torch.logical_and(*self._pair_tensor(a, b))

    def logical_not(self, a):
        return torch.logical_not(self._tensorize(a))

    def isfinite(self, a):
        return torch.isfinite(self._tensorize(a))

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, a, b):
        return self._tensorize(a) @ self._tensorize(b)

    def einsum(self, subscripts: str, *operands):
        return torch.einsum(subscripts, *[self._tensorize(op) for op in operands])

    # ------------------------------------------------------------------
    # Reductions (numpy's axis=None / tuple-axis / keepdims semantics)
    # ------------------------------------------------------------------
    def _reduce(self, fn, a, axis, keepdims):
        t = self._tensorize(a)
        if axis is None:
            if not keepdims or t.ndim == 0:
                return fn(t)
            axis = tuple(range(t.ndim))
        return fn(t, axis, keepdims)

    def sum(self, a, axis=None, keepdims: bool = False):
        return self._reduce(
            lambda t, dim=None, keep=False: t.sum() if dim is None else t.sum(dim=dim, keepdim=keep),
            a, axis, keepdims,
        )

    def amax(self, a, axis=None, keepdims: bool = False):
        return self._reduce(
            lambda t, dim=None, keep=False: t.amax() if dim is None else t.amax(dim=dim, keepdim=keep),
            a, axis, keepdims,
        )

    def amin(self, a, axis=None, keepdims: bool = False):
        return self._reduce(
            lambda t, dim=None, keep=False: t.amin() if dim is None else t.amin(dim=dim, keepdim=keep),
            a, axis, keepdims,
        )

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    def reshape(self, a, shape):
        return self._tensorize(a).reshape(shape)

    def transpose(self, a, axes=None):
        t = self._tensorize(a)
        if axes is None:
            axes = tuple(reversed(range(t.ndim)))
        return t.permute(tuple(int(axis) for axis in axes))

    def swapaxes(self, a, axis1: int, axis2: int):
        return torch.transpose(self._tensorize(a), axis1, axis2)

    def expand_dims(self, a, axis):
        t = self._tensorize(a)
        axes = (axis,) if isinstance(axis, (int, np.integer)) else tuple(axis)
        out_ndim = t.ndim + len(axes)
        for ax in sorted(int(ax) % out_ndim for ax in axes):
            t = t.unsqueeze(ax)
        return t

    def squeeze(self, a, axis=None):
        t = self._tensorize(a)
        if axis is None:
            return t.squeeze()
        axes = (axis,) if isinstance(axis, (int, np.integer)) else tuple(axis)
        for ax in sorted((int(ax) % t.ndim for ax in axes), reverse=True):
            t = t.squeeze(ax)
        return t

    def broadcast_to(self, a, shape):
        return self._tensorize(a).expand(tuple(int(n) for n in shape))

    def concatenate(self, arrays: Sequence, axis: int = 0):
        return torch.cat([self._tensorize(a) for a in arrays], dim=axis)

    def stack(self, arrays: Sequence, axis: int = 0):
        return torch.stack([self._tensorize(a) for a in arrays], dim=axis)

    def split(self, a, sections: int, axis: int = 0):
        t = self._tensorize(a)
        length = t.shape[axis]
        if length % sections:
            raise ValueError(
                f"array split does not result in an equal division ({length} into {sections})"
            )
        return list(torch.split(t, length // sections, dim=axis))

    def pad(self, a, pad_width, constant: float = 0.0):
        t = self._tensorize(a)
        pairs = self._normalise_pad(pad_width, t.ndim)
        flat: list[int] = []
        for before, after in reversed(pairs):
            flat.extend((int(before), int(after)))
        return F.pad(t, flat, mode="constant", value=constant)

    @staticmethod
    def _normalise_pad(pad_width, ndim: int) -> list[tuple[int, int]]:
        """numpy ``pad_width`` forms -> explicit per-dim (before, after)."""
        if isinstance(pad_width, (int, np.integer)):
            return [(int(pad_width), int(pad_width))] * ndim
        pad_width = list(pad_width)
        if pad_width and isinstance(pad_width[0], (int, np.integer)):
            before, after = pad_width  # a single (before, after) pair
            return [(int(before), int(after))] * ndim
        return [(int(before), int(after)) for before, after in pad_width]

    # ------------------------------------------------------------------
    # Indexing / scatter
    # ------------------------------------------------------------------
    def _convert_index(self, index):
        """Map numpy arrays inside an index expression to device tensors."""
        if isinstance(index, tuple):
            return tuple(self._convert_index(part) for part in index)
        if isinstance(index, np.ndarray):
            t = self._from_host(index)
            if t.dtype not in (torch.bool, torch.int64):
                t = t.to(torch.int64)
            return t
        return index

    def getitem(self, a, index):
        return self._tensorize(a)[self._convert_index(index)]

    def scatter_add(self, target, index, values) -> None:
        values = self._tensorize(values)
        if _is_basic_index(index):
            # Basic slicing cannot alias elements, so a strided += is exact.
            target[index] += values
            return
        advanced = index if isinstance(index, tuple) else (index,)
        if all(isinstance(part, (np.ndarray, torch.Tensor)) for part in advanced):
            # Pure advanced index: duplicate-safe accumulate on device.
            target.index_put_(self._convert_index(advanced), values, accumulate=True)
            return
        # Mixed basic+advanced indexing (slices alongside index arrays):
        # index_put_ cannot express it, so accumulate through numpy.  On
        # CPU ``.numpy()`` shares memory with the tensor, so np.add.at
        # mutates ``target`` directly; CUDA pays one round trip.
        np_index = tuple(
            part.cpu().numpy() if isinstance(part, torch.Tensor) else part for part in advanced
        )
        if target.device.type == "cpu":
            np.add.at(target.numpy(), np_index, values.cpu().numpy())
        else:  # pragma: no cover - needs a CUDA box
            host = target.cpu().numpy()
            np.add.at(host, np_index, values.cpu().numpy())
            target.copy_(torch.from_numpy(host))

    # ------------------------------------------------------------------
    # RNG: numpy generators, host-side draws (backend-identical streams)
    # ------------------------------------------------------------------
    def default_rng(self, seed=None):
        return np.random.default_rng(seed)

    def random(self, rng, shape):
        return self._from_host(rng.random(shape))

    def uniform(self, rng, low: float, high: float, shape):
        return self._from_host(rng.uniform(low, high, size=shape))

    def normal(self, rng, loc: float, scale: float, shape):
        return self._from_host(rng.normal(loc, scale, size=shape))

    def dropout_mask(self, rng, shape, keep: float, dtype):
        # The comparison happens on the host float64 draws, so the kept
        # pattern is bit-identical to the numpy backends for any seed.
        mask = self._from_host(rng.random(shape) < keep)
        return mask.to(self._torch_dtype(dtype)) / keep

    # ------------------------------------------------------------------
    # Fused composites (torch kernels for the base class's composites)
    # ------------------------------------------------------------------
    def sigmoid(self, x):
        return torch.sigmoid(torch.clamp(self._tensorize(x), -60.0, 60.0))

    def sigmoid_backward(self, grad, out):
        return grad * out * (1.0 - out)

    def tanh_backward(self, grad, out):
        return grad * (1.0 - out * out)

    def softmax(self, x, axis: int = -1):
        return torch.softmax(self._tensorize(x), dim=axis)

    def softmax_backward(self, grad, out, axis: int = -1):
        return out * (grad - (grad * out).sum(dim=axis, keepdim=True))

    def log_softmax(self, x, axis: int = -1):
        out = F.log_softmax(self._tensorize(x), dim=axis)
        return out, out.exp()

    def log_softmax_backward(self, grad, soft, axis: int = -1):
        return grad - soft * grad.sum(dim=axis, keepdim=True)

    # ------------------------------------------------------------------
    # Dilated conv1d as per-tap strided GEMMs (the slab trick: each
    # kernel tap reads/writes one contiguous slab, so the whole conv
    # is K broadcast matmuls with no gather, no column tensor, no scatter)
    # ------------------------------------------------------------------
    def conv1d_apply(self, padded, weight, dilation: int, out_len: int):
        kernel = weight.shape[2]
        out = weight[:, :, 0] @ padded[:, :, :out_len]
        for k in range(1, kernel):
            start = k * dilation
            out += weight[:, :, k] @ padded[:, :, start : start + out_len]
        return out, None

    def conv1d_backward(self, grad, saved, padded, weight, dilation: int):
        kernel = weight.shape[2]
        out_len = grad.shape[-1]
        grad_weight = torch.empty_like(weight)
        grad_padded = torch.zeros_like(padded)
        for k in range(kernel):
            slab = slice(k * dilation, k * dilation + out_len)
            grad_weight[:, :, k] = torch.tensordot(
                grad, padded[:, :, slab], dims=([0, 2], [0, 2])
            )
            grad_padded[:, :, slab] += weight[:, :, k].T @ grad
        return grad_weight, grad_padded

    # ------------------------------------------------------------------
    # Optimiser steps, in place on the device buffers
    # ------------------------------------------------------------------
    def sgd_step(self, param, grad, velocity, lr: float, momentum: float) -> None:
        if momentum:
            velocity.mul_(momentum).add_(grad)
            param.sub_(velocity, alpha=lr)
        else:
            param.sub_(grad, alpha=lr)

    def adam_step(
        self,
        param,
        grad,
        m,
        v,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        correction1: float,
        correction2: float,
        weight_decay: float,
    ) -> None:
        if weight_decay:
            grad = grad.add(param, alpha=weight_decay)
        m.mul_(beta1).add_(grad, alpha=1.0 - beta1)
        v.mul_(beta2).addcmul_(grad, grad, value=1.0 - beta2)
        denom = (v / correction2).sqrt_().add_(eps)
        param.addcdiv_(m, denom, value=-lr / correction1)
