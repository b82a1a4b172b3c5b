"""Minimal dense numeric kernel: linear map, valid 2D convolution, ReLU, sigmoid.

Convolution and ReLU come with exact analytic backward passes, and
``finite_diff_grad`` provides the central-difference oracle used to verify
them.  Arrays are float64 throughout; there is no autodiff graph, no
broadcasting magic, and no padding semantics beyond "valid".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def linear_fwd(x: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """Apply a bias-free linear map: ``y_k = sum_i x_i * wm[i, k]``."""
    x = np.asarray(x, dtype=np.float64)
    wm = np.asarray(wm, dtype=np.float64)
    if x.ndim != 1 or wm.ndim != 2 or wm.shape[0] != x.shape[0]:
        raise ValueError(f"linear shape mismatch: x {x.shape} vs wm {wm.shape}")
    return x @ wm


@dataclass(frozen=True)
class ConvSpec:
    """Valid-padding, stride-1 correlation with square kernels."""

    channels: int
    kernel_size: int = 5

    def __post_init__(self):
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if self.kernel_size < 1:
            raise ValueError(f"kernel_size must be >= 1, got {self.kernel_size}")

    @classmethod
    def from_kernels(cls, kernels: np.ndarray) -> "ConvSpec":
        kernels = np.asarray(kernels)
        if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2]:
            raise ValueError(f"kernels must have shape (channels, k, k), got {kernels.shape}")
        return cls(channels=kernels.shape[0], kernel_size=kernels.shape[1])

    def output_shape(self, height: int, width: int) -> tuple[int, int, int]:
        k = self.kernel_size
        if height < k or width < k:
            raise ValueError(f"input {height}x{width} smaller than {k}x{k} kernel")
        return (self.channels, height - k + 1, width - k + 1)


def conv2d_fwd(inp: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Valid cross-correlation of a single-channel 2D input with C kernels.

    Args:
        inp: (H, W) input plane, or (B, H, W) for a batch of B planes.
        kernels: (C, k, k) square kernels, applied without flipping.

    Returns:
        (C, H - k + 1, W - k + 1) output, one plane per kernel, with the
        leading batch axis kept when the input has one.
    """
    inp = np.asarray(inp, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if inp.ndim not in (2, 3):
        raise ValueError(f"input must be 2-D or batched 3-D, got shape {inp.shape}")
    spec = ConvSpec.from_kernels(kernels)
    spec.output_shape(*inp.shape[-2:])  # raises if the kernel does not fit
    k = spec.kernel_size
    windows = sliding_window_view(inp, (k, k), axis=(-2, -1))
    # A batch goes through BLAS; a single plane keeps the direct sum.
    return np.einsum("...ijuv,cuv->...cij", windows, kernels, optimize=inp.ndim == 3)


def conv2d_bwd(inp: np.ndarray, kernels: np.ndarray, upstream: np.ndarray):
    """Gradients of ``sum(upstream * conv2d_fwd(inp, kernels))``.

    Returns:
        (grad_inp, grad_kernels) with the shapes of inp and kernels; for a
        batched input the kernel gradient is summed over the batch.
    """
    inp = np.asarray(inp, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if inp.ndim not in (2, 3):
        raise ValueError(f"input must be 2-D or batched 3-D, got shape {inp.shape}")
    spec = ConvSpec.from_kernels(kernels)
    out_shape = inp.shape[:-2] + spec.output_shape(*inp.shape[-2:])
    if upstream.shape != out_shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match output {out_shape}")
    k = spec.kernel_size
    ho, wo = out_shape[-2], out_shape[-1]
    batched = inp.ndim == 3

    windows = sliding_window_view(inp, (k, k), axis=(-2, -1))
    if not batched:
        windows, upstream = windows[None], upstream[None]
    grad_kernels = np.einsum("bijuv,bcij->cuv", windows, upstream, optimize=batched)

    # Scatter each kernel tap back onto the input patch it touched.
    grad_inp = np.zeros((len(upstream),) + inp.shape[-2:])
    for u in range(k):
        for v in range(k):
            grad_inp[:, u:u + ho, v:v + wo] += np.einsum("c,bcij->bij", kernels[:, u, v], upstream)
    return (grad_inp if batched else grad_inp[0]), grad_kernels


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_bwd(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """ReLU backward pass; the subgradient at exactly 0 is taken as 0."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape != upstream.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs upstream {upstream.shape}")
    return np.where(x > 0.0, upstream, 0.0)


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    Never overflows or produces NaN; saturates to exactly 0.0 or 1.0 in
    float64 for very large |x|.  Scalars in, scalar out.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    expx = np.exp(arr[~pos])
    out[~pos] = expx / (1.0 + expx)
    return float(out[0]) if scalar else out


def finite_diff_grad(scalar_fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle for a scalar function.

    Evaluates ``(f(p + h e_i) - f(p - h e_i)) / 2h`` for every coordinate of
    ``params``.  Quadratic cost in the parameter count; meant for
    verification, not training.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped.flat[i] += h
        f_plus = scalar_fn(bumped)
        bumped = params.copy()
        bumped.flat[i] -= h
        f_minus = scalar_fn(bumped)
        grad.flat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> float:
    """Largest elementwise relative difference, floored to dodge 0/0 noise."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))
