"""Minimal dense numeric kernel: linear map, valid 2D convolution, ReLU, sigmoid.

Convolution and ReLU come with exact analytic backward passes, and
``finite_diff_grad`` provides the central-difference oracle used to verify
them.  Arrays are float64 throughout; there is no autodiff graph, no
broadcasting magic, and no padding semantics beyond "valid".

The convolution is im2col: one ``take`` through a cached flat-offset index
gathers every k x k window of B planes into a (B * Ho * Wo, k * k) grid, and
the forward is that grid times the (k * k, C) kernel matrix. The backward is
two more matrix products, one for the kernel gradient and one for the
gradient of each window, and a ``bincount`` that adds each window's gradient
onto the input cells it read. A single plane is a batch of one.
"""

from __future__ import annotations

import functools

import numpy as np


def linear_fwd(x: np.ndarray, wm: np.ndarray) -> np.ndarray:
    """Apply a bias-free linear map: ``y_k = sum_i x_i * wm[i, k]``."""
    x = np.asarray(x, dtype=np.float64)
    wm = np.asarray(wm, dtype=np.float64)
    if x.ndim != 1 or wm.ndim != 2 or wm.shape[0] != x.shape[0]:
        raise ValueError(f"linear shape mismatch: x {x.shape} vs wm {wm.shape}")
    return x @ wm


def _kernel_side(inp: np.ndarray, kernels: np.ndarray) -> int:
    """Side k of the (C, k, k) kernels; raises unless they fit the input."""
    if inp.ndim not in (2, 3):
        raise ValueError(f"input must be 2-D or batched 3-D, got shape {inp.shape}")
    if kernels.ndim != 3 or kernels.shape[1] != kernels.shape[2] or 0 in kernels.shape:
        raise ValueError(f"kernels must have shape (channels, k, k), got {kernels.shape}")
    k = kernels.shape[1]
    height, width = inp.shape[-2:]
    if height < k or width < k:
        raise ValueError(f"input {height}x{width} smaller than {k}x{k} kernel")
    return k


# A model convolves one plane shape; gradcheck and the tests walk through a
# few dozen. The index is read-only because every caller shares it.
@functools.lru_cache(maxsize=64)
def _window_index(height: int, width: int, k: int) -> np.ndarray:
    """Flat offsets into an (height, width) plane of the cells each k x k
    window reads: a read-only (Ho * Wo, k * k) array, one row per window in
    row-major order of its corner, one column per tap in row-major order."""
    corners = np.arange(height - k + 1)[:, None] * width + np.arange(width - k + 1)
    taps = np.arange(k)[:, None] * width + np.arange(k)
    index = corners.reshape(-1, 1) + taps.reshape(1, -1)
    index.flags.writeable = False
    return index


def _windows(planes: np.ndarray, k: int) -> np.ndarray:
    """im2col: the (B * Ho * Wo, k * k) grid of every window of B planes."""
    b, height, width = planes.shape
    index = _window_index(height, width, k)
    return np.take(planes.reshape(b, height * width), index, axis=1).reshape(-1, k * k)


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
    k = _kernel_side(inp, kernels)
    planes = inp.reshape((-1,) + inp.shape[-2:])
    b, height, width = planes.shape
    c = len(kernels)
    out = _windows(planes, k) @ kernels.reshape(c, k * k).T
    out = out.reshape(b, height - k + 1, width - k + 1, c).transpose(0, 3, 1, 2)
    return out if inp.ndim == 3 else out[0]


def conv2d_bwd(inp: np.ndarray, kernels: np.ndarray, upstream: np.ndarray):
    """Gradients of ``sum(upstream * conv2d_fwd(inp, kernels))``.

    Returns:
        (grad_inp, grad_kernels) with the shapes of inp and kernels; for a
        batched input the kernel gradient is summed over the batch.
    """
    inp = np.asarray(inp, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    k = _kernel_side(inp, kernels)
    ho, wo = inp.shape[-2] - k + 1, inp.shape[-1] - k + 1
    out_shape = inp.shape[:-2] + (len(kernels), ho, wo)
    if upstream.shape != out_shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match output {out_shape}")
    planes = inp.reshape((-1,) + inp.shape[-2:])
    b, height, width = planes.shape
    c = len(kernels)
    up = upstream.reshape(b, c, ho * wo).transpose(0, 2, 1).reshape(-1, c)
    grad_kernels = (up.T @ _windows(planes, k)).reshape(kernels.shape)

    # Each window's gradient lands on the cells of its plane that it read.
    cells = _window_index(height, width, k) + (np.arange(b) * (height * width))[:, None, None]
    grad_windows = up @ kernels.reshape(c, k * k)
    grad_inp = np.bincount(cells.reshape(-1), weights=grad_windows.reshape(-1), minlength=planes.size)
    # An empty batch makes bincount return int64.
    return grad_inp.astype(np.float64, copy=False).reshape(inp.shape), grad_kernels


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

    ``exp`` only sees -|x|, so it never overflows: 1 / (1 + e^-x) for x >= 0
    and e^x / (1 + e^x) below, one formula per element with no masking.
    Saturates to exactly 0.0 or 1.0 in float64 for very large |x|; NaN stays
    NaN.  Scalars in, scalar out.
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0, e) / (1.0 + e)
    return float(out) if arr.ndim == 0 else out


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

