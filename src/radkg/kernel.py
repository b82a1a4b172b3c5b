"""Minimal dense numeric kernel: valid 2D convolution, ReLU, sigmoid.

Float64 throughout, "valid" padding only, no autodiff graph: convolution and
ReLU have analytic backward passes, which the tests check against central
differences. The convolution is a row-slab product. Output row y
reads input rows y..y+k-1, which are k * W consecutive cells, so one copy of
a strided view gives the (B * Ho, k * W) slab grid; the C kernels fill a
(k * W, C * Wo) band matrix with C * k * k * Wo nonzeros. The forward is
slabs @ band. The backward sums slabs.T @ up over each tap's band positions,
and for each a < k adds up @ band[a * W:(a + 1) * W].T onto the input, a rows
down. A single plane is a batch of one. At B = 32 planes of 20 x 10, C = 8 and
k = 5, the slab grid takes 205 kB, the output grid and the transposed upstream
196 kB each, each per-row product 41 kB and the band 19 kB.

Grids that large are past glibc's mmap threshold unless the process has
already freed a bigger block, so a fresh one costs a page fault per 4 kB on
every call. A caller that repeats calls of one shape, such as a training
loop, passes a ``Workspace``, and the grids are allocated once; without one
every grid is fresh.

``Lanes`` runs a caller's work on every usable CPU that the BLAS's own
threads leave idle: table scoring opens it for one table, training for one
fit. Its workers take tasks from their own inbox queue and put each task's
outcome into their own outbox, so caller and worker share no mutable state.
A caller may start a task and collect its outcome later, as training does
with an update that overlaps the rest of its batch.
``ranges`` cuts rows into one contiguous range per lane, each starting on a
multiple of a fixed unit.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import queue
import threading

import numpy as np


class Workspace:
    """Scratch grids one caller reuses from call to call.

    ``take(name, shape)`` gives a C-contiguous float64 array of ``shape`` over
    the leading cells of the buffer kept under ``name``. The buffer is
    allocated when the name is first taken, and again only when a larger
    shape is asked for: after a full batch has sized them, a short batch
    takes leading views and no later batch allocates a grid. The cells are
    not cleared; each user writes every cell it reads. An array taken under a
    name, and every result that is a view of it, holds its values until the
    next ``take`` of that name.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        buffer = self.buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self.buffers[name] = np.empty(size)
        return buffer[:size].reshape(shape)


class Lanes:
    """Worker threads that live for one ``with`` block, each a lane beside
    the calling thread.

    There is one lane per ``_blas_threads`` usable CPUs
    (``os.sched_getaffinity``): one per CPU when the BLAS runs a product on
    one thread, one in all when it runs it on every CPU. Each worker owns an
    inbox of tasks and an outbox of their outcomes, and no other state is
    shared. The hand-off has two halves: ``start`` puts a task into an idle
    worker's inbox and returns at once, and ``collect`` waits for its
    outcome; a worker is idle again only once its task is collected, so no
    later ``start`` or ``run`` reads a late outcome. ``run`` is the two
    halves around the calling thread's own task. A task for which no worker
    is left runs in the calling thread inside ``start``, so a one-lane
    object starts no thread and serves the same calls. A worker starts with
    its first task and then waits on its inbox for the next; the block's
    exit stops and joins every worker, on every path, one whose task was
    never collected included.
    """

    def __init__(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        self.count = max(1, cpus // _blas_threads(cpus))
        self._workers: list[tuple] = []  # (thread, inbox, outbox) each
        self._idle: list[tuple] = []  # the workers with no task to collect

    @property
    def free(self) -> int:
        """Lanes no started task holds: the calling thread's and every idle
        or not yet started worker's."""
        return self.count - len(self._workers) + len(self._idle)

    def __enter__(self) -> "Lanes":
        return self

    def __exit__(self, *exc_info) -> None:
        for _, inbox, _ in self._workers:
            inbox.put(None)
        for thread, *_ in self._workers:
            thread.join()
        self._workers.clear()
        self._idle.clear()

    def start(self, tasks) -> list:
        """Hand each task to an idle worker, starting one while fewer than
        ``count - 1`` run, and return without waiting; pass the result to
        ``collect``. A worker runs its task in a copy of the caller's
        context, so the caller's ``np.errstate`` holds there too. A task for
        which no worker is left runs here before ``start`` returns, and its
        outcome waits for ``collect`` as a worker's does."""
        started = []
        for task in tasks:
            task = functools.partial(contextvars.copy_context().run, task)
            if not self._idle and len(self._workers) < self.count - 1:
                inbox, outbox = queue.SimpleQueue(), queue.SimpleQueue()
                thread = threading.Thread(target=_serve, args=(inbox, outbox), daemon=True)
                thread.start()
                self._workers.append((thread, inbox, outbox))
                self._idle.append(self._workers[-1])
            if self._idle:
                worker = self._idle.pop()
                worker[1].put(task)
                started.append((worker, worker[2]))
            else:
                outcome = queue.SimpleQueue()
                outcome.put(_outcome(task))
                started.append((None, outcome))
        return started

    def collect(self, started) -> BaseException | None:
        """Wait until every task of a ``start`` has ended, make its workers
        idle, and return the first task's exception, or None; a caller
        with an exception of its own drops it."""
        errors = []
        for worker, outcome in started:
            errors.append(outcome.get())
            if worker is not None:
                self._idle.append(worker)
        return next((error for error in errors if error is not None), None)

    def run(self, tasks) -> None:
        """Call every task, the first in the calling thread and one per
        idle worker for the rest, and return once all have ended. An
        exception of the first task is raised as it is; else a worker's is
        raised here."""
        tasks = list(tasks)
        if len(tasks) > self.free:
            raise ValueError(f"{len(tasks)} tasks for {self.free} lanes")
        started = self.start(tasks[1:])
        try:
            if tasks:
                tasks[0]()
        finally:
            error = self.collect(started)
        if error is not None:
            raise error


def _outcome(task) -> BaseException | None:
    """Call ``task`` and return its exception, or None."""
    try:
        task()
    except BaseException as caught:  # raised again in the calling thread
        return caught
    return None


def _serve(inbox: queue.SimpleQueue, outbox: queue.SimpleQueue) -> None:
    """A worker's loop: run each task from ``inbox`` until None comes, and
    put its exception, or None, into ``outbox``. The task is dropped first,
    so no finished task's data outlives its run."""
    for task in iter(inbox.get, None):
        error = _outcome(task)
        del task
        outbox.put(error)


def ranges(rows: int, unit: int, count: int) -> list[tuple[int, int]]:
    """At most ``count`` contiguous (lo, hi) ranges that cover rows 0..rows,
    each starting on a multiple of ``unit`` and the first at 0. A caller that
    works ``unit`` rows at a time runs the same pieces for any count."""
    units = -(-rows // unit)
    count = max(1, min(count, units))
    bounds = [i * units // count * unit for i in range(count)] + [rows]
    return list(zip(bounds[:-1], bounds[1:]))


def _blas_threads(cpus: int) -> int:
    """Threads OpenBLAS runs one product on, read as it reads them when it
    loads: the first positive OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS, else ``cpus``. Where every CPU already runs each
    product, more threads only queue for it: on 2 CPUs with 2 BLAS threads,
    two ranges took a 10k-row conve table from 70 to 85-90 ms."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return cpus


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
def _band_index(width: int, k: int, channels: int) -> np.ndarray:
    """Read-only (channels, k, k, Wo) flat positions in the band matrix: tap
    [c, a, b] of output column x sits at row a * width + x + b, column c * Wo + x."""
    wo = width - k + 1
    c, a, b, x = np.ogrid[:channels, :k, :k, :wo]
    index = (a * width + x + b) * (channels * wo) + c * wo + x
    index.flags.writeable = False
    return index


def _slabs_and_band(inp: np.ndarray, kernels: np.ndarray, workspace: Workspace):
    """(slabs, band, k) for float64 planes and kernels that fit them: the
    (B * Ho, k * W) grid whose row (i, y) is rows y..y+k-1 of plane i, taken
    from ``workspace``, and the (k * W, C * Wo) matrix that maps a slab to its
    C output rows."""
    k = _kernel_side(inp, kernels)
    height, width = inp.shape[-2:]
    cells = np.ascontiguousarray(inp)
    strides = (height * width * cells.itemsize, width * cells.itemsize, cells.itemsize)
    view = np.ndarray((cells.size // (height * width), height - k + 1, k * width),
                      cells.dtype, cells, 0, strides)
    slabs = workspace.take("slabs", view.shape)
    np.copyto(slabs, view)
    band = np.zeros(k * width * len(kernels) * (width - k + 1))
    band[_band_index(width, k, len(kernels))] = kernels[..., None]
    return slabs.reshape(-1, k * width), band.reshape(k * width, -1), k


def conv2d_fwd(inp: np.ndarray, kernels: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
    """Valid cross-correlation of a single-channel 2D input with C kernels.

    Args:
        inp: (H, W) input plane, or (B, H, W) for a batch of B planes.
        kernels: (C, k, k) square kernels, applied without flipping.
        workspace: where the slab and output grids come from; fresh grids
            when None.

    Returns:
        (C, H - k + 1, W - k + 1) output, one plane per kernel, with the
        leading batch axis kept when the input has one. It is a view of the
        workspace's ``"conv"`` grid.
    """
    workspace = Workspace() if workspace is None else workspace
    inp = np.asarray(inp, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    slabs, band, k = _slabs_and_band(inp, kernels, workspace)
    height, width = inp.shape[-2:]
    product = np.matmul(slabs, band, out=workspace.take("conv", (len(slabs), band.shape[1])))
    out = product.reshape(-1, height - k + 1, len(kernels), width - k + 1).transpose(0, 2, 1, 3)
    return out if inp.ndim == 3 else out[0]


def conv2d_bwd(inp: np.ndarray, kernels: np.ndarray, upstream: np.ndarray,
               workspace: Workspace | None = None):
    """Gradients of ``sum(upstream * conv2d_fwd(inp, kernels))``.

    The slab grid and the transposed upstream come from ``workspace``, or
    are fresh when it is None; neither is returned.

    Returns:
        (grad_inp, grad_kernels) with the shapes of inp and kernels; for a
        batched input the kernel gradient is summed over the batch.
    """
    workspace = Workspace() if workspace is None else workspace
    inp = np.asarray(inp, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    slabs, band, k = _slabs_and_band(inp, kernels, workspace)
    (height, width), c = inp.shape[-2:], len(kernels)
    ho, wo = height - k + 1, width - k + 1
    out_shape = inp.shape[:-2] + (c, ho, wo)
    if upstream.shape != out_shape:
        raise ValueError(f"upstream shape {upstream.shape} does not match output {out_shape}")
    up = workspace.take("up", (len(slabs), c * wo))
    np.copyto(up.reshape(-1, ho, c, wo), upstream.reshape(-1, c, ho, wo).transpose(0, 2, 1, 3))
    grad_kernels = (slabs.T @ up).reshape(-1)[_band_index(width, k, c)].sum(axis=-1)
    # Band rows a * W..(a + 1) * W carry output row y to input row y + a: k small
    # products, not one (B * Ho, k * W) grid that malloc would map fresh.
    grad_inp = np.zeros((len(up) // ho, height, width))
    for a in range(k):
        grad_inp[:, a:a + ho] += (up @ band[a * width:(a + 1) * width].T).reshape(-1, ho, width)
    return grad_inp.reshape(inp.shape), grad_kernels


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise max(0, x), into ``out`` when it is given."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0, out=out)


def relu_bwd(x: np.ndarray, upstream: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ReLU backward pass; the subgradient at exactly 0 is taken as 0.

    The result goes into ``out`` when it is given: upstream's cell where
    x > 0, and 0.0 elsewhere, NaN x included.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if x.shape != upstream.shape:
        raise ValueError(f"shape mismatch: x {x.shape} vs upstream {upstream.shape}")
    out = np.empty(x.shape) if out is None else out
    # An all-ones or all-zeros int64 mask ANDed onto upstream's bits keeps a
    # cell or makes it +0.0; a masked copy ran 5-6x slower on random signs.
    mask = (x > 0.0).astype(np.int64)
    np.negative(mask, out=mask)
    np.bitwise_and(upstream.view(np.int64), mask, out=out.view(np.int64))
    return out


def sigmoid(x):
    """Numerically stable logistic function, elementwise.

    ``exp`` only sees -|x|, so it never overflows: 1 / (1 + e^-x) for x >= 0
    and e^x / (1 + e^x) below, one formula per element with no masking.
    Saturates to exactly 0.0 or 1.0 in float64 for very large |x|; NaN stays
    NaN.  Scalars in, scalar out.
    """
    arr = np.asarray(x, dtype=np.float64)
    e = np.abs(arr, out=np.empty(arr.shape))
    np.exp(np.negative(e, out=e), out=e)
    out = np.where(arr >= 0.0, 1.0, e)
    np.divide(out, np.add(1.0, e, out=e), out=out)
    return float(out) if arr.ndim == 0 else out

