"""Tests for the dense/conv primitives and their hand-written backward passes."""

import functools
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from helpers import (
    finite_diff_grad,
    linear_bwd,
    max_relative_error,
    pin_cpus_and_blas,
    reference_conv2d_bwd,
    reference_conv2d_fwd,
    reference_relu_bwd,
    reference_sigmoid,
)

from radkg.kernel import (
    Lanes,
    _band_index,
    conv2d_bwd,
    conv2d_fwd,
    ranges,
    relu,
    relu_bwd,
    sigmoid,
)


@pytest.mark.parametrize("rows,unit,count,want", [
    (1000, 64, 1, [(0, 1000)]),
    (1000, 64, 2, [(0, 512), (512, 1000)]),
    (1000, 64, 3, [(0, 320), (320, 640), (640, 1000)]),
    (100, 64, 4, [(0, 64), (64, 100)]),
    (64, 64, 2, [(0, 64)]),
    (0, 64, 3, [(0, 0)]),
    (5, 1, 0, [(0, 5)]),
])
def test_ranges_cover_the_rows_from_unit_boundaries(rows, unit, count, want):
    assert ranges(rows, unit, count) == want


def test_one_lane_starts_no_thread(monkeypatch):
    pin_cpus_and_blas(monkeypatch, 4, {})  # the BLAS runs on every CPU
    before = threading.active_count()
    with Lanes() as lanes:
        assert lanes.count == 1 and threading.active_count() == before
        calls = []
        lanes.run([lambda: calls.append(threading.current_thread())])
    assert calls == [threading.current_thread()]


def test_lanes_run_each_task_once_on_its_own_thread_and_stop_at_exit(monkeypatch):
    """A worker starts with the first task it is given and serves later runs."""
    pin_cpus_and_blas(monkeypatch, 3, {"OPENBLAS_NUM_THREADS": "1"})
    before = threading.active_count()
    with Lanes() as lanes:
        assert lanes.count == 3 and threading.active_count() == before
        for tasks in (2, 3, 1, 0, 3):
            seen = []
            lanes.run([lambda k=k: seen.append((k, threading.current_thread()))
                       for k in range(tasks)])
            assert sorted(k for k, _ in seen) == list(range(tasks))
            assert len({thread for _, thread in seen}) == tasks
            assert all(thread is threading.current_thread() for k, thread in seen if k == 0)
        assert threading.active_count() == before + 2  # started by the first run of 3
        with pytest.raises(ValueError, match="4 tasks for 3 lanes"):
            lanes.run([lambda: None] * 4)
    assert threading.active_count() == before


def test_a_worker_exception_is_raised_in_the_caller_after_every_task_ends(monkeypatch):
    pin_cpus_and_blas(monkeypatch, 3, {"OPENBLAS_NUM_THREADS": "1"})
    ended = []

    def fail(message):
        def task():
            ended.append(message)
            raise MemoryError(message)
        return task

    before = threading.active_count()
    with Lanes() as lanes:
        with pytest.raises(MemoryError, match="worker"):
            lanes.run([lambda: ended.append("caller"), fail("worker"),
                       lambda: ended.append("last")])
        assert sorted(ended) == ["caller", "last", "worker"]
        # The calling thread's own exception wins over a worker's.
        with pytest.raises(KeyError, match="caller"):
            lanes.run([lambda: {}["caller"], fail("worker")])
        lanes.run([lambda: None, lambda: None])  # the lanes still serve
    assert threading.active_count() == before


def test_a_worker_system_exit_reaches_the_caller_and_the_lanes_still_serve(monkeypatch):
    """A worker passes on any BaseException, not only an Exception, and its
    thread lives on to serve the next run."""
    pin_cpus_and_blas(monkeypatch, 3, {"OPENBLAS_NUM_THREADS": "1"})
    ended = []

    def leave():
        ended.append("worker")
        raise SystemExit(4)

    before = threading.active_count()
    with Lanes() as lanes:
        with pytest.raises(SystemExit) as caught:
            lanes.run([lambda: ended.append("caller"), leave, lambda: ended.append("last")])
        assert caught.value.code == 4
        assert sorted(ended) == ["caller", "last", "worker"]
        seen = []
        lanes.run([lambda: seen.append(threading.current_thread())] * 3)
        assert len(set(seen)) == 3
        assert threading.active_count() == before + 2
    assert threading.active_count() == before


def test_a_started_task_hands_its_exception_over_when_collected_and_the_lanes_still_serve(
        monkeypatch):
    """``start`` returns while the task runs on a worker; that worker takes
    no other task until ``collect`` has waited for it and returned its
    exception, and then it serves the next run."""
    pin_cpus_and_blas(monkeypatch, 2, {"OPENBLAS_NUM_THREADS": "1"})
    release, ran = threading.Event(), []

    def fail():
        release.wait(timeout=60)
        ran.append(threading.current_thread())
        raise MemoryError("started")

    before = threading.active_count()
    with Lanes() as lanes:
        started = lanes.start([fail])
        assert ran == [] and lanes.free == 1
        with pytest.raises(ValueError, match="2 tasks for 1 lanes"):
            lanes.run([lambda: None] * 2)
        lanes.run([lambda: ran.append("caller")])
        release.set()
        error = lanes.collect(started)
        assert isinstance(error, MemoryError) and error.args == ("started",)
        assert ran[0] == "caller" and ran[1] is not threading.current_thread()
        assert lanes.free == 2
        seen = []
        lanes.run([lambda: None, lambda: seen.append(threading.current_thread())])
        assert seen == [ran[1]] and threading.active_count() == before + 1
    assert threading.active_count() == before


def test_a_one_lane_object_runs_a_started_task_inline(monkeypatch):
    """With no worker to take it, a started task runs before ``start``
    returns, and its exception waits for ``collect``."""
    pin_cpus_and_blas(monkeypatch, 4, {})  # the BLAS runs on every CPU
    before = threading.active_count()
    seen = []
    with Lanes() as lanes:
        started = lanes.start([lambda: seen.append(threading.current_thread()),
                               lambda: {}["inline"]])
        assert seen == [threading.current_thread()] and threading.active_count() == before
        assert isinstance(lanes.collect(started), KeyError) and lanes.free == 1
    assert threading.active_count() == before


def test_the_block_exit_joins_a_worker_whose_started_task_was_never_collected(monkeypatch):
    pin_cpus_and_blas(monkeypatch, 2, {"OPENBLAS_NUM_THREADS": "1"})
    ended = []

    def slow():
        time.sleep(0.05)
        ended.append(True)

    before = threading.active_count()
    with pytest.raises(KeyError, match="before collecting"):
        with Lanes() as lanes:
            lanes.start([slow])
            raise KeyError("before collecting")
    assert ended == [True] and threading.active_count() == before


def test_lanes_lose_no_task_with_more_lanes_than_cores_and_a_short_switch_interval(monkeypatch):
    """Six lanes hand off 300 runs under a 1 us switch interval, every other
    one beside a task started before it and collected after: once the run
    and the collection return, every task has run exactly once."""
    pin_cpus_and_blas(monkeypatch, 6, {"OPENBLAS_NUM_THREADS": "1"})
    counts, finished = np.zeros(6, dtype=np.int64), []

    def bump(k):
        counts[k] += 1  # each task writes only its own cell

    def body():
        with Lanes() as lanes:
            for run in range(1, 301):
                early = run % 2
                started = lanes.start([functools.partial(bump, 5)] * early)
                lanes.run([functools.partial(bump, k) for k in range(6 - early)])
                if lanes.collect(started) is not None or not (counts == run).all():
                    return
        finished.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=body)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert finished == [True], counts


def test_a_worker_runs_under_the_callers_errstate(monkeypatch):
    pin_cpus_and_blas(monkeypatch, 2, {"OPENBLAS_NUM_THREADS": "1"})
    seen = []
    with Lanes() as lanes, np.errstate(over="raise"):
        lanes.run([lambda: None, lambda: seen.append(np.geterr()["over"])])
    assert seen == ["raise"]


def test_linear_bwd_shapes_and_values():
    x = np.array([1.0, 2.0])
    w = np.array([[1.0, 3.0], [2.0, 4.0]])
    d_out = np.array([1.0, -1.0])
    d_x, d_w = linear_bwd(x, w, d_out)
    assert np.array_equal(d_x, d_out @ w.T)
    assert np.array_equal(d_w, np.outer(x, d_out))


def test_linear_bwd_matches_finite_differences(rng):
    x = rng.normal(size=7)
    w = rng.normal(size=(7, 4))
    d_out = rng.normal(size=4)

    def loss_x(xv):
        return float(np.dot(xv @ w, d_out))

    def loss_w(wv):
        return float(np.dot(x @ wv, d_out))

    d_x, d_w = linear_bwd(x, w, d_out)
    assert max_relative_error(d_x, finite_diff_grad(loss_x, x)) < 1e-6
    assert max_relative_error(d_w, finite_diff_grad(loss_w, w)) < 1e-6


def test_conv2d_fwd_all_ones_sums_window():
    image = np.ones((6, 5))
    kernels = np.ones((1, 5, 5))
    out = conv2d_fwd(image, kernels)
    assert out.shape == (1, 2, 1)
    assert np.array_equal(out, np.full((1, 2, 1), 25.0))


def test_conv2d_fwd_delta_kernel_crops_input(rng):
    """A kernel with a single centered 1 reproduces the valid interior."""
    image = rng.normal(size=(9, 7))
    kernels = np.zeros((1, 5, 5))
    kernels[0, 2, 2] = 1.0
    out = conv2d_fwd(image, kernels)
    assert np.allclose(out[0], image[2:-2, 2:-2], rtol=0, atol=0)


def test_conv2d_fwd_output_shape():
    out = conv2d_fwd(np.zeros((20, 10)), np.zeros((8, 5, 5)))
    assert out.shape == (8, 16, 6)


@pytest.mark.parametrize("inp_shape,kernel_shape", [
    ((8, 8), (2, 5, 4)),
    ((8, 8), (5, 5)),
    ((8, 8), (1, 2, 5, 5)),
    ((8, 8), (0, 5, 5)),
    ((4, 8), (2, 5, 5)),
    ((8, 4), (2, 5, 5)),
    ((3, 4, 8), (2, 5, 5)),
    ((8,), (2, 5, 5)),
], ids=["non-square", "2-D kernels", "4-D kernels", "no channels", "input too short",
        "input too narrow", "batched planes too short", "1-D input"])
def test_conv2d_rejects_kernels_that_do_not_fit(inp_shape, kernel_shape):
    inp, kernels = np.zeros(inp_shape), np.zeros(kernel_shape)
    shape_error = r"^kernels must have shape|smaller than .* kernel$|^input must be"
    with pytest.raises(ValueError, match=shape_error):
        conv2d_fwd(inp, kernels)
    with pytest.raises(ValueError, match=shape_error):
        conv2d_bwd(inp, kernels, np.zeros((2, 4, 4)))


def test_conv2d_fwd_is_linear_in_input(rng):
    kernels = rng.normal(size=(3, 5, 5))
    a = rng.normal(size=(8, 6))
    b = rng.normal(size=(8, 6))
    lhs = conv2d_fwd(2.0 * a - b, kernels)
    rhs = 2.0 * conv2d_fwd(a, kernels) - conv2d_fwd(b, kernels)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_conv2d_bwd_matches_finite_differences(rng):
    image = rng.normal(size=(7, 6))
    kernels = rng.normal(size=(2, 5, 5))
    d_out = rng.normal(size=(2, 3, 2))

    def loss_image(img):
        return float(np.sum(conv2d_fwd(img, kernels) * d_out))

    def loss_kernels(k):
        return float(np.sum(conv2d_fwd(image, k) * d_out))

    d_image, d_kernels = conv2d_bwd(image, kernels, d_out)
    assert max_relative_error(d_image, finite_diff_grad(loss_image, image)) < 1e-6
    assert max_relative_error(d_kernels, finite_diff_grad(loss_kernels, kernels)) < 1e-6


def conv_configs(rng):
    """Seeded (inp, kernels, upstream) triples: a 2-D plane or B planes,
    k = 1..5 with some planes exactly k high or k wide, C = 1..8, and some
    inputs and upstreams that are not C-contiguous."""
    for batch in (None, 1, 2, 7, 32, 64):
        for k in range(1, 6):
            for channels in range(1, 9):
                for shape in ((k, k), (k, k + 3), (k + 4, k)) + tuple(
                        tuple(int(s) for s in rng.integers(k, k + 7, size=2)) for _ in range(2)):
                    lead = () if batch is None else (batch,)
                    inp = rng.normal(size=lead + shape)
                    kernels = rng.normal(size=(channels, k, k))
                    out_shape = lead + (channels, shape[0] - k + 1, shape[1] - k + 1)
                    upstream = rng.normal(size=out_shape)
                    if rng.random() < 0.2:
                        inp, upstream = np.asfortranarray(inp), np.asfortranarray(upstream)
                    yield inp, kernels, upstream


def test_conv2d_matches_reference_conv():
    """The row-slab convolution against the kept einsum one, on 1200 seeded
    configs, within 1e-12 of the reference's largest magnitude."""
    def close(new, ref):
        assert new.shape == ref.shape
        return np.max(np.abs(new - ref), initial=0.0) <= 1e-12 * max(1.0, np.max(np.abs(ref), initial=0.0))

    configs = list(conv_configs(np.random.default_rng(2018)))
    assert len(configs) == 1200
    for inp, kernels, upstream in configs:
        assert close(conv2d_fwd(inp, kernels), reference_conv2d_fwd(inp, kernels))
        grad_inp, grad_kernels = conv2d_bwd(inp, kernels, upstream)
        ref_inp, ref_kernels = reference_conv2d_bwd(inp, kernels, upstream)
        assert close(grad_inp, ref_inp) and close(grad_kernels, ref_kernels)


def test_band_index_is_cached_read_only_and_bounded():
    # Width 4, k = 2, two channels: Wo = 3, so the band is 8 x 6 and tap
    # (c, a, b) of output column x sits at row 4a + x + b, column 3c + x.
    index = _band_index(4, 2, 2)
    assert index is _band_index(4, 2, 2)
    assert index.shape == (2, 2, 2, 3)
    assert list(index[0, 0, 0]) == [0, 7, 14]
    assert list(index[0, 0, 1]) == [6, 13, 20]
    assert list(index[1, 1, 1]) == [33, 40, 47]
    assert len(np.unique(index)) == index.size and index.max() < 8 * 6
    with pytest.raises(ValueError, match="read-only"):
        index[0, 0, 0, 0] = 5
    assert _band_index.cache_info().maxsize is not None


def test_conv2d_of_an_empty_batch_is_float_and_empty():
    kernels = np.ones((3, 2, 2))
    assert conv2d_fwd(np.zeros((0, 6, 5)), kernels).shape == (0, 3, 5, 4)
    grad_inp, grad_kernels = conv2d_bwd(np.zeros((0, 6, 5)), kernels, np.zeros((0, 3, 5, 4)))
    assert grad_inp.shape == (0, 6, 5) and grad_inp.dtype == np.float64
    assert np.array_equal(grad_kernels, np.zeros((3, 2, 2)))


def test_relu_and_subgradient():
    x = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(relu(x), np.array([0.0, 0.0, 3.5]))
    # subgradient at exactly zero is taken to be zero
    assert np.array_equal(relu_bwd(x, np.ones(3)), np.array([0.0, 0.0, 1.0]))


def test_relu_bwd_is_bitwise_the_masked_copy():
    """The int64 mask gives the bits the two-copy reference gives: every pair
    of signed zeros, NaNs, infinities and subnormals, a strided x, and a
    result written into ``out``."""
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.5, -2.5])
    x, upstream = np.repeat(specials, len(specials)), np.tile(specials, len(specials))
    assert relu_bwd(x, upstream).tobytes() == reference_relu_bwd(x, upstream).tobytes()
    rng = np.random.default_rng(4)
    grid = rng.normal(size=(6, 8, 10))
    grid[rng.random(size=grid.shape) < 0.1] = -0.0
    strided = grid[:, ::2, ::-1]
    upstream = rng.normal(size=strided.shape)
    out = np.full(strided.shape, 7.0)
    assert relu_bwd(strided, upstream, out=out) is out
    assert out.tobytes() == reference_relu_bwd(strided, upstream).tobytes()


def test_relu_idempotent(rng):
    x = rng.normal(size=100)
    assert np.array_equal(relu(relu(x)), relu(x))


def test_sigmoid_scalar_and_array():
    assert sigmoid(0.0) == 0.5
    assert isinstance(sigmoid(0.0), float)
    out = sigmoid(np.array([0.0, 100.0, -100.0]))
    assert out.shape == (3,)
    assert out[0] == 0.5


@pytest.mark.parametrize("x", [-800.0, -50.0, 0.0, 50.0, 800.0])
def test_sigmoid_stable_in_extremes(x):
    p = sigmoid(x)
    assert np.isfinite(p)
    assert 0.0 <= p <= 1.0


def test_sigmoid_symmetry(rng):
    x = rng.normal(scale=10.0, size=50)
    assert np.max(np.abs(sigmoid(x) + sigmoid(-x) - 1.0)) < 1e-15


def test_sigmoid_is_bit_identical_to_the_masked_reference():
    """The same formula per element as the masked version, so the same bits,
    on every scale, at the edges of float64, and in 0-d, 1-d and 2-d."""
    rng = np.random.default_rng(9)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 1e308, -1e308])
    x = rng.normal(size=100_000) * 10.0 ** rng.uniform(-3, 3, size=100_000)
    values = np.concatenate([x, edges])
    for arr in (values, values[-100_000:].reshape(400, 250)):
        with np.errstate(over="raise", invalid="raise"):
            got = sigmoid(arr)
        assert got.shape == arr.shape
        assert np.array_equal(got, reference_sigmoid(arr), equal_nan=True)
    for v in [*edges, *x[:20]]:
        for scalar in (float(v), np.float64(v), np.array(v)):
            got = sigmoid(scalar)
            assert isinstance(got, float)
            assert np.array_equal(got, reference_sigmoid(scalar), equal_nan=True)


def test_sigmoid_holds_two_grids_at_most():
    """Beside its input, the sigmoid of an (m, n) grid holds the exponential
    and the result, plus a boolean mask, at its peak."""
    x = np.random.default_rng(5).normal(size=(1000, 100))
    tracemalloc.start()
    try:
        sigmoid(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * x.nbytes + x.size + (64 << 10)


def test_finite_diff_grad_quadratic():
    grad = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]))
    assert abs(grad[0] - 6.0) < 1e-8


def test_max_relative_error_floor():
    # denominators are floored so tiny absolute noise near zero stays small
    assert max_relative_error(np.array([0.0]), np.array([1e-9])) < 1e-2
    assert max_relative_error(np.array([1.0]), np.array([2.0])) == 0.5
