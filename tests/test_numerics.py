import math
import os
import sys
import threading

import numpy as np
import pytest

import arec.numerics as numerics
from arec.numerics import (
    DimensionError,
    Rng,
    relu,
    sigmoid,
    softmax,
    softmax_backward,
    softmax_rows,
    softmax_rows_backward,
)
from arec.numerics import _max_last_axis, one_blas_thread

from oracle import NumericError, bmm, bmm_nt, finite_diff_grad, matmul, mm_nt, mm_tn, rel_error


def triple_loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += a[i, l] * b[l, j]
            out[i, j] = acc
    return out


def test_matmul_identity():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b), b)


def test_matmul_hand_computed():
    out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
    assert out.shape == (1, 1) and out[0, 0] == 11.0


def test_matmul_matches_triple_loop_exactly():
    gen = np.random.default_rng(0)
    a = gen.normal(size=(3, 4))
    b = gen.normal(size=(4, 2))
    assert np.array_equal(matmul(a, b), triple_loop_matmul(a, b))


def test_matmul_close_to_triple_loop_various_shapes():
    # odd strides can hit a differently unrolled kernel; rounding only
    gen = np.random.default_rng(0)
    for m, k, n in [(5, 7, 3), (8, 8, 8), (1, 13, 1), (2, 31, 5)]:
        a = gen.normal(size=(m, k))
        b = gen.normal(size=(k, n))
        diff = np.max(np.abs(matmul(a, b) - triple_loop_matmul(a, b)))
        assert diff <= 1e-13


def test_matmul_deterministic_across_calls():
    gen = np.random.default_rng(20)
    a = gen.normal(size=(6, 9))
    b = gen.normal(size=(9, 4))
    assert np.array_equal(matmul(a, b), matmul(a, b))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        matmul(np.ones((3, 4)), np.ones((5, 2)))
    assert "(3, 4)" in str(err.value) and "(5, 2)" in str(err.value)


def test_transposed_products_match_plain_matmul():
    gen = np.random.default_rng(2)
    a = gen.normal(size=(5, 3))
    b = gen.normal(size=(5, 4))
    c = gen.normal(size=(4, 3))
    assert np.max(np.abs(mm_tn(a, b) - triple_loop_matmul(a.T.copy(), b))) <= 1e-13
    assert np.max(np.abs(mm_nt(a, c) - triple_loop_matmul(a, c.T.copy()))) <= 1e-13
    assert np.array_equal(mm_tn(a, b), mm_tn(a, b))


def test_batched_products_match_per_item():
    gen = np.random.default_rng(3)
    a = gen.normal(size=(4, 3, 5))
    b = gen.normal(size=(4, 5, 2))
    out = bmm(a, b)
    for i in range(4):
        assert np.array_equal(out[i], matmul(a[i], b[i]))
    c = gen.normal(size=(4, 6, 5))
    out_nt = bmm_nt(a, c)
    for i in range(4):
        assert np.array_equal(out_nt[i], mm_nt(a[i], c[i]))


def test_sigmoid_basics():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    lo = sigmoid(np.array([-1000.0]))[0]
    assert 0.0 <= lo <= 1e-300 and np.isfinite(lo)
    hi = sigmoid(np.array([1000.0]))[0]
    assert hi == 1.0 or (1.0 - hi) < 1e-300


def test_sigmoid_complement_sums_to_one():
    gen = np.random.default_rng(4)
    x = gen.normal(scale=100.0, size=64)
    total = sigmoid(x) + sigmoid(-x)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_sigmoid_stable_beyond_500():
    x = np.array([-750.0, -500.0, 500.0, 750.0])
    out = sigmoid(x)
    assert np.all(np.isfinite(out)) and np.all((out >= 0) & (out <= 1))


def test_relu_cases():
    assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    assert np.all(relu(np.array([-5.0, -0.1])) == 0.0)
    gen = np.random.default_rng(6)
    x = gen.normal(size=50)
    assert np.array_equal(relu(x), np.where(x > 0, x, 0.0))


def test_softmax_uniform_on_equal_logits():
    out = softmax(np.array([2.5, 2.5, 2.5]))
    assert np.max(np.abs(out - 1.0 / 3.0)) < 1e-15


def test_softmax_closed_form():
    out = softmax(np.array([0.0, math.log(3.0)]))
    assert abs(out[0] - 0.25) < 1e-12 and abs(out[1] - 0.75) < 1e-12


def test_softmax_matches_direct_oracle():
    gen = np.random.default_rng(7)
    x = gen.normal(size=8)
    direct = np.exp(x) / np.sum(np.exp(x))
    assert np.max(np.abs(softmax(x) - direct)) < 1e-12


def test_softmax_positive_entries_moderate_inputs():
    gen = np.random.default_rng(30)
    for _ in range(20):
        out = softmax(gen.normal(scale=50.0, size=12))
        assert np.all(out > 0)


def test_softmax_sums_to_one_large_magnitudes():
    # spreads near 2000 underflow exp to exact zero; the sum bound still holds
    gen = np.random.default_rng(8)
    for _ in range(20):
        x = gen.uniform(-1e3, 1e3, size=12)
        out = softmax(x)
        assert np.all(out >= 0) and np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12


def test_softmax_empty_is_dimension_error():
    with pytest.raises(DimensionError):
        softmax(np.array([]))
    with pytest.raises(DimensionError):
        softmax(np.ones((2, 2)))


def test_softmax_backward_matches_fd():
    gen = np.random.default_rng(9)
    for _ in range(50):
        x = gen.normal(size=6)
        g = gen.normal(size=6)
        analytic = softmax_backward(softmax(x), g)
        fd = finite_diff_grad(lambda v: float(np.dot(softmax(v), g)), x)
        assert rel_error(analytic, fd) < 1e-4


def test_softmax_rows_max_is_np_max_bit_for_bit():
    gen = np.random.default_rng(12)
    x = gen.normal(size=(6, 2, 7, 7))
    specials = [np.inf, -np.inf, np.nan, 1e300, -1e300, 0.0, -0.0]
    x.flat[gen.choice(x.size, size=120, replace=False)] = gen.choice(specials, size=120)
    x[0, 0, 0] = -np.inf  # a row of -inf only
    x[0, 0, 1] = np.nan  # a row of NaN only
    for cols in (1, 2, 7):
        part = np.ascontiguousarray(x[..., :cols])
        want = np.max(part, axis=-1)
        assert _max_last_axis(part).tobytes() == want.tobytes()
        with np.errstate(invalid="ignore"):
            shifted = part - want[..., None]
            e = np.exp(shifted)
            oracle = e / np.sum(e, axis=-1, keepdims=True)
            assert softmax_rows(part).tobytes() == oracle.tobytes()


def test_softmax_rows_matches_vector_softmax():
    gen = np.random.default_rng(10)
    x = gen.normal(size=(4, 5))
    rows = softmax_rows(x)
    for i in range(4):
        assert np.array_equal(rows[i], softmax(x[i]))
    batched = gen.normal(size=(3, 4, 5))
    out = softmax_rows(batched)
    for b in range(3):
        for i in range(4):
            assert np.array_equal(out[b, i], softmax(batched[b, i]))


def test_softmax_rows_backward_matches_fd():
    gen = np.random.default_rng(11)
    x = gen.normal(size=(3, 4))
    g = gen.normal(size=(3, 4))
    analytic = softmax_rows_backward(softmax_rows(x), g)
    fd = finite_diff_grad(lambda v: float(np.sum(softmax_rows(v) * g)), x)
    assert rel_error(analytic, fd) < 1e-4


def test_fd_quadratic():
    fd = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), eps=1e-5)
    assert abs(fd[0] - 6.0) < 1e-8


def test_fd_constant_function():
    fd = finite_diff_grad(lambda x: 7.25, np.ones(4))
    assert np.max(np.abs(fd)) < 1e-9


def test_fd_sigmoid_sum_matches_analytic():
    gen = np.random.default_rng(12)
    x = gen.normal(size=6)
    fd = finite_diff_grad(lambda v: float(np.sum(sigmoid(v))), x)
    s = sigmoid(x)
    assert np.max(np.abs(fd - s * (1 - s))) < 1e-7


def test_fd_eps_validation():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda x: 0.0, np.ones(2), eps=1e-2)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda x: 0.0, np.ones(2), eps=1e-8)


def test_fd_nonfinite_objective_raises():
    with pytest.raises(NumericError):
        finite_diff_grad(lambda x: float("nan"), np.ones(2))


def test_rel_error_floored_denominator():
    assert rel_error(np.zeros(3), np.zeros(3)) == 0.0
    # tiny absolute differences below the floor stay small
    assert rel_error(np.array([0.0]), np.array([1e-6])) < 2e-3
    assert abs(rel_error(np.array([2.0]), np.array([1.0])) - 0.5) < 1e-12
    with pytest.raises(DimensionError):
        rel_error(np.ones(2), np.ones(3))


def test_rng_identical_seed_identical_stream():
    a = Rng(42).normal((8,))
    b = Rng(42).normal((8,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, Rng(43).normal((8,)))


def test_rng_rejects_negative_seed():
    with pytest.raises(ValueError):
        Rng(-1)


def test_rng_child_streams_are_stable_and_distinct():
    root = Rng(5)
    c1 = root.child(1).normal((4,))
    c2 = root.child(2).normal((4,))
    assert np.array_equal(c1, Rng(5).child(1).normal((4,)))
    assert not np.array_equal(c1, c2)


def test_rng_permutation_deterministic():
    assert np.array_equal(Rng(3).permutation(10), Rng(3).permutation(10))


def test_one_blas_thread_pins_one_thread_and_restores_the_count():
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy carries no OpenBLAS with a thread-count call")
    get, put = calls
    start = get()
    try:
        put(2)
        with pytest.raises(KeyError):
            with one_blas_thread():
                assert get() == 1
                with one_blas_thread():
                    assert get() == 1
                assert get() == 1
                raise KeyError
        assert get() == 2
    finally:
        put(start)


def test_interleaved_blocks_restore_the_count_when_the_last_one_leaves():
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy carries no OpenBLAS with a thread-count call")
    get, put = calls
    start = get()
    try:
        put(2)
        a, b = one_blas_thread(), one_blas_thread()
        a.__enter__()
        assert get() == 1
        b.__enter__()
        assert get() == 1
        a.__exit__(None, None, None)
        assert get() == 1
        b.__exit__(None, None, None)
        assert get() == 2
    finally:
        put(start)


def test_one_blas_thread_keeps_its_count_under_contention():
    calls = numerics._openblas_thread_calls()
    if calls is None:
        pytest.skip("numpy carries no OpenBLAS with a thread-count call")
    get, put = calls
    start, interval = get(), sys.getswitchinterval()
    seen = []

    def enter_and_leave():
        for _ in range(200):
            with one_blas_thread():
                seen.append(get())

    threads = [threading.Thread(target=enter_and_leave)
               for _ in range(len(os.sched_getaffinity(0)) + 2)]
    try:
        put(2)
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 200 * len(threads) and set(seen) == {1}
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(start)


def test_one_blas_thread_does_nothing_without_the_calls(monkeypatch):
    real = numerics._openblas_thread_calls()
    count = real[0] if real else lambda: None
    before = count()
    monkeypatch.setattr(numerics, "_openblas_thread_calls", lambda: None)
    with one_blas_thread():
        assert count() == before
        a = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(a @ a.T, [[5.0, 14.0], [14.0, 50.0]])
    assert count() == before
