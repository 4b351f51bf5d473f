"""Dense float64 tensor primitives: the activations and softmaxes the model
runs, the OpenBLAS thread pin, the seeded random source, and the layout of
a model's tensors in one flat buffer.

The model's contractions run as BLAS products.  The einsum kernels and the
vector softmax that the tests check them and `softmax_rows` against, and the
finite-difference gradient checker, live in `tests/oracle.py`.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import threading

import numpy as np

# A tensor is a C-contiguous float64 ndarray.
Tensor = np.ndarray


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


# ---------------------------------------------------------------------------
# elementary operations


def sigmoid(x: Tensor) -> Tensor:
    """Elementwise 1/(1+exp(-x)), stable for arbitrarily large |x|."""
    x = np.asarray(x, dtype=np.float64)
    p = 1.0 / (1.0 + np.exp(-np.abs(x)))  # exp of a non-positive value, cannot overflow
    return np.where(x >= 0, p, 1.0 - p)


def relu(x: Tensor) -> Tensor:
    return np.maximum(x, 0.0)


def _max_last_axis(x: Tensor) -> Tensor:
    """`np.max(x, axis=-1)` bit for bit, NaN included, as a fold of `np.maximum`:
    several times faster over the short rows of attention scores."""
    peak = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(peak, x[..., j], out=peak)
    return peak


# numpy adds fewer terms than this one by one, from 0.0; more, pairwise
_FOLD_WIDTH = 8


def _sum_last_axis(x: Tensor) -> Tensor:
    """`np.sum(x, axis=-1)` bit for bit.  Rows shorter than `_FOLD_WIDTH` are
    summed as numpy sums them, a left fold from 0.0, one column at a time:
    several times faster over the short rows of attention scores."""
    if x.shape[-1] >= _FOLD_WIDTH:
        return np.sum(x, axis=-1)
    total = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        total += x[..., j]
    return total


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis of a tensor of any rank >= 1."""
    if x.shape[-1] == 0:
        raise DimensionError("softmax over an empty axis")
    shifted = x - _max_last_axis(x)[..., None]
    e = np.exp(shifted)
    return e / _sum_last_axis(e)[..., None]


def softmax_rows_backward(out: Tensor, grad: Tensor) -> Tensor:
    return out * (grad - _sum_last_axis(grad * out)[..., None])


# ---------------------------------------------------------------------------
# BLAS threads


@functools.lru_cache(maxsize=None)
def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or
    None where numpy carries no OpenBLAS that exports them."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


# the blocks inside `one_blas_thread` (in all threads, in this thread), and the
# count the first one found (None while no block holds the pin)
_pin_lock = threading.Lock()
_pin_holders, _pin_before = 0, None
_pin_mine = threading.local()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    The model's GEMMs are small, and its two attention branches already run
    on two threads: a second BLAS thread per product only contends for the
    same cores.  Inside the block, results cannot depend on the thread count
    the environment asked for.  Blocks may overlap, in one thread or several:
    the first to enter pins the count and the last to leave restores it.  A
    forked child keeps only the forking thread's blocks.  Where numpy has no
    OpenBLAS of its own, this does nothing.
    """
    global _pin_holders, _pin_before
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    with _pin_lock:
        if not _pin_holders:
            _pin_before = get()
            put(1)
        _pin_holders += 1
        _pin_mine.n = getattr(_pin_mine, "n", 0) + 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            _pin_mine.n -= 1
            if not _pin_holders:
                put(_pin_before)
                _pin_before = None


def _pin_after_fork():
    # a child has only the forking thread; the lock may have been held at the fork
    global _pin_lock, _pin_holders, _pin_before
    _pin_lock, _pin_holders = threading.Lock(), getattr(_pin_mine, "n", 0)
    if not _pin_holders and _pin_before is not None:
        _openblas_thread_calls()[1](_pin_before)
        _pin_before = None


os.register_at_fork(after_in_child=_pin_after_fork)


# ---------------------------------------------------------------------------
# seedable randomness


class Rng:
    """Deterministic random source: one seed, one platform-independent stream.

    PCG64 underneath; the draw sequence depends only on the seed (and numpy
    version), never on the machine.  All parameter initialization and data
    shuffling in this package flows through an Rng so runs are reproducible
    bit-for-bit.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def normal(self, shape, std: float = 1.0) -> Tensor:
        return self._gen.standard_normal(shape, dtype=np.float64) * std

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def child(self, tag: int) -> "Rng":
        """Independent stream derived from (seed, tag); same pair, same stream."""
        rng = Rng.__new__(Rng)
        rng.seed = self.seed
        rng._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, int(tag)]))
        )
        return rng


# ---------------------------------------------------------------------------
# one flat buffer per model


class Layout:
    """A model's tensors as consecutive blocks of one flat float64 buffer.

    `build(blocks)` makes the model's container: it takes every tensor through
    `blocks.take` and draws through `blocks.fill`, in the seeded order.  One
    build over no buffer counts the `size`, before any draw.  Parameters,
    gradients, Adam's moments and snapshots are containers of one layout over
    different buffers.
    """

    def __init__(self, build):
        counter = _Blocks(None, None)
        build(counter)
        self.build, self.size = build, counter.size

    def bind(self, flat: Tensor, rng: Rng = None):
        """The container over `flat` (it keeps `flat` and this layout), drawn from an `rng`."""
        container = self.build(_Blocks(flat, rng))
        container.flat, container.layout = flat, self
        return container

    def zeros(self, rng: Rng = None):
        return self.bind(np.zeros(self.size), rng)


class _Blocks:
    """The next blocks of `flat` (over no buffer, unfilled scratch arrays, to
    count them); draws only with an `rng`."""

    def __init__(self, flat: Tensor, rng: Rng):
        self.flat, self.rng, self.size = flat, rng, 0

    def take(self, shape, std: float = None) -> Tensor:
        n = math.prod(shape)
        block = (np.empty(shape) if self.flat is None
                 else self.flat[self.size : self.size + n].reshape(shape))
        self.size += n
        return block if std is None else self.fill(block, std)

    def fill(self, view: Tensor, std: float) -> Tensor:
        if self.rng is not None:
            view[...] = self.rng.normal(view.shape, std)
        return view
