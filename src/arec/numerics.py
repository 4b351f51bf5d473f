"""Dense float64 tensor primitives: the activations and softmaxes the model
runs, the OpenBLAS thread pin, and the seeded random source.

The model's contractions run as BLAS products.  The einsum kernels that the
tests check those products against, and the finite-difference gradient
checker, live with the tests (`tests/oracle.py`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
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


def softmax(x: Tensor) -> Tensor:
    """Softmax of a vector, max-subtracted for stability."""
    if x.ndim != 1 or x.size == 0:
        raise DimensionError(f"softmax expects a non-empty vector, got shape {x.shape}")
    e = np.exp(x - np.max(x))
    return e / np.sum(e)


def softmax_backward(out: Tensor, grad: Tensor) -> Tensor:
    """Backward through softmax given its forward output."""
    return out * (grad - np.dot(grad, out))


def _max_last_axis(x: Tensor) -> Tensor:
    """`np.max(x, axis=-1)` bit for bit, NaN included, as a fold of `np.maximum`:
    several times faster over the short rows of attention scores."""
    peak = x[..., 0].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(peak, x[..., j], out=peak)
    return peak


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis of a tensor of any rank >= 1."""
    if x.shape[-1] == 0:
        raise DimensionError("softmax over an empty axis")
    shifted = x - _max_last_axis(x)[..., None]
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def softmax_rows_backward(out: Tensor, grad: Tensor) -> Tensor:
    return out * (grad - np.sum(grad * out, axis=-1, keepdims=True))


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


# the number of blocks inside `one_blas_thread`, and the count the first one found
_pin_lock = threading.Lock()
_pin_holders, _pin_before = 0, None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    The model's GEMMs are small, and its two attention branches already run
    on two threads: a second BLAS thread per product only contends for the
    same cores.  Inside the block, results cannot depend on the thread count
    the environment asked for.  Blocks may overlap, in one thread or several:
    the first to enter pins the count and the last to leave restores it.
    Where numpy has no OpenBLAS of its own, this does nothing.
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
    try:
        yield
    finally:
        with _pin_lock:
            _pin_holders -= 1
            if not _pin_holders:
                put(_pin_before)


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


class ZeroInit:
    """An Rng stand-in for building parameter containers whose values come
    from elsewhere: every `normal` draw is zeros, and no random number is made."""

    def normal(self, shape, std: float = 1.0) -> Tensor:
        return np.zeros(shape, dtype=np.float64)
