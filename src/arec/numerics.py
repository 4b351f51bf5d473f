"""Dense float64 tensor primitives with reproducible numerics.

The matmul kernels here are single-threaded and accumulate sums sequentially
over the contracted axis (np.einsum without optimization does exactly that),
so repeated calls are bit-identical and naive hand-written oracles can be
compared for exact equality in tests.  The model code does not call them:
its contractions run as BLAS products, and the tests check those against
these kernels.  The finite-difference gradient checker at the bottom is the
reference every backward pass in this package is validated against.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
from typing import Callable

import numpy as np

# A tensor is a C-contiguous float64 ndarray.
Tensor = np.ndarray


class DimensionError(ValueError):
    """Shapes of the operands do not line up."""


class NumericError(ArithmeticError):
    """A computation produced NaN/Inf from finite inputs."""


# ---------------------------------------------------------------------------
# elementary operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product with sequential (row-major) accumulation.

    Bit-identical to the entry-by-entry triple loop, unlike BLAS which
    reassociates partial sums.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    return np.einsum("ik,kj->ij", a, b, optimize=False)


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
# batched contractions: the oracle for the BLAS products of the model
# forward/backward passes.  np.einsum without optimization accumulates
# sequentially per output element, so each batch item comes out bit-identical
# to the per-example matmul above.


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """(B,m,k) @ (B,k,n) -> (B,m,n)."""
    return np.einsum("bik,bkj->bij", a, b, optimize=False)


def bmm_nt(a: Tensor, b: Tensor) -> Tensor:
    """(B,m,k) @ (B,n,k)^T -> (B,m,n)."""
    return np.einsum("bik,bjk->bij", a, b, optimize=False)


def bmm_tn(a: Tensor, b: Tensor) -> Tensor:
    """(B,m,k)^T @ (B,m,n) -> (B,k,n), batched."""
    return np.einsum("bik,bij->bkj", a, b, optimize=False)


def mm_tn(a: Tensor, b: Tensor) -> Tensor:
    """a^T @ b without materializing the transpose."""
    return np.einsum("ik,ij->kj", a, b, optimize=False)


def mm_nt(a: Tensor, b: Tensor) -> Tensor:
    """a @ b^T without materializing the transpose."""
    return np.einsum("ij,kj->ik", a, b, optimize=False)


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


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count.

    The model's GEMMs are small, and its two attention branches already run
    on two threads: a second BLAS thread per product only contends for the
    same cores.  Inside the block, results cannot depend on the thread count
    the environment asked for.  Where numpy has no OpenBLAS of its own, this
    does nothing.
    """
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


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


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_grad(f: Callable[[Tensor], float], x: Tensor, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function at x.

    `f` must be pure and deterministic; eps is restricted to the range where
    central differences are trustworthy in float64.
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ValueError(f"eps {eps} outside [1e-7, 1e-3]")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros(x.size, dtype=np.float64)
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += eps
        xm = x.copy()
        xm.flat[i] -= eps
        fp = float(f(xp))
        fm = float(f(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NumericError(f"non-finite objective at coordinate {i}")
        grad[i] = (fp - fm) / (2.0 * eps)
    return grad.reshape(x.shape)


def rel_error(a: Tensor, b: Tensor, floor: float = 1e-3) -> float:
    """Worst-case elementwise relative difference between two gradients.

    The denominator is floored so near-zero entries compare by absolute
    error instead of blowing up.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"rel_error shapes differ: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / den))
