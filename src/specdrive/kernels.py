"""Tensor kernels for inference, in optimized and naive reference form.

Layout convention is channel-last: spatial tensors are (H, W, C), conv
weights are (kh, kw, C_in, C_out), dense weights (N_in, N_out). The naive
variants are deliberately plain loops; they exist as oracles for the
optimized ones and as the non-vectorized path of the benchmark harness.

Integer kernels accumulate in 32 bits. The naive ones (*_int_naive) take
int8 data, the input's zero point, an int8 weight and an int32 bias, and
return the int32 accumulator in int64 loops: they are the oracle. The
optimized ones (conv2d_int, upconv2_int, dense_int) run the accumulation
through float BLAS in the dtype _check_acc_bound picks for the layer:
float32 when its worst-case sum (terms x 255 x 127 plus the largest bias)
stays below 2^24, float64 otherwise. Every partial product and sum is then
an integer the dtype represents exactly (below 2^24 in float32, far below
2^53 in float64), in any summation order, so the result is bit-identical to
true int32 accumulation. They take the input centered, as the float array
xq - zero point, and the weight and bias already in that dtype (quant
resolves them once per layer), so an input in the dtype is used as it is,
and they return the exact accumulator in the dtype, not cast to int32. A
bias of None leaves it out, for a caller that adds it later.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch

BN_EPS = 1e-5


def _same_pad(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    ph, pw = kh // 2, kw // 2
    if ph == 0 and pw == 0:
        return x
    h, w, c = x.shape
    xp = np.zeros((h + 2 * ph, w + 2 * pw, c), x.dtype)
    xp[ph : ph + h, pw : pw + w] = x
    return xp


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Same-padded stride-1 convolution: the bias (None: none) plus one
    matmul per kernel tap, each over the input shifted by that tap."""
    kh, kw, cin, cout = w.shape
    if x.shape[-1] != cin:
        raise ShapeMismatch(f"conv input has {x.shape[-1]} channels, weight wants {cin}")
    h, wd = x.shape[:2]
    xp = _same_pad(x, kh, kw)
    b = 0 if b is None else b
    out = np.empty((h, wd, cout), np.result_type(x, w, b))
    out[...] = b
    for i in range(kh):
        for j in range(kw):
            out += xp[i : i + h, j : j + wd] @ w[i, j]
    return out


def conv2d_naive(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    kh, kw, cin, cout = w.shape
    h, wd = x.shape[:2]
    xp = _same_pad(x, kh, kw)
    wflat = w.reshape(kh * kw * cin, cout)
    out = np.empty((h, wd, cout), dtype=x.dtype)
    for i in range(h):
        for j in range(wd):
            window = xp[i : i + kh, j : j + kw].reshape(-1)
            for o in range(cout):
                out[i, j, o] = np.dot(window, wflat[:, o]) + b[o]
    return out


def upconv2(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Transposed convolution, kernel 2, stride 2: exactly doubles H and W;
    b is the bias, or None for none."""
    kh, kw, cin, cout = w.shape
    if (kh, kw) != (2, 2):
        raise ShapeMismatch("up-convolution kernel must be 2x2")
    if x.shape[-1] != cin:
        raise ShapeMismatch(f"upconv input has {x.shape[-1]} channels, weight wants {cin}")
    h, wd = x.shape[:2]
    out = np.einsum("ijc,abco->iajbo", x, w, optimize=True)
    out = out.reshape(2 * h, 2 * wd, cout)
    return out if b is None else out + b


def upconv2_naive(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    h, wd, cin = x.shape
    cout = w.shape[-1]
    out = np.empty((2 * h, 2 * wd, cout), dtype=x.dtype)
    for i in range(h):
        for j in range(wd):
            for a in range(2):
                for bb in range(2):
                    for o in range(cout):
                        out[2 * i + a, 2 * j + bb, o] = (
                            np.dot(x[i, j], w[a, bb, :, o]) + b[o]
                        )
    return out


def maxpool2(x: np.ndarray) -> np.ndarray:
    h, wd, c = x.shape
    if h % 2 or wd % 2:
        raise ShapeMismatch(f"maxpool2 needs even spatial dims, got {(h, wd)}")
    v = x.reshape(h // 2, 2, wd // 2, 2, c)
    rows = np.maximum(v[:, 0], v[:, 1])
    return np.maximum(rows[:, :, 0], rows[:, :, 1])


def maxpool2_naive(x: np.ndarray) -> np.ndarray:
    h, wd, c = x.shape
    out = np.empty((h // 2, wd // 2, c), dtype=x.dtype)
    for i in range(h // 2):
        for j in range(wd // 2):
            for ch in range(c):
                block = x[2 * i : 2 * i + 2, 2 * j : 2 * j + 2, ch]
                out[i, j, ch] = block.max()
    return out


def dense(x: np.ndarray, w: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """Affine map over the last axis (b None: linear); leading axes are
    batch/spatial."""
    if x.shape[-1] != w.shape[0]:
        raise ShapeMismatch(f"dense input width {x.shape[-1]} != weight rows {w.shape[0]}")
    return x @ w if b is None else x @ w + b


def dense_naive(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    flat = x.reshape(-1, x.shape[-1])
    out = np.empty((flat.shape[0], w.shape[1]), dtype=x.dtype)
    for n in range(flat.shape[0]):
        for o in range(w.shape[1]):
            out[n, o] = np.dot(flat[n], w[:, o]) + b[o]
    return out.reshape(*x.shape[:-1], w.shape[1])


def batchnorm_infer(x, scale, offset, mean, var):
    inv = scale / np.sqrt(var + BN_EPS)
    return (x - mean) * inv + offset


def relu(x):
    return np.maximum(x, 0)


def softmax(x: np.ndarray) -> np.ndarray:
    # a max over the few classes as np.maximum of their slices: numpy reduces
    # a short last axis slowly, and a max's bits do not depend on its order
    m = x[..., :1].copy()
    for k in range(1, x.shape[-1]):
        np.maximum(m, x[..., k : k + 1], out=m)
    e = np.exp(x - m)
    # the denominator as left-to-right adds of the class slices: the order
    # numpy's sum takes on a last axis of up to 7 entries, at a tenth of its
    # cost (tests pin the bits against e.sum for 2-7 classes)
    s = e[..., :1].copy()
    for k in range(1, e.shape[-1]):
        s += e[..., k : k + 1]
    return np.divide(e, s, out=e)


def band_norm(x: np.ndarray) -> np.ndarray:
    """Divide each spectral vector by its band sum; all-zero vectors stay zero."""
    s = x.sum(axis=-1, keepdims=True)
    out = np.divide(x, s, out=np.zeros_like(x), where=s > 0)
    return out


def zscore(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (x - mean) / std


# ---------------------------------------------------------------------------
# integer kernels (int32 accumulators: see the module docstring)

_ACC_LIMIT = 2**31
_FLOAT32_EXACT = 2**24  # float32 holds every integer of smaller magnitude


def _check_acc_bound(n_terms: int, bias: np.ndarray | None) -> type:
    """Accumulation dtype for n_terms products of an input minus its zero
    point (|.| <= 255) and a symmetric int8 weight (|.| <= 127), plus bias:
    float32 when the worst-case |sum| is below 2^24, else float64. Raises
    when the sum could overflow an int32 accumulator."""
    peak = int(np.abs(bias, dtype=np.int64).max(initial=0)) if bias is not None else 0
    worst = n_terms * 255 * 127 + peak
    if worst >= _ACC_LIMIT:
        raise ShapeMismatch(
            f"int32 accumulator could overflow: worst case {worst} >= 2^31"
        )
    return np.float32 if worst < _FLOAT32_EXACT else np.float64


def _operands(xq, x_zp: int, wq, bias_q):
    """The naive kernels' operands as int64: the input minus its zero point,
    the weight and the bias."""
    return (np.subtract(xq, x_zp, dtype=np.int64), wq.astype(np.int64),
            bias_q.astype(np.int64))


def conv2d_int(xc, w, b) -> np.ndarray:
    """Integer convolution on a centered input xc = xq - x_zp: sum(xc * w) +
    b, accumulated exactly in w's dtype (see the module docstring)."""
    return conv2d(xc.astype(w.dtype, copy=False), w, b)


def conv2d_int_naive(xq, x_zp: int, wq, bias_q) -> np.ndarray:
    """Integer convolution: sum((xq - x_zp) * wq) + bias, int32 accumulation."""
    return conv2d_naive(*_operands(xq, x_zp, wq, bias_q)).astype(np.int32)


def upconv2_int(xc, w, b) -> np.ndarray:
    return upconv2(xc.astype(w.dtype, copy=False), w, b)


def upconv2_int_naive(xq, x_zp: int, wq, bias_q) -> np.ndarray:
    return upconv2_naive(*_operands(xq, x_zp, wq, bias_q)).astype(np.int32)


def dense_int(xc, w, b) -> np.ndarray:
    return dense(xc.astype(w.dtype, copy=False), w, b)


def dense_int_naive(xq, x_zp: int, wq, bias_q) -> np.ndarray:
    return dense_naive(*_operands(xq, x_zp, wq, bias_q)).astype(np.int32)


def relu_int(xq: np.ndarray, zp: int) -> np.ndarray:
    """ReLU in the quantized domain: real zero sits at the zero point."""
    return np.maximum(xq, np.int8(zp) if xq.dtype == np.int8 else zp)


def lookup_int(xq: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """lut[xq + 128] for int8 xq and a 256-entry table from -128 up. Rolled
    by 128, the table is indexed by xq's bytes read as uint8; the roll is a
    concatenation and the lookup np.take, which cost less per call than
    np.roll and fancy indexing."""
    return np.take(np.concatenate((lut[128:], lut[:128])), xq.view(np.uint8))


FAST_KERNELS = {
    "conv2d": conv2d,
    "upconv2": upconv2,
    "maxpool2": maxpool2,
    "dense": dense,
}

NAIVE_KERNELS = {
    "conv2d": conv2d_naive,
    "upconv2": upconv2_naive,
    "maxpool2": maxpool2_naive,
    "dense": dense_naive,
}
