import numpy as np
import pytest

from specdrive import kernels
from specdrive.errors import ShapeMismatch


def rand_conv(rng, h, w, cin, cout, k=3):
    x = rng.normal(0, 1, (h, w, cin)).astype(np.float32)
    wt = rng.normal(0, 0.5, (k, k, cin, cout)).astype(np.float32)
    b = rng.normal(0, 0.1, cout).astype(np.float32)
    return x, wt, b


def test_conv_identity_impulse(rng):
    x = rng.uniform(0, 1, (9, 9, 1)).astype(np.float32)
    w = np.zeros((3, 3, 1, 1), np.float32)
    w[1, 1, 0, 0] = 1.0
    b = np.zeros(1, np.float32)
    out = kernels.conv2d(x, w, b)
    assert np.allclose(out, x, atol=1e-7)


def test_conv_matches_naive(rng):
    for _ in range(10):
        x, w, b = rand_conv(rng, 6, 7, 3, 4)
        fast = kernels.conv2d(x, w, b)
        slow = kernels.conv2d_naive(x, w, b)
        assert np.abs(fast - slow).max() <= 1e-5


def test_conv1_matches_naive(rng):
    x, w, b = rand_conv(rng, 5, 5, 4, 2, k=1)
    assert np.abs(kernels.conv2d(x, w, b) - kernels.conv2d_naive(x, w, b)).max() <= 1e-5


def test_upconv_doubles_and_matches_naive(rng):
    x = rng.normal(0, 1, (4, 5, 3)).astype(np.float32)
    w = rng.normal(0, 0.5, (2, 2, 3, 2)).astype(np.float32)
    b = rng.normal(0, 0.1, 2).astype(np.float32)
    fast = kernels.upconv2(x, w, b)
    assert fast.shape == (8, 10, 2)
    assert np.abs(fast - kernels.upconv2_naive(x, w, b)).max() <= 1e-5


def test_maxpool_matches_naive(rng):
    x = rng.normal(0, 1, (6, 8, 3)).astype(np.float32)
    assert np.array_equal(kernels.maxpool2(x), kernels.maxpool2_naive(x))
    with pytest.raises(ShapeMismatch):
        kernels.maxpool2(x[:5])


def test_dense_matches_naive(rng):
    x = rng.normal(0, 1, (7, 10)).astype(np.float32)
    w = rng.normal(0, 0.5, (10, 4)).astype(np.float32)
    b = rng.normal(0, 0.1, 4).astype(np.float32)
    assert np.abs(kernels.dense(x, w, b) - kernels.dense_naive(x, w, b)).max() <= 1e-5


def test_softmax_normalizes(rng):
    x = rng.normal(0, 5, (4, 4, 6)).astype(np.float32)
    s = kernels.softmax(x)
    assert (s > 0).all() and (s < 1).all()
    assert np.abs(s.sum(-1) - 1).max() <= 1e-5


def _softmax_reduce_max(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("classes", [2, 3, 4, 5])
def test_softmax_matches_reduce_max_formula(rng, classes):
    """The slice-wise max gives the same bits as a max over the last axis,
    with ties, signed zeros, infinities and NaN, on a strided input too."""
    x = rng.normal(0, 3, (9, 11, classes)).astype(np.float32)
    x[0, :, 1] = x[0, :, 0]
    x[1, 0] = 0.0
    x[1, 1, 0] = -0.0
    x[2, 0, -1] = np.inf
    x[2, 1] = -np.inf
    x[2, 2, 0] = -np.inf
    x[2, 3, 1] = np.nan
    x[2, 4] = np.inf
    strided = np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
    with np.errstate(invalid="ignore"):  # inf - inf
        for arr in (x, x[::2, ::3], strided):
            assert np.array_equal(kernels.softmax(arr), _softmax_reduce_max(arr),
                                  equal_nan=True)


@pytest.mark.parametrize("classes", range(2, 13))
def test_softmax_sum_matches_numpy_sum(rng, classes):
    """The denominator's class-slice adds give e.sum's bits up to 7 classes,
    where numpy sums a last axis left to right, on magnitudes from 1e-8 to
    1e8 and on strided inputs. From 8 classes numpy changes its order, so
    there the two agree to rtol 1e-6, with the same argmax wherever the top
    two probabilities are further apart than that."""
    for mag in 10.0 ** np.arange(-8, 9, 2):
        x = (rng.standard_normal((6, 10, classes)) * mag).astype(np.float32)
        for arr in (x, x[::2, ::3], x.transpose(1, 0, 2)):
            got, want = kernels.softmax(arr), _softmax_reduce_max(arr)
            if classes <= 7:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-6,
                                           atol=np.finfo(np.float32).tiny)
                top = np.sort(want, axis=-1)
                clear = top[..., -1] - top[..., -2] > 1e-6 * top[..., -1]
                assert np.array_equal(got.argmax(-1)[clear], want.argmax(-1)[clear])


def test_band_norm_sums_to_one_and_guards_zero(rng):
    x = rng.uniform(0.1, 1, (3, 3, 25)).astype(np.float32)
    x[0, 0] = 0.0
    out = kernels.band_norm(x)
    assert np.array_equal(out[0, 0], np.zeros(25, np.float32))
    sums = out[1:].sum(-1)
    assert np.abs(sums - 1).max() <= 1e-6


def test_int_conv_fast_equals_naive_bitwise(rng):
    for _ in range(10):
        xq = rng.integers(-128, 128, (5, 6, 3)).astype(np.int8)
        wq = rng.integers(-127, 128, (3, 3, 3, 4)).astype(np.int8)
        bias = rng.integers(-1000, 1000, 4).astype(np.int32)
        zp = int(rng.integers(-100, 100))
        fast = kernels.conv2d_int(xq, zp, wq, bias)
        slow = kernels.conv2d_int_naive(xq, zp, wq, bias)
        assert fast.dtype == np.int32
        assert np.array_equal(fast, slow)


def test_int_upconv_and_dense_bitwise(rng):
    xq = rng.integers(-128, 128, (3, 4, 5)).astype(np.int8)
    wq = rng.integers(-127, 128, (2, 2, 5, 3)).astype(np.int8)
    bias = rng.integers(-500, 500, 3).astype(np.int32)
    assert np.array_equal(
        kernels.upconv2_int(xq, 7, wq, bias), kernels.upconv2_int_naive(xq, 7, wq, bias)
    )
    dq = rng.integers(-128, 128, (9, 12)).astype(np.int8)
    dw = rng.integers(-127, 128, (12, 5)).astype(np.int8)
    db = rng.integers(-500, 500, 5).astype(np.int32)
    assert np.array_equal(
        kernels.dense_int(dq, -3, dw, db), kernels.dense_int_naive(dq, -3, dw, db)
    )


def test_accumulator_bound_guard():
    with pytest.raises(ShapeMismatch):
        kernels._check_acc_bound(70000, np.array([0], np.int32))
    # the reference geometry is comfortably safe: 3x3 kernel, 32 channels
    kernels._check_acc_bound(9 * 32, np.array([2**20], np.int32))


def test_relu_int_clamps_at_zero_point():
    q = np.array([-128, -5, -4, 0, 127], np.int8)
    out = kernels.relu_int(q, -4)
    assert np.array_equal(out, np.array([-4, -4, -4, 0, 127], np.int8))


@pytest.mark.parametrize("over, acc", [(0, np.float32), (1, np.float64)],
                         ids=["2^24-1", "2^24"])
@pytest.mark.parametrize("kernel, xshape, wshape", [
    ("conv2d", (3, 3, 57), (3, 3, 57, 2)),    # 513 terms at the centre pixel
    ("upconv2", (2, 2, 518), (2, 2, 518, 2)),  # 518 terms
    ("dense", (4, 518), (518, 2)),
], ids=["conv2d", "upconv2", "dense"])
def test_int_kernels_exact_at_float32_bound(kernel, xshape, wshape, over, acc):
    """Worst-case operands (input -128 at zero point 127, weights -127 and
    127) with the bias chosen so the largest |accumulator| is 2^24 - 1, the
    last value of the float32 path, or 2^24, the first of the float64 path."""
    n_terms = int(np.prod(wshape[:-1])) if kernel == "conv2d" else wshape[-2]
    bias = 2**24 - 1 + over - n_terms * 255 * 127
    xq = np.full(xshape, -128, np.int8)
    wq = np.empty(wshape, np.int8)
    wq[..., 0], wq[..., 1] = -127, 127
    bq = np.array([bias, -bias], np.int32)
    assert kernels._check_acc_bound(n_terms, bq) is acc
    fast = getattr(kernels, f"{kernel}_int")(xq, 127, wq, bq)
    slow = getattr(kernels, f"{kernel}_int_naive")(xq, 127, wq, bq)
    assert fast.dtype == np.int32 and np.array_equal(fast, slow)
    assert fast.max() == 2**24 - 1 + over and fast.min() == -(2**24 - 1 + over)
