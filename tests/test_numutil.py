"""The numpy entropy kernels and the log-factorial helper.

scipy.special is the reference here only: the package itself does not
import scipy."""

import math

import numpy as np
import pytest
from scipy import special

from hmmentropy.numutil import entr, log_factorial, xlogy

EDGES = np.array([0.0, -0.0, -1.0, -5e-324, -np.inf, np.nan, np.inf,
                  5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0,
                  2.0, 1e300, 1.7e308])


def assert_same_values(got, want):
    """Equal shapes and bits, NaN matching NaN of either sign."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


class TestKernelsAgainstScipy:
    def test_entr_edges(self):
        assert_same_values(entr(EDGES), special.entr(EDGES))

    def test_xlogy_edge_grid(self):
        x, y = np.meshgrid(EDGES, EDGES)
        assert_same_values(xlogy(x, y), special.xlogy(x, y))

    def test_zero_is_positive_zero(self):
        assert not np.signbit(entr(np.array([0.0, -0.0]))).any()
        y = EDGES[~np.isnan(EDGES)]
        for x in (0.0, -0.0):
            got = xlogy(np.full_like(y, x), y)
            assert np.array_equal(got, np.zeros_like(y))
            assert not np.signbit(got).any()
        # 0 log NaN stays NaN; x > 0 against y = 0 is -inf
        assert np.isnan(xlogy(0.0, np.nan))
        assert xlogy(2.0, 0.0) == -np.inf

    def test_scalars_give_scalars(self):
        assert isinstance(entr(0.5), np.float64)
        assert isinstance(xlogy(2.0, 3.0), np.float64)
        assert entr(0.5) == special.entr(0.5)

    def test_no_floating_point_warning(self):
        """Not even where the caller raises on every floating-point flag:
        log 0, log of a negative, 0 * inf and an overflowing product are
        values, as in scipy.  pytest's filterwarnings = error turns any
        RuntimeWarning into a failure as well."""
        x, y = np.meshgrid(EDGES, EDGES)
        with np.errstate(all="raise"):
            entr(EDGES)
            xlogy(x, y)
        with np.errstate(all="warn"):
            entr(EDGES)
            xlogy(x, y)

    def test_random_values_within_two_ulps(self):
        """np.log and the C library's log may round apart by an ulp, and
        the product by one more."""
        rng = np.random.default_rng(18)
        x = 10.0 ** rng.uniform(-300, 300, 10_000)
        p = rng.random((1000, 4))
        np.testing.assert_array_max_ulp(entr(x), special.entr(x), maxulp=2)
        np.testing.assert_array_max_ulp(entr(p), special.entr(p), maxulp=2)
        np.testing.assert_array_max_ulp(xlogy(p, p[::-1]),
                                        special.xlogy(p, p[::-1]), maxulp=2)


def _layouts():
    """Non-contiguous views of a (6, 5) table, with zeros in it."""
    rng = np.random.default_rng(7)
    base = rng.random((6, 5))
    base[1, 2] = base[4, 0] = 0.0
    return {
        "fortran": np.asfortranarray(base),
        "transposed": np.ascontiguousarray(base.T).T,
        "strided": np.repeat(np.repeat(base, 2, axis=0), 3, axis=1)[::2, ::3],
        "broadcast": np.broadcast_to(base[2], (6, 5)),
        "reversed": base[::-1, ::-1],
    }


class TestMemoryOrder:
    """A result comes in the memory order a ufunc gives the input, and
    with the bits of the result on its C-contiguous copy: row sums of it
    then round as they do for a ufunc's result."""

    @pytest.mark.parametrize("layout", sorted(_layouts()))
    def test_entr(self, layout):
        x = _layouts()[layout]
        got = entr(x)
        assert got.strides == special.entr(x).strides
        assert got.tobytes() == entr(np.ascontiguousarray(x)).tobytes()

    @pytest.mark.parametrize("layout", sorted(_layouts()))
    def test_xlogy(self, layout):
        x = _layouts()[layout]
        y = x[::-1] + 0.25
        got = xlogy(x, y)
        assert got.strides == special.xlogy(x, y).strides
        want = xlogy(np.ascontiguousarray(x), np.ascontiguousarray(y))
        assert got.tobytes() == want.tobytes()

    def test_xlogy_broadcasts_its_arguments(self):
        x = np.arange(4.0)[:, None]
        y = np.array([[0.0, 0.5, 3.0]])
        got = xlogy(x, y)
        assert got.shape == (4, 3)
        assert_same_values(got, special.xlogy(x, y))
        assert_same_values(xlogy(x[:, 0], 2.5), special.xlogy(x[:, 0], 2.5))


class TestLogFactorial:
    def test_within_two_ulps_of_the_sum_of_logs(self):
        """Against the correctly rounded sum of the rounded log k, carried
        exactly enough as a double-double of fsums, for every x <= 10^4.
        Measured (numpy 2.4.6, CPython 3.11): at most 1 ulp up to 170,
        where the helper logs the exact x!, and 2 ulps above, at x = 224
        first, from math.lgamma.  math.lgamma alone is 3 ulps off at
        x = 2, 3 and 4, and scipy's gammaln 3 ulps at x = 4159."""
        top = 10 ** 4
        want = np.zeros(top + 1)
        hi = lo = 0.0
        for k in range(2, top + 1):
            terms = (hi, lo, math.log(k))
            hi = math.fsum(terms)
            lo = math.fsum(terms + (-hi,))
            want[k] = hi
        got = log_factorial(np.arange(top + 1))
        assert got[0] == got[1] == 0.0
        ulps = np.abs(got[2:] - want[2:]) / np.spacing(want[2:])
        assert ulps[:169].max() <= 1
        assert ulps.max() <= 2

    def test_keeps_the_shape(self):
        """numpy 1 returns the inverse of np.unique flat and numpy 2 in the
        input's shape; the helper gives the input's shape under both."""
        x = np.array([[3, 0, 3], [171, 5, 1000]])
        got = log_factorial(x)
        assert got.shape == x.shape
        assert got.dtype == np.float64
        assert np.array_equal(got.ravel(), log_factorial(x.ravel()))
        assert got[1, 0] == math.lgamma(172.0)
        assert got[0, 0] == math.log(6)
        assert log_factorial(np.zeros(0, dtype=np.int64)).shape == (0,)
