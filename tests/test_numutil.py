"""The numpy entropy kernels, the log-factorial helper and the step
kernels of the chain and tree recursions.

scipy.special is the reference here only: the package itself does not
import scipy."""

import math

import numpy as np
import pytest
from scipy import special

from hmmentropy.numutil import (entr, fsum, log_factorial, max_plus,
                               max_plus_step, safe_div, scaled_step,
                               tie_argmax, xlogy)

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

    @pytest.mark.parametrize("x", [EDGES, EDGES[EDGES > 0]],
                             ids=["edges", "positive"])
    def test_entr_into_out_and_in_place(self, x):
        """Into a separate out, into x itself and into an overlapping view,
        with the masks built (edges) and skipped (positive values)."""
        want = special.entr(x)
        out = np.full_like(x, 7.0)
        assert np.shares_memory(entr(x, out=out), out)
        assert_same_values(out, want)
        same = x.copy()
        entr(same, out=same)
        assert_same_values(same, want)
        reversed_in_place = x.copy()
        entr(reversed_in_place[::-1], out=reversed_in_place)
        assert_same_values(reversed_in_place, special.entr(x[::-1]))
        block = np.stack([x, x[::-1]])
        entr(block.T, out=block.T)
        assert_same_values(block, special.entr(np.stack([x, x[::-1]])))

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


def fsum_outcome(f, values):
    """f(values), or the type of what it raises, with the sign of zero."""
    try:
        value = f(values)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return repr(value), math.copysign(1.0, value)


class TestFsum:
    """fsum reads a memoryview of a contiguous float64 vector, so it sums
    the very floats of math.fsum on the values as a list."""

    @pytest.mark.parametrize("values", [
        np.array([], dtype=float),
        np.array([0.0]), np.array([-0.0]), np.array([-0.0, -0.0]),
        np.array([-0.0, 0.0]),
        np.array([1e308, 1e308, -1e308]), np.array([1e308, 1e308]),
        np.array([np.inf, 1.0]), np.array([-np.inf, -1.0]),
        np.array([np.inf, -np.inf]), np.array([np.nan, 1.0]),
        np.array([np.inf, np.nan]),
        np.array([1.0, 1e100, 1.0, -1e100]),
        np.arange(10_000) * 0.1,
    ], ids=lambda v: f"{v.size} values")
    def test_same_as_the_sum_of_the_list(self, values):
        assert fsum_outcome(fsum, values) == fsum_outcome(
            math.fsum, values.tolist())

    def test_layouts_and_dtypes(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(1001) * 10.0 ** rng.integers(-300, 300, 1001)
        read_only = x.copy()
        read_only.flags.writeable = False
        for values in (read_only, x[::3], x[::-1], x.astype(">f8"),
                       np.arange(-50, 60), np.array([2 ** 60 + 1, 3]),
                       np.float32([0.1, 0.2]), [0.1, 0.2, 0.3]):
            assert fsum_outcome(fsum, values) == fsum_outcome(
                math.fsum, np.asarray(values, dtype=float).tolist())
        assert read_only.tolist() == x.tolist()


def safe_div_reference(num, den):
    """num / den with +0.0 where den == 0, as np.where selects it."""
    with np.errstate(all="ignore"):
        return np.where(den != 0, num / den, 0.0)


class TestSafeDiv:
    """One 0/0 kernel: a plain divide when den holds no 0, the masked one
    otherwise, into a new C-ordered array or in place."""

    SPECIALS = np.array([0.0, -0.0, 1.0, -2.5, 5e-324, 1e-310, 1e308,
                         np.inf, -np.inf, np.nan])

    def cases(self):
        rng = np.random.default_rng(12)
        grid_num, grid_den = np.meshgrid(self.SPECIALS, self.SPECIALS)
        yield grid_num, grid_den
        positive = rng.random((7, 5)) + 0.5
        yield rng.standard_normal((7, 5)), positive          # no zero
        with_zeros = positive.copy()
        with_zeros[[0, 3, 6], [1, 4, 0]] = [0.0, -0.0, 0.0]
        yield rng.standard_normal((7, 5)), with_zeros
        yield rng.standard_normal((3, 4, 5)), with_zeros[:3, None, :]
        yield rng.standard_normal(5), with_zeros               # broadcast num
        yield np.asfortranarray(rng.standard_normal((7, 5))), positive.T.T
        yield np.float64(3.0), np.float64(0.0)
        yield np.float64(3.0), np.float64(-2.0)

    def test_bit_for_bit_against_where(self):
        for num, den in self.cases():
            want = safe_div_reference(num, den)
            with np.errstate(all="ignore"):
                got = safe_div(num, den)
                in_place = np.array(np.broadcast_to(num, want.shape))
                into = safe_div(in_place, den, out=in_place)
            assert got.flags.c_contiguous
            assert got.shape == want.shape and into is in_place
            assert got.tobytes() == want.tobytes()
            assert in_place.tobytes() == want.tobytes()

    def test_zero_denominators_give_positive_zero(self):
        got = safe_div(np.array([-1.0, 0.0, np.nan, np.inf]),
                       np.array([0.0, -0.0, 0.0, -0.0]))
        assert np.array_equal(got, np.zeros(4))
        assert not np.signbit(got).any()


# J and the row counts of the step kernels' pins: both sides of the 8 J
# rows at which the row maxima switch to column slices
STEP_SHAPES = [(j, rows) for j in (1, 2, 3, 4, 8, 9, 16)
               for rows in (1, 8 * j - 1, 8 * j, 8 * j + 13)]


def log_joints(rng, j, rows):
    """A (rows, J) block of log joints between -800 and 0, some cells -inf,
    one row -inf throughout, as a C-ordered slice of a larger table."""
    table = rng.uniform(-800.0, 0.0, (rows + 3, j))
    table[rng.random(table.shape) < 0.2] = -np.inf
    table[1 + rows // 2] = -np.inf
    return table[1:rows + 1]


def chain_filter_step(joint):
    """The chain filter's own step before the shared kernel."""
    top = joint.max(axis=1)
    joint = np.exp((joint.T - top).T)
    total = joint @ np.ones(joint.shape[1])
    return (joint.T / total).T, np.log(total) + top


def tree_upward_step(level, prior):
    """The tree upward pass's own in-place step before the shared kernel."""
    j = level.shape[1]
    top = np.empty(len(level))
    if len(level) < 8 * j:
        level.max(axis=1, out=top)
    else:
        np.copyto(top, level[:, 0])
        for i in range(1, j):
            np.maximum(top, level[:, i], out=top)
    level -= top[:, None]
    np.exp(level, out=level)
    total = level @ prior
    level /= total[:, None]
    return level, np.log(total) + top


class TestStepKernels:
    """scaled_step and max_plus_step give the bits of the inline forms of
    the chain and tree engines that they replace."""

    @pytest.mark.parametrize("j, rows", STEP_SHAPES)
    def test_scaled_step_is_the_chain_filter_step(self, j, rows):
        joint = log_joints(np.random.default_rng([j, rows]), j, rows)
        with np.errstate(divide="ignore", invalid="ignore"):
            want_law, want_log_norm = chain_filter_step(joint)
            block = joint.copy()
            log_norm = scaled_step(block, np.ones(j))
        assert np.isnan(log_norm[rows // 2])
        assert_same_values(block, want_law)
        assert_same_values(log_norm, want_log_norm)

    @pytest.mark.parametrize("j, rows", STEP_SHAPES)
    def test_scaled_step_is_the_tree_upward_step(self, j, rows):
        rng = np.random.default_rng([j, rows, 1])
        level = log_joints(rng, j, rows)
        prior = rng.dirichlet(np.ones(j))
        prior[rng.random(j) < 0.3] = 0.0  # zero weights
        with np.errstate(divide="ignore", invalid="ignore"):
            want_level, want_log_norm = tree_upward_step(level.copy(), prior)
            log_norm = scaled_step(level, prior)
        assert_same_values(level, want_level)
        assert_same_values(log_norm, want_log_norm)

    @pytest.mark.parametrize("j, rows", STEP_SHAPES)
    def test_max_plus_step_is_the_inline_tie_argmax(self, j, rows):
        rng = np.random.default_rng([j, rows, 2])
        with np.errstate(divide="ignore"):
            log_a = np.log(rng.dirichlet(np.ones(j), size=j))
        # ties: integer scores and a transition row of equal entries, and
        # candidates within the tie tolerance of the best
        log_a[0] = -1.0
        log_a[rng.random((j, j)) < 0.2] = -np.inf
        score = np.floor(rng.uniform(-6.0, 0.0, (j, rows + 5)))
        score[:, 1::7] += 1e-15 * rng.random((j, len(range(1, rows + 5, 7))))
        score[rng.random(score.shape) < 0.2] = -np.inf
        score[:, rows // 2] = -np.inf  # a column that is -inf throughout
        want_ptr, want_best = tie_argmax(log_a.T[:, None, :]
                                         + score[:, :rows, None])
        ptr, best = max_plus_step(log_a, score[:, :rows])
        assert np.array_equal(ptr, want_ptr)
        assert_same_values(best, want_best)
        assert not ptr[rows // 2].any()
        # as the tree passes it: a transposed (rows, J) table
        table = np.ascontiguousarray(score[:, :rows].T)
        ptr_t, best_t = max_plus_step(log_a, table.T)
        assert np.array_equal(ptr_t, want_ptr)
        assert best_t.tobytes() == best.tobytes()


def transfer_step(m, log_a):
    """chain._max_transfers' own np.maximum loop before the shared kernel:
    step[x, r, i] = max over l of m[l, r, i] + log a_lx."""
    step = m[0, None] + log_a[0, :, None, None]
    for l in range(1, log_a.shape[0]):
        np.maximum(step, m[l, None] + log_a[l, :, None, None], out=step)
    return step


def completion_step(outside, log_a, impossible):
    """The Viterbi-profile completion's own loop, after its -inf mask of
    the candidates whose child subtree is impossible."""
    outside = outside.copy()
    np.copyto(outside, -np.inf, where=impossible)
    completion = np.empty(outside.shape)
    np.add(outside[:, :1], log_a[0], out=completion)
    for i in range(1, len(log_a)):
        np.maximum(completion, outside[:, i, None] + log_a[i], out=completion)
    return completion


def log_transitions(rng, j):
    """A J x J log transition table with -inf entries."""
    log_a = np.log(rng.dirichlet(np.ones(j), size=j))
    log_a[rng.random((j, j)) < 0.2] = -np.inf
    return log_a


class TestMaxPlus:
    """max_plus gives the bits of the two np.maximum loops it replaces and
    of the one-line reduction, and counts a NaN candidate as impossible."""

    @pytest.mark.parametrize("j, rows", STEP_SHAPES)
    def test_is_the_transfer_loop(self, j, rows):
        rng = np.random.default_rng([j, rows, 3])
        log_a = log_transitions(rng, j)
        m = rng.uniform(-900.0, 0.0, (j, rows + 4, j))
        m[rng.random(m.shape) < 0.2] = -np.inf
        m[:, rows // 2] = -np.inf  # a row impossible from every state
        m = m[:, :rows]  # as the transfer step slices the active rows
        want = transfer_step(m, log_a)
        got = max_plus(m[:, None], log_a[:, :, None, None])
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == (m[:, None] + log_a[:, :, None, None]
                                 ).max(axis=0).tobytes()

    @pytest.mark.parametrize("j, rows", STEP_SHAPES)
    def test_is_the_completion_loop(self, j, rows):
        """Outside scores NaN where the child subtree is impossible, as the
        completion's -inf - -inf leaves them, into a row slice of the
        table; at least one parent state stays possible per vertex."""
        rng = np.random.default_rng([j, rows, 4])
        log_a = log_transitions(rng, j)
        outside = rng.uniform(-900.0, 0.0, (rows, j))
        outside[rng.random(outside.shape) < 0.2] = -np.inf
        impossible = rng.random(outside.shape) < 0.3
        impossible[0] = True  # all parent states but one
        impossible[np.arange(rows), rng.integers(j, size=rows)] = False
        outside[impossible] = np.nan
        assert np.isnan(outside).any() or j == 1
        want = completion_step(outside, log_a, impossible)
        table = np.full((rows + 5, j), 7.0)
        got = max_plus(outside.T[:, :, None], log_a[:, None],
                       out=table[2:rows + 2])
        assert np.shares_memory(got, table)
        assert table[2:rows + 2].tobytes() == want.tobytes()
        assert (table[:2] == 7.0).all() and (table[rows + 2:] == 7.0).all()

    @pytest.mark.parametrize("j, rows", STEP_SHAPES)
    def test_is_the_reduction_without_nan(self, j, rows):
        rng = np.random.default_rng([j, rows, 5])
        x = rng.uniform(-50.0, 50.0, (j, rows, 1))
        x[rng.random(x.shape) < 0.2] = -np.inf
        x[:, rows // 2] = -np.inf  # -inf throughout
        y = log_transitions(rng, j)[:, None]
        want = (x + y).max(axis=0)
        assert max_plus(x, y).tobytes() == want.tobytes()
        assert np.isneginf(want[rows // 2]).all()

    def test_nan_candidates(self):
        """A NaN candidate loses to a number and to -inf, wherever it comes
        in the order; only NaN throughout stays NaN."""
        nan, inf = np.nan, np.inf
        x = np.array([[nan, 1.0, nan, -inf, nan],
                      [2.0, nan, -inf, nan, nan],
                      [nan, -3.0, nan, nan, nan]])
        got = max_plus(x, np.zeros((3, 1)))
        assert_same_values(got, np.array([2.0, 1.0, -inf, -inf, nan]))
