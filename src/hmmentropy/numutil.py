"""Small numerical helpers used across the recursion modules.

Entropy terms follow the 0*log(0) = 0 convention throughout, and divisions
of posterior quantities use the 0/0 = 0 convention (a vanishing numerator
always comes with a vanishing denominator in the recursions here).
"""

import math

import numpy as np

__all__ = ["entr", "xlogy", "log_factorial", "safe_div", "entropy", "fsum",
           "row_entropy", "compensated_cumsum", "tie_argmax", "scaled_step",
           "max_plus_step", "max_plus", "TIE_RTOL"]

# numbers per block of the blocked array expressions: 128 KiB per temporary
BLOCK_CELLS = 2 ** 14

# Viterbi candidates within TIE_RTOL * max(1, |best|) of the best log score
# are tied: a bound on the rounding that summing the same terms in another
# order leaves in a score.  At the |score| ~ 1.5e4 of a 10^4-position chain
# it is 2e-10.
TIE_RTOL = 64 * float(np.finfo(float).eps)


def _blocks(start, stop, cells_per_row):
    """(lo, hi) bounds of consecutive row blocks covering start..stop, each
    block holding about BLOCK_CELLS numbers (at least one row)."""
    rows = max(1, BLOCK_CELLS // cells_per_row)
    return ((lo, min(stop, lo + rows)) for lo in range(start, stop, rows))


def entr(x, out=None):
    """-x log x elementwise in float64: +0.0 at 0, -inf below 0, NaN at NaN,
    the values of scipy.special.entr, in x's memory order as a ufunc gives.
    Into out if given, which may be x (in place); the masks of zeros and
    negatives are built only when x holds a value that is not > 0."""
    x = np.asarray(x, dtype=float)
    if out is not None and np.may_share_memory(x, out):
        x = x.copy()  # the logs go into out first
    # floating-point flags are silenced as in scipy: -inf and NaN are values
    with np.errstate(all="ignore"):
        out = np.asarray(np.log(x, out=out))
        np.multiply(out, x, out=out)
        np.negative(out, out=out)
    if x.size and not x.min() > 0:
        np.copyto(out, 0.0, where=x == 0)
        np.copyto(out, -np.inf, where=x < 0)
    return out[()]


def xlogy(x, y, out=None):
    """x log y elementwise in float64 (broadcasting), +0.0 where x == 0 unless
    y is NaN, the values of scipy.special.xlogy: x = 0, y = 0 gives 0 and
    x > 0, y = 0 gives -inf.  Into out if given, which may be y (in place);
    the x == 0 mask is built only when x holds a 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    fix = None if x.all() else (x == 0) & ~np.isnan(y)
    with np.errstate(all="ignore"):
        out = np.asarray(np.multiply(x, np.log(y, out=out), out=out))
    if fix is not None:
        np.copyto(out, 0.0, where=fix)
    return out[()]


def log_factorial(x):
    """log x! of an array of non-negative integers, evaluated once per
    distinct value.  Up to 170, where x! is a finite double, it is the log
    of the exact x!; above, math.lgamma(x + 1).  Against an fsum of log k
    the error is at most 1 ulp up to 170 and 2 ulps up to 10^4, where
    math.lgamma alone is 3 ulps off at x = 2, 3 and 4."""
    x = np.asarray(x)
    values, inverse = np.unique(x, return_inverse=True)
    table = np.array([math.log(math.factorial(int(v))) if v <= 170
                      else math.lgamma(v + 1.0) for v in values.tolist()])
    # the inverse is flat before numpy 2 and has x's shape after
    return table[inverse].reshape(x.shape)


def safe_div(num, den, out=None):
    """Elementwise num/den with +0.0 wherever den == 0 (broadcasting), into
    out if given, which may be num (in place); the mask is built only when
    den holds a 0."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    if out is None:
        out = np.empty(np.broadcast(num, den).shape)
    if den.all():
        return np.divide(num, den, out=out)
    zero = den == 0
    np.divide(num, den, out=out, where=~zero)
    np.copyto(out, 0.0, where=zero)
    return out


def tie_argmax(scores):
    """(index, maximum) along the first axis, where the index is the smallest
    one whose score is within TIE_RTOL * max(1, |maximum|) of the maximum.

    Every Viterbi backtracking step uses this rule, so that among optima
    whose log joints differ only by summation order the smaller state wins,
    however the recursion added up the scores.  A column that is -inf
    throughout gives index 0.  The candidates run along the first axis
    because numpy reduces a short last axis slowly: along it, this rule took
    2-3.4 times as long (J = 4-8, 100-1000 columns, numpy 2.4.6)."""
    top = scores.max(axis=0)
    floor = top - TIE_RTOL * np.maximum(1.0, np.abs(top))
    return (scores >= floor).argmax(axis=0), top


def scaled_step(block, weight):
    """One scaled sum-product step, in place on a C-ordered (rows, J) block
    of log joints: each row less its maximum is exponentiated and divided by
    N = row . weight (ones in the chain filter, the level prior in the tree's
    upward pass), so only entries below 1e-308 of their row's largest are
    lost.  Returns log N plus the maximum per row, NaN for a row that is
    -inf throughout.  From 8 J rows on, J - 1 np.maximum steps over
    the columns take the maxima faster than numpy's 30-60 ns per short row
    (the crossover at J = 2, 3, 4, 8 and 16, 14 J at J = 9); below, as on a
    path, the reduction is faster (BENCH_23.json, row_max_us and
    deep_tree_rounds).  Maxima are exact, so the bits are the same."""
    rows, j = block.shape
    if rows < 8 * j:
        top = block.max(axis=1)
    else:
        top = block[:, 0].copy()
        for i in range(1, j):
            np.maximum(top, block[:, i], out=top)
    block -= top[:, None]
    np.exp(block, out=block)
    total = block @ weight
    block /= total[:, None]
    return np.log(total) + top


def max_plus_step(log_a, score):
    """(pointer, best) of one max-product step from state-major scores
    (J, rows): best[r, i] = max over k of log a_ik + score[k, r], pointer
    its tie_argmax.  The candidates are laid out C order, (J, rows, J);
    numpy puts k innermost for a transposed table, 45 times as slow (J = 4)."""
    return tie_argmax(np.add(log_a.T[:, None, :], score[:, :, None], order="C"))


def max_plus(x, y, out=None):
    """The maximum over the leading axis of x + y (equal leading lengths),
    into out if given, by one np.fmax per slice: a NaN candidate counts as
    impossible, and only NaN throughout stays NaN.  On 760-4,096 rows at
    J = 4-8 this beats (x + y).max(axis=0), which builds the whole sum
    first, 1.6-3.8 times (BENCH_25.json, max_plus_us); maxima are exact,
    so the bits are the same."""
    out = np.add(x[0], y[0], out=out)
    for i in range(1, len(x)):
        np.fmax(out, x[i] + y[i], out=out)
    return out


def entropy(p):
    """Shannon entropy of a probability vector in nats, 0 log 0 = 0."""
    return float(entr(np.asarray(p, dtype=float)).sum())


def row_entropy(p):
    """entr(p).sum(axis=1) of a (rows, J) table, read-only, summed in row
    blocks of about BLOCK_CELLS numbers: no rows x J temporary is made."""
    h = np.empty(len(p))
    for lo, hi in _blocks(0, len(h), p.shape[1]):
        entr(p[lo:hi]).sum(axis=1, out=h[lo:hi])
    h.flags.writeable = False
    return h


def fsum(values):
    """Exactly rounded sum of a 1-D array (deterministic across platforms).
    A memoryview hands math.fsum Python floats; iterating the array would
    box each element as a numpy scalar, at about 2.5 times the cost."""
    return math.fsum(memoryview(np.ascontiguousarray(values, dtype=float)))


def compensated_cumsum(values, starts):
    """Running sum with Neumaier compensation, from 0 at each index in starts.

    Keeps cumulative entropy profiles accurate enough for the 1e-9
    decomposition identities at sequence lengths of 1e5.  The running sums
    and their error terms are each an in-order np.cumsum per segment, so the
    result is that of the scalar loop
        t = total + v
        comp += (total - t) + v if |total| >= |v| else (v - t) + total
        total = t;  out = total + comp
    bit for bit.  Segments of length 2^(e-1) < L <= 2^e run as the rows of
    one block as wide as the class's longest, led by a 0 column (the loop's
    initial 0); one mask, column < L, fills it and reads the sums back.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    n = values.size
    starts = np.asarray(starts, dtype=np.int64).ravel()
    first = np.unique(np.r_[0, n, starts[(starts >= 0) & (starts < n)]])
    lengths = np.diff(first)
    exponent = np.frexp(lengths - 1)[1]
    for e in np.unique(exponent):
        in_class = exponent == e
        cells = np.repeat(in_class, lengths)
        size = lengths[in_class]
        mask = np.arange(size.max()) < size[:, None]
        block = np.zeros((size.size, mask.shape[1] + 1))
        block[:, 1:][mask] = values[cells]
        total = np.cumsum(block, axis=1)
        prev, v, t = total[:, :-1], block[:, 1:], total[:, 1:]
        larger = np.abs(prev) >= np.abs(v)
        err = np.where(larger, prev, v)
        err -= t
        err += np.where(larger, v, prev)
        # the block becomes the error terms, led by the same 0 column
        v[...] = err
        total += np.cumsum(block, axis=1, out=block)
        out[cells] = t[mask]
    return out
