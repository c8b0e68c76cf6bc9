"""Small numerical helpers used across the recursion modules.

Entropy terms follow the 0*log(0) = 0 convention throughout, and divisions
of posterior quantities use the 0/0 = 0 convention (a vanishing numerator
always comes with a vanishing denominator in the recursions here).
"""

import math

import numpy as np

__all__ = ["entr", "xlogy", "log_factorial", "safe_div", "entropy", "fsum",
           "compensated_cumsum", "tie_argmax", "TIE_RTOL"]

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


def entr(x):
    """-x log x elementwise in float64: +0.0 at 0, -inf below 0, NaN at NaN,
    the values of scipy.special.entr, in x's memory order as a ufunc gives."""
    x = np.asarray(x, dtype=float)
    # floating-point flags are silenced as in scipy: -inf and NaN are values
    with np.errstate(all="ignore"):
        out = np.asarray(np.log(x))
        np.multiply(out, x, out=out)
        np.negative(out, out=out)
    np.copyto(out, 0.0, where=x == 0)
    np.copyto(out, -np.inf, where=x < 0)
    return out[()]


def xlogy(x, y):
    """x log y elementwise in float64 (broadcasting), +0.0 where x == 0 unless
    y is NaN, the values of scipy.special.xlogy: x = 0, y = 0 gives 0 and
    x > 0, y = 0 gives -inf."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    with np.errstate(all="ignore"):
        out = np.asarray(x * np.log(y))
    np.copyto(out, 0.0, where=(x == 0) & ~np.isnan(y))
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


def safe_div(num, den):
    """Elementwise num/den with 0 wherever den == 0 (broadcasting)."""
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den != 0)
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


def entropy(p):
    """Shannon entropy of a probability vector in nats, 0 log 0 = 0."""
    return float(entr(np.asarray(p, dtype=float)).sum())


def fsum(values):
    """Exactly rounded sum of a 1-D array (deterministic across platforms)."""
    return math.fsum(np.asarray(values, dtype=float))


def compensated_cumsum(values, starts):
    """Running sum with Neumaier compensation, from 0 at each index in starts.

    Keeps cumulative entropy profiles accurate enough for the 1e-9
    decomposition identities at sequence lengths of 1e5.  The running sums
    and their error terms are each an in-order np.cumsum per segment, so the
    result is that of the scalar loop
        t = total + v
        comp += (total - t) + v if |total| >= |v| else (v - t) + total
        total = t;  out = total + comp
    bit for bit.  Segments run as the rows of one zero-padded block per
    power-of-two length, each row led by a 0 column: the loop's initial 0.
    """
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    n = values.size
    starts = np.asarray(starts, dtype=np.int64).ravel()
    bound = np.zeros(n + 1, dtype=bool)
    bound[[0, n]] = True
    bound[starts[(starts >= 0) & (starts < n)]] = True
    first = np.flatnonzero(bound)
    segment = np.cumsum(bound[:n]) - 1
    column = np.arange(1, n + 1) - first[segment]
    # a segment of length L runs in the block of width 2^e + 1, 2^(e-1) < L <= 2^e
    exponent = np.frexp(np.diff(first) - 1)[1]
    for e in np.unique(exponent):
        width = (1 << int(e)) + 1
        in_block = exponent == e
        cells = np.flatnonzero(in_block[segment])
        flat = (np.cumsum(in_block) - 1)[segment[cells]] * width + column[cells]
        block = np.zeros((np.count_nonzero(in_block), width))
        block.reshape(-1)[flat] = values[cells]
        total = np.cumsum(block, axis=1)
        prev, v, t = total[:, :-1], block[:, 1:], total[:, 1:]
        larger = np.abs(prev) >= np.abs(v)
        err = np.where(larger, prev, v)
        err -= t
        err += np.where(larger, v, prev)
        # the block becomes the error terms, led by the same 0 column
        v[...] = err
        total += np.cumsum(block, axis=1, out=block)
        out[cells] = total.reshape(-1)[flat]
    return out
