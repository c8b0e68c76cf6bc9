"""Entropy profiles for the hidden state sequences of chains.

The global state entropy H(S | X = x) decomposes along a sequence as a sum
of conditional entropies, conditioning either on the preceding state (past
direction) or on the following state (future direction).  The command line
runs the recursive routes, which take each conditional from the law of the
neighbouring state given the current one; the direct routes (conditionals
from the pairwise posteriors) and `hernando_table` (the state-conditioned
entropy recursion) are references that the tests compare against them.  All
work in blocks of about BLOCK_CELLS numbers on the ChainPosterior of a
dataset of any number of sequences, restart at each and sum H(S | X).

The recursive routes' blocked walk is bit-identical to a loop of one step
per position on J x J arrays (the tests keep that loop).  A block holds its
laws state-major, (J, J, rows), so every elementwise step runs along the
rows, and each sum adds its terms in the order numpy gives it within one
position: over the previous state (past) along a strided axis, in order;
over the next state (future) and over the current state along a
contiguous one, pairwise from 8 terms on.

All entropies are in nats.
"""

from dataclasses import dataclass

import numpy as np

from .chain import ChainPosterior
from .model import HmmModel, ObservedSequence
from .numutil import _blocks, compensated_cumsum, entr, fsum, safe_div

__all__ = ["ChainEntropyProfile", "entropy_past_hernando",
           "entropy_past_direct", "entropy_future", "entropy_future_direct",
           "hernando_table"]


@dataclass
class ChainEntropyProfile:
    """Per-position entropy profile of smoothed chains, one row per row of
    their posterior; the formulas below hold within each sequence.

    direction   'past' or 'future'
    marginal    H(S_t | X = x), the posterior's read-only marginal_entropy
    conditional past:   [H(S_0|X), H(S_1|S_0,X), ..., H(S_{T-1}|S_{T-2},X)]
                future: [H(S_0|S_1,X), ..., H(S_{T-2}|S_{T-1},X), H(S_{T-1}|X)]
    partial     past: H(S_0^t | X); future: H(S_t^{T-1} | X), the
                compensated running sums of the conditionals
    global_entropy  the fsum of the sequences' full sums H(S | X = x)
    """

    direction: str
    marginal: np.ndarray
    conditional: np.ndarray
    partial: np.ndarray
    global_entropy: float


def _neighbours(model, posterior, direction):
    """Walk-order blocks of about BLOCK_CELLS / J^2 rows t whose neighbour n,
    t - 1 ('past') or t + 1 ('future'), is in their sequence, as (t, n)."""
    if direction not in ("past", "future"):
        raise ValueError(f"direction must be 'past' or 'future', not {direction!r}")
    step = -1 if direction == "past" else 1
    first = posterior.offsets[:-1] if step < 0 else posterior.offsets[1:] - 1
    rows = np.delete(np.arange(len(posterior.smoothed)), first)[::-step]
    return ((rows[lo:hi], rows[lo:hi] + step)
            for lo, hi in _blocks(0, rows.size, model.transition.size))


def _law(model, posterior, direction, t, n, out):
    """K[a, b, i] = P(S_n = b | S_t = a, X) at rows t[i], n[i]: p_ba F_n(b) /
    G_t(a) for 'past', p_ab L_n(b) / G_n(b) normalized over b for 'future'.

    K is the first J^2 len(t) numbers of out[0], state-major, so that every
    elementwise step runs along the rows; the future normalizer sums over b
    in a transposed copy in out[2].
    """
    a = model.transition
    k = out[0, :a.size * t.size].reshape(*a.shape, t.size)
    if direction == "past":
        np.multiply(a.T[:, :, None], posterior.forward.take(n, axis=0).T,
                    out=k)
        safe_div(k, posterior.predicted.take(t, axis=0).T[:, None, :], out=k)
        return k
    ratio = safe_div(posterior.smoothed.take(n, axis=0),
                     posterior.predicted.take(n, axis=0))
    np.multiply(a[:, :, None], ratio.T, out=k)
    safe_div(k, _sum_over_b(k, out[2])[:, None, :], out=k)
    return k


def _sum_over_b(x, out):
    """x[a, :, i] summed by numpy along a contiguous axis, pairwise from 8
    terms on, in a transposed copy in out that has that axis."""
    j, _, rows = x.shape
    xt = out[:x.size].reshape(j, rows, j)
    np.copyto(xt, x.transpose(0, 2, 1))
    return xt.sum(axis=2)


def _law_blocks(model, posterior, direction):
    """(t, n, K, e) for each block of _neighbours: the laws K of _law and
    e[a, i] = sum_b entr(K[a, b, i]).

    entr's values go into out[1].  The past sums add one slice at a time
    from numpy's initial +0.0, the order in which numpy reduces a strided
    axis; numpy's own reduction would sum a one-row block along a contiguous
    axis, pairwise from 8 terms on.  The future sums are that contiguous
    reduction.  The blocks reuse the buffers of the first, the largest.
    """
    out = None
    for t, n in _neighbours(model, posterior, direction):
        if out is None:
            out = np.empty((2 if direction == "past" else 3,
                            model.transition.size * t.size))
        k = _law(model, posterior, direction, t, n, out)
        ent = entr(k, out=out[1, :k.size].reshape(k.shape))
        if direction == "future":
            e = _sum_over_b(ent, out[2])
        else:
            e = ent[:, 0] + 0.0
            for b in range(1, len(k)):
                e += ent[:, b]
        yield t, n, k, e


def _route(posterior, direction, blocks):
    """Profile whose conditionals are given at the rows t with a neighbour
    by blocks, pairs (t, values), and are H(S_t | X) at the others; partials
    are their compensated running sums along the walk, and H(S | X) is the
    fsum of each sequence's last one."""
    marginal = posterior.marginal_entropy
    conditional = marginal.copy()
    for t, values in blocks:
        conditional[t] = values
    offsets, order = posterior.offsets, slice(None)
    if direction == "future":  # the sums run from each sequence's last row
        offsets, order = offsets[-1] - offsets[::-1], slice(None, None, -1)
    partial = compensated_cumsum(conditional[order], offsets[:-1])
    return ChainEntropyProfile(direction, marginal, conditional,
                               partial[order], fsum(partial[offsets[1:] - 1]))


def _from_law(model, posterior, direction):
    """Blocks of H(S_t | X) + smoothed[t] . entr(K) 1 - H(S_n | X)."""
    marginal = posterior.marginal_entropy
    for t, n, _, e in _law_blocks(model, posterior, direction):
        # smoothed[t] . e summed along a contiguous axis, in numpy's order
        weighted = posterior.smoothed.take(t, axis=0)
        weighted *= e.T
        yield t, marginal[t] + (weighted.sum(axis=1) - marginal[n])


def _from_pairwise(model, posterior, direction):
    """Blocks of H(S_{t-1}, S_t | X) - H(S_n | X), from the pairwise
    posterior P(S_{t-1}=i, S_t=k | X) = F_{t-1}(i) p_ik L_t(k) / G_t(k)."""
    marginal = posterior.marginal_entropy
    for t, n in _neighbours(model, posterior, direction):
        late = np.maximum(t, n)
        joint = safe_div(posterior.smoothed[late][:, None, :] * model.transition
                         * posterior.forward[late - 1][:, :, None],
                         posterior.predicted[late][:, None, :])
        yield t, entr(joint).sum(axis=(1, 2)) - marginal[n]


def hernando_table(model: HmmModel, posterior: ChainPosterior,
                   direction: str) -> np.ndarray:
    """State-conditioned partial-sequence entropies, a reference for tests.

    'past':   h[t, j] = H(S_0^{t-1} | S_t=j, X_0^t=x_0^t)
    'future': h[t, j] = H(S_{t+1}^{T-1} | S_t=j, X_{t+1}^{T-1})
    built by h[t] = K h[n] + entr(K) 1, one position at a time from 0 at
    each sequence's first row ('past') or last row ('future'), with the
    predecessor or successor laws K of the recursive routes; the partial
    entropies are smoothed[t] . h[t] + H(S_t | X).

    Future-table rows at states with zero smoothed mass hold conventional
    values (the smoothed/predicted ratios driving the recursion are guarded
    to 0 there); every profile quantity weights such rows by zero.
    """
    h = np.zeros_like(posterior.forward)
    for t, n, k, e in _law_blocks(model, posterior, direction):
        # each position's K in the memory order of one step's J x J law,
        # Fortran for 'past' and C for 'future': BLAS rounds a
        # matrix-vector product by the matrix's memory order
        if direction == "past":
            k = k.transpose(2, 1, 0).copy().transpose(0, 2, 1)
        else:
            k = k.transpose(2, 0, 1).copy()
        for s, r, k_s, e_s in zip(t.tolist(), n.tolist(), k, e.T):
            h[s] = k_s @ h[r] + e_s
    return h


def entropy_past_hernando(model: HmmModel, data: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile from the predecessor laws.

    Each H(S_t | S_{t-1}, X) is H(S_t | X) + E[H(S_{t-1} | S_t, X)] -
    H(S_{t-1} | X), the middle term from the predecessor law
    p_ij F_{t-1}(i) / G_t(j); the partial entropies H(S_0^t | X) are their
    (compensated) running sums.

    data is unused; the argument stays for callers that pass it positionally.
    """
    return _route(posterior, "past", _from_law(model, posterior, "past"))


def entropy_past_direct(model: HmmModel, data: ObservedSequence,
                        posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t-1}, X) is H(S_{t-1}, S_t | X) - H(S_{t-1} | X), the
    first term from the pairwise posterior; partial entropies follow by
    (compensated) cumulative summation.

    data is unused; the argument stays for callers that pass it positionally.
    """
    return _route(posterior, "past", _from_pairwise(model, posterior, "past"))


def entropy_future(model: HmmModel, data: ObservedSequence,
                   posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile from the successor laws.

    Each H(S_t | S_{t+1}, X) is H(S_t | X) + E[H(S_{t+1} | S_t, X)] -
    H(S_{t+1} | X), the middle term from the successor law
    p_jk L_{t+1}(k) / G_{t+1}(k), normalized over k; the suffix partials
    H(S_t^{T-1} | X) are their (compensated) reverse running sums.

    data is unused; the argument stays for callers that pass it positionally.
    """
    return _route(posterior, "future", _from_law(model, posterior, "future"))


def entropy_future_direct(model: HmmModel, data: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t+1}, X) is H(S_t, S_{t+1} | X) - H(S_{t+1} | X), the
    first term from the pairwise posterior; suffix partial entropies follow
    by (compensated) reverse cumulative summation.

    data is unused; the argument stays for callers that pass it positionally.
    """
    return _route(posterior, "future", _from_pairwise(model, posterior, "future"))
