"""Entropy profiles for the hidden state sequences of chains.

The global state entropy H(S | X = x) decomposes along a sequence as a sum
of conditional entropies, conditioning either on the preceding state (past
direction) or on the following state (future direction).  The command line
runs the recursive routes, which take each conditional from the law of the
previous state given the current one; the direct routes (conditionals from
the pairwise posteriors) and `hernando_table` (the state-conditioned entropy
recursion) are references that the tests compare against them.  All work on
the ChainPosterior of a dataset of any number of sequences, walk it in
blocks of about BLOCK_CELLS numbers, restart at each sequence and sum
H(S | X).

Both recursive routes read one neighbour law, the predecessor law
P(S_{t-1} | S_t, X), in one blocked walk: its middle term
sum_a L_t(a) H(S_{t-1} | S_t = a, X) is the future conditional at t - 1,
and the past conditional at t follows from it by H(S_t | X) + middle -
H(S_{t-1} | X).  The walk is bit-identical to a loop of one step per
position on J x J arrays (the tests keep that loop).  A block holds its
laws state-major, (J, J, rows), so every elementwise step runs along the
rows, and each sum adds its terms in the order numpy gives it within one
position: over the previous state along a strided axis, in order; over
the current state along a contiguous one, pairwise from 8 terms on.

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


def _law_blocks(model, posterior):
    """(t, n, e) for each block of the past walk, n = t - 1: with the
    predecessor laws K[a, b, i] = P(S_n = b | S_t = a, X) = p_ba F_n(b) /
    G_t(a) at rows t[i], n[i], e[a, i] = sum_b entr(K[a, b, i]).

    K is state-major in the first J^2 len(t) numbers of out[0], so that every
    elementwise step runs along the rows, and entr's values go into out[1];
    the blocks reuse the buffers of the first, the largest.  The sums add one
    slice at a time from numpy's initial +0.0, the order in which numpy
    reduces a strided axis; numpy's own reduction would sum a one-row block
    along a contiguous axis, pairwise from 8 terms on.
    """
    a, out = model.transition, None
    for t, n in _neighbours(model, posterior, "past"):
        if out is None:
            out = np.empty((2, a.size * t.size))
        k = out[0, :a.size * t.size].reshape(*a.shape, t.size)
        np.multiply(a.T[:, :, None], posterior.forward.take(n, axis=0).T,
                    out=k)
        safe_div(k, posterior.predicted.take(t, axis=0).T[:, None, :], out=k)
        ent = entr(k, out=out[1, :k.size].reshape(k.shape))
        e = ent[:, 0] + 0.0
        for b in range(1, len(k)):
            e += ent[:, b]
        yield t, n, e


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
    """Blocks of conditionals from the middle terms of the past walk,
    w = smoothed[t] . e = sum_a L_t(a) H(S_{t-1} | S_t = a, X), which is
    H(S_{t-1} | S_t, X): the future conditional at n = t - 1 is w itself,
    and the past one at t is H(S_t | X) + w - H(S_{t-1} | X)."""
    marginal = posterior.marginal_entropy
    for t, n, e in _law_blocks(model, posterior):
        # smoothed[t] . e summed along a contiguous axis, in numpy's order
        weighted = posterior.smoothed.take(t, axis=0)
        weighted *= e.T
        w = weighted.sum(axis=1)
        if direction == "future":
            yield n, w
        else:
            yield t, marginal[t] + (w - marginal[n])


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
    built by h[t] = K h[n] + entr(K) 1 with one J x J law K per position, in
    walk order from 0 at each sequence's first row ('past', n = t - 1) or
    last row ('future', n = t + 1), where K[a, b] = P(S_n = b | S_t = a, X)
    is the predecessor law p_ba F_n(b) / G_t(a) or the successor law
    p_ab L_n(b) / G_n(b) normalized over b; the partial entropies are
    smoothed[t] . h[t] + H(S_t | X).  It builds its laws itself, apart from
    the blocked walk of the profiles.

    Future-table rows at states with zero smoothed mass hold conventional
    values (the smoothed/predicted ratios driving the recursion are guarded
    to 0 there); every profile quantity weights such rows by zero.
    """
    a, f, g = model.transition, posterior.forward, posterior.predicted
    h = np.zeros_like(f)
    for rows, neighbours in _neighbours(model, posterior, direction):
        for t, n in zip(rows.tolist(), neighbours.tolist()):
            if direction == "past":  # w[b, a] = K[a, b]
                w = safe_div(a * f[n][:, None], g[t][None, :])
                h[t] = w.T @ h[n] + entr(w).sum(axis=0)
            else:
                u = a * safe_div(posterior.smoothed[n], g[n])[None, :]
                k = safe_div(u, u.sum(axis=1)[:, None])
                h[t] = k @ h[n] + entr(k).sum(axis=1)
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
    """Future-conditioned profile from the predecessor laws.

    Each H(S_t | S_{t+1}, X) is sum_k L_{t+1}(k) H(S_t | S_{t+1} = k, X),
    the past walk's middle term at t + 1, from the predecessor law
    p_jk F_t(j) / G_{t+1}(k): a weighted sum of non-negative entropies,
    with no difference of marginals to round.  The suffix partials
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
