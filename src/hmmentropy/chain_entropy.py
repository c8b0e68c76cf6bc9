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


def _law(model, posterior, direction, t, n):
    """K[i, a, b] = P(S_n = b | S_t = a, X) at rows t[i], n[i]: p_ba F_n(b) /
    G_t(a) for 'past', p_ab L_n(b) / G_n(b) normalized over b for 'future'."""
    a, g = model.transition, posterior.predicted
    if direction == "past":
        return safe_div(a * posterior.forward[n][:, :, None],
                        g[t][:, None, :]).transpose(0, 2, 1)
    u = a * safe_div(posterior.smoothed[n], g[n])[:, None, :]
    return safe_div(u, u.sum(axis=2)[:, :, None])


def _route(model, posterior, direction, term):
    """Profile whose conditionals are term(model, posterior, direction, t, n,
    marginal) at the rows t with a neighbour n and H(S_t | X) at the others;
    partials are their compensated running sums along the walk, and H(S | X)
    is the fsum of each sequence's last one."""
    blocks = _neighbours(model, posterior, direction)
    marginal = posterior.marginal_entropy
    conditional = marginal.copy()
    for t, n in blocks:
        conditional[t] = term(model, posterior, direction, t, n, marginal)
    offsets, order = posterior.offsets, slice(None)
    if direction == "future":  # the sums run from each sequence's last row
        offsets, order = offsets[-1] - offsets[::-1], slice(None, None, -1)
    partial = compensated_cumsum(conditional[order], offsets[:-1])
    return ChainEntropyProfile(direction, marginal, conditional,
                               partial[order], fsum(partial[offsets[1:] - 1]))


def _from_law(model, posterior, direction, t, n, marginal):
    """H(S_t | X) + smoothed[t] . entr(K) 1 - H(S_n | X)."""
    e = entr(_law(model, posterior, direction, t, n)).sum(axis=2)
    return marginal[t] + ((posterior.smoothed[t] * e).sum(axis=1) - marginal[n])


def _from_pairwise(model, posterior, direction, t, n, marginal):
    """H(S_{t-1}, S_t | X) - H(S_n | X), from the pairwise posterior
    P(S_{t-1}=i, S_t=k | X) = F_{t-1}(i) p_ik L_t(k) / G_t(k)."""
    late = np.maximum(t, n)
    joint = safe_div(posterior.smoothed[late][:, None, :] * model.transition
                     * posterior.forward[late - 1][:, :, None],
                     posterior.predicted[late][:, None, :])
    return entr(joint).sum(axis=(1, 2)) - marginal[n]


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
    for t, n in _neighbours(model, posterior, direction):
        k = _law(model, posterior, direction, t, n)
        for s, r, k_s, e_s in zip(t.tolist(), n.tolist(), k, entr(k).sum(axis=2)):
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
    return _route(model, posterior, "past", _from_law)


def entropy_past_direct(model: HmmModel, data: ObservedSequence,
                        posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t-1}, X) is H(S_{t-1}, S_t | X) - H(S_{t-1} | X), the
    first term from the pairwise posterior; partial entropies follow by
    (compensated) cumulative summation.

    data is unused; the argument stays for callers that pass it positionally.
    """
    return _route(model, posterior, "past", _from_pairwise)


def entropy_future(model: HmmModel, data: ObservedSequence,
                   posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile from the successor laws.

    Each H(S_t | S_{t+1}, X) is H(S_t | X) + E[H(S_{t+1} | S_t, X)] -
    H(S_{t+1} | X), the middle term from the successor law
    p_jk L_{t+1}(k) / G_{t+1}(k), normalized over k; the suffix partials
    H(S_t^{T-1} | X) are their (compensated) reverse running sums.

    data is unused; the argument stays for callers that pass it positionally.
    """
    return _route(model, posterior, "future", _from_law)


def entropy_future_direct(model: HmmModel, data: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t+1}, X) is H(S_t, S_{t+1} | X) - H(S_{t+1} | X), the
    first term from the pairwise posterior; suffix partial entropies follow
    by (compensated) reverse cumulative summation.

    data is unused; the argument stays for callers that pass it positionally.
    """
    return _route(model, posterior, "future", _from_pairwise)
