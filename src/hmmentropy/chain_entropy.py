"""Entropy profiles for the hidden state sequence of a chain.

The global state entropy H(S | X = x) decomposes along the sequence as a sum
of conditional entropies, conditioning either on the preceding state (past
direction) or on the following state (future direction).  The recursive
routes, which the command line runs, are one state-conditioned entropy
recursion walked in either direction, with its matrices built in blocks of
about BLOCK_CELLS numbers; the direct routes (conditionals from the pairwise
posteriors, partials by summation) are independent references that the
tests compare against them.

All entropies are in nats.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import ChainPosterior
from .model import HmmModel, ObservedSequence
from .numutil import _blocks, compensated_cumsum, entr, fsum, safe_div

__all__ = ["ChainEntropyProfile", "marginal_entropy_profile",
           "entropy_past_hernando", "entropy_past_direct", "entropy_future",
           "entropy_future_direct"]


@dataclass
class ChainEntropyProfile:
    """Per-position entropy profile of a smoothed chain.

    direction   'past' or 'future'
    marginal    H(S_t | X = x)
    conditional past:   [H(S_0|X), H(S_1|S_0,X), ..., H(S_{T-1}|S_{T-2},X)]
                future: [H(S_0|S_1,X), ..., H(S_{T-2}|S_{T-1},X), H(S_{T-1}|X)]
    partial     past: H(S_0^t | X); future: H(S_t^{T-1} | X)
    hernando    state-conditioned partial-sequence entropies, kept for
                testing; None when produced by the direct route.
    """

    direction: str
    marginal: np.ndarray
    conditional: np.ndarray
    partial: np.ndarray
    global_entropy: float
    hernando: Optional[np.ndarray] = None


def marginal_entropy_profile(posterior: ChainPosterior) -> np.ndarray:
    """Pointwise entropy of the smoothed state distributions."""
    return entr(posterior.smoothed).sum(axis=1)


def _require_smoothed(posterior):
    if posterior.smoothed is None:
        raise ValueError("posterior lacks the smoothed table; run backward_smooth")


def _entropy_walk(direction, smoothed, law):
    """Profile from h[0] = 0, h[s] = K_s h[s-1] + entr(K_s) 1 over the rows
    of smoothed, the smoothed laws in walk order.  K_s[a, b] is the law of
    the state at walk position s - 1 given state a at s; law(lo, hi) returns
    K_s for lo <= s < hi as a (hi - lo, J, J) array.  Partial entropies are
    smoothed[s] . h[s] + H(S_s | X), conditionals their increments; a future
    walk starts at the last position, and its results are reversed.
    """
    t_len, j = smoothed.shape
    h = np.zeros((t_len, j))
    for lo, hi in _blocks(1, t_len, j * j):
        k = law(lo, hi)
        e = entr(k).sum(axis=2)
        for s, (k_s, e_s) in enumerate(zip(k, e), start=lo):
            h[s] = k_s @ h[s - 1] + e_s
    marginal = entr(smoothed).sum(axis=1)
    partial = np.matmul(smoothed[:, None, :], h[:, :, None])[:, 0, 0] + marginal
    conditional = np.diff(partial, prepend=0.0)
    order = slice(None, None, -1 if direction == "future" else 1)
    return ChainEntropyProfile(direction, marginal[order], conditional[order],
                               partial[order], partial[-1], hernando=h[order])


def _pairwise_entropies(model, posterior):
    """H(S_{t-1}, S_t | X = x) for 1 <= t < T, from the pairwise posteriors
    P(S_{t-1}=i, S_t=k | X) = F_{t-1}(i) p_ik L_t(k) / G_t(k), in blocks."""
    f, g, smoothed = posterior.forward, posterior.predicted, posterior.smoothed
    t_len, j = smoothed.shape
    out = np.empty(t_len - 1)
    for lo, hi in _blocks(1, t_len, j * j):
        joint = safe_div(smoothed[lo:hi, None, :] * model.transition
                         * f[lo - 1:hi - 1, :, None], g[lo:hi, None, :])
        out[lo - 1:hi - 1] = entr(joint).sum(axis=(1, 2))
    return out


def entropy_past_hernando(model: HmmModel, seq: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile via the forward entropy recursion.

    The table h[t, j] = H(S_0^{t-1} | S_t=j, X_0^t=x_0^t) is built forward
    with the predecessor distribution p_ij F_{t-1}(i) / G_t(j); the partial
    entropies H(S_0^t | X) combine it with the smoothed law, and the
    conditional profile follows by first-order differencing.
    """
    _require_smoothed(posterior)
    f, g = posterior.forward, posterior.predicted
    def predecessor(lo, hi):
        w = safe_div(model.transition * f[lo - 1:hi - 1, :, None], g[lo:hi, None, :])
        return w.transpose(0, 2, 1)
    return _entropy_walk("past", posterior.smoothed, predecessor)


def entropy_past_direct(model: HmmModel, seq: ObservedSequence,
                        posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t-1}, X) is H(S_{t-1}, S_t | X) - H(S_{t-1} | X), the
    first term from the pairwise posterior; partial entropies follow by
    (compensated) cumulative summation.
    """
    _require_smoothed(posterior)
    marginal = entr(posterior.smoothed).sum(axis=1)
    conditional = np.concatenate(
        (marginal[:1], _pairwise_entropies(model, posterior) - marginal[:-1]))
    return ChainEntropyProfile("past", marginal, conditional,
                               compensated_cumsum(conditional), fsum(conditional))


def entropy_future(model: HmmModel, seq: ObservedSequence,
                   posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile via the backward entropy recursion.

    Builds h[t, j] = H(S_{t+1}^{T-1} | S_t=j, X_{t+1}^{T-1}), the suffix
    partials H(S_t^{T-1} | X), and the conditionals by reverse differencing.

    Table rows at states with zero smoothed mass hold conventional values
    (the smoothed/predicted ratios driving the recursion are guarded to 0
    there); every profile quantity weights such rows by zero.
    """
    _require_smoothed(posterior)
    smoothed, g = posterior.smoothed[::-1], posterior.predicted[::-1]
    def successor(lo, hi):
        u = model.transition * safe_div(smoothed[lo - 1:hi - 1],
                                        g[lo - 1:hi - 1])[:, None, :]
        return safe_div(u, u.sum(axis=2)[:, :, None])
    return _entropy_walk("future", smoothed, successor)


def entropy_future_direct(model: HmmModel, seq: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t+1}, X) is H(S_t, S_{t+1} | X) - H(S_{t+1} | X), the
    first term from the pairwise posterior; suffix partial entropies follow
    by (compensated) reverse cumulative summation.
    """
    _require_smoothed(posterior)
    marginal = entr(posterior.smoothed).sum(axis=1)
    conditional = np.concatenate(
        (_pairwise_entropies(model, posterior) - marginal[1:], marginal[-1:]))
    return ChainEntropyProfile("future", marginal, conditional,
                               compensated_cumsum(conditional[::-1])[::-1],
                               fsum(conditional))
