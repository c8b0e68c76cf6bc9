"""Entropy profiles for the hidden state sequence of a chain.

The global state entropy H(S | X = x) decomposes along the sequence as a sum
of conditional entropies, conditioning either on the preceding state (past
direction) or on the following state (future direction).  The recursive
routes (partial entropies first, conditionals by differencing) are the ones
the command line runs; the direct routes (conditionals from the pairwise
posteriors, partials by summation) are independent references that the
tests compare against them.

All entropies are in nats.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import ChainPosterior
from .model import HmmModel, ObservedSequence
from .numutil import compensated_cumsum, entr, fsum, safe_div

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


def _pairwise_posterior(model, posterior, t):
    """J x J matrix P(S_{t-1}=i, S_t=k | X = x), for 1 <= t < T."""
    f, g, smoothed = posterior.forward, posterior.predicted, posterior.smoothed
    return safe_div(smoothed[t][None, :] * model.transition * f[t - 1][:, None],
                    g[t][None, :])


def entropy_past_hernando(model: HmmModel, seq: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile via the forward entropy recursion.

    The table h[t, j] = H(S_0^{t-1} | S_t=j, X_0^t=x_0^t) is built forward
    with the predecessor distribution p_ij F_{t-1}(i) / G_t(j); the partial
    entropies H(S_0^t | X) combine it with the smoothed law, and the
    conditional profile follows by first-order differencing.
    """
    _require_smoothed(posterior)
    t_len = posterior.length
    f, g, smoothed = posterior.forward, posterior.predicted, posterior.smoothed
    a = model.transition
    h = np.zeros((t_len, model.num_states))
    for t in range(1, t_len):
        w = safe_div(a * f[t - 1][:, None], g[t][None, :])
        h[t] = w.T @ h[t - 1] + entr(w).sum(axis=0)
    marginal = entr(smoothed).sum(axis=1)
    partial = np.empty(t_len)
    for t in range(t_len):
        partial[t] = float(smoothed[t] @ h[t]) + marginal[t]
    conditional = np.empty(t_len)
    conditional[0] = partial[0]
    conditional[1:] = np.diff(partial)
    return ChainEntropyProfile("past", marginal, conditional, partial,
                               partial[t_len - 1], hernando=h)


def entropy_past_direct(model: HmmModel, seq: ObservedSequence,
                        posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t-1}, X) is H(S_{t-1}, S_t | X) - H(S_{t-1} | X), the
    first term from the pairwise posterior; partial entropies follow by
    (compensated) cumulative summation.
    """
    _require_smoothed(posterior)
    t_len = posterior.length
    marginal = entr(posterior.smoothed).sum(axis=1)
    conditional = np.empty(t_len)
    conditional[0] = marginal[0]
    for t in range(1, t_len):
        joint = _pairwise_posterior(model, posterior, t)
        conditional[t] = float(entr(joint).sum()) - marginal[t - 1]
    partial = compensated_cumsum(conditional)
    return ChainEntropyProfile("past", marginal, conditional, partial,
                               fsum(conditional))


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
    t_len = posterior.length
    g, smoothed = posterior.predicted, posterior.smoothed
    a = model.transition
    marginal = entr(smoothed).sum(axis=1)
    h = np.zeros((t_len, model.num_states))
    for t in range(t_len - 2, -1, -1):
        u = a * safe_div(smoothed[t + 1], g[t + 1])[None, :]
        w = safe_div(u, u.sum(axis=1)[:, None])
        h[t] = w @ h[t + 1] + entr(w).sum(axis=1)
    partial = np.empty(t_len)
    for t in range(t_len):
        partial[t] = float(smoothed[t] @ h[t]) + marginal[t]
    conditional = np.empty(t_len)
    conditional[t_len - 1] = partial[t_len - 1]
    conditional[: t_len - 1] = partial[: t_len - 1] - partial[1:]
    return ChainEntropyProfile("future", marginal, conditional, partial,
                               partial[0], hernando=h)


def entropy_future_direct(model: HmmModel, seq: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t+1}, X) is H(S_t, S_{t+1} | X) - H(S_{t+1} | X), the
    first term from the pairwise posterior; suffix partial entropies follow
    by (compensated) reverse cumulative summation.
    """
    _require_smoothed(posterior)
    t_len = posterior.length
    marginal = entr(posterior.smoothed).sum(axis=1)
    conditional = np.empty(t_len)
    conditional[t_len - 1] = marginal[t_len - 1]
    for t in range(1, t_len):
        joint = _pairwise_posterior(model, posterior, t)
        conditional[t - 1] = float(entr(joint).sum()) - marginal[t]
    partial = compensated_cumsum(conditional[::-1])[::-1]
    return ChainEntropyProfile("future", marginal, conditional, partial,
                               fsum(conditional))
