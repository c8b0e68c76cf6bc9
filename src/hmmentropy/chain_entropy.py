"""Entropy profiles for the hidden state sequences of chains.

The global state entropy H(S | X = x) decomposes along a sequence as a sum
of conditional entropies, conditioning either on the preceding state (past
direction) or on the following state (future direction).  The recursive
routes, which the command line runs, are one state-conditioned entropy
recursion walked in either direction, with its matrices built in blocks of
about BLOCK_CELLS numbers; the direct routes (conditionals from the pairwise
posteriors, partials by summation) are independent references that the
tests compare against them.  Every route takes a ChainPosterior of any
number of sequences, restarts at each one and sums H(S | X) over them.

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
    """Per-position entropy profile of smoothed chains, one row per row of
    their posterior; the formulas below hold within each sequence.

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


def _entropy_walk(direction, smoothed, offsets, law):
    """Profile from h[s] = 0 at each sequence's first row, h[s] = K_s h[s-1]
    + entr(K_s) 1 at its others, over the rows of smoothed, the smoothed
    laws in walk order; offsets are in walk order too.  K_s[a, b] is the law
    of the state at walk position s - 1 given state a at s; law(pos) returns
    K_s for the rows pos as a (len(pos), J, J) array.  Partial entropies are
    smoothed[s] . h[s] + H(S_s | X), conditionals H(S_s | X) + smoothed[s] .
    entr(K_s) 1 - H(S_{s-1} | X); a future walk's results are reversed.
    """
    t_len, j = smoothed.shape
    h = np.zeros((t_len, j))
    marginal = entr(smoothed).sum(axis=1)
    conditional = marginal.copy()
    steps = np.delete(np.arange(t_len), offsets[:-1])  # rows with a predecessor
    for lo, hi in _blocks(0, steps.size, j * j):
        pos = steps[lo:hi]
        k = law(pos)
        e = entr(k).sum(axis=2)
        conditional[pos] += (smoothed[pos] * e).sum(axis=1) - marginal[pos - 1]
        for s, k_s, e_s in zip(pos.tolist(), k, e):
            h[s] = k_s @ h[s - 1] + e_s
    partial = np.matmul(smoothed[:, None, :], h[:, :, None])[:, 0, 0] + marginal
    order = slice(None, None, -1 if direction == "future" else 1)
    return ChainEntropyProfile(direction, marginal[order], conditional[order],
                               partial[order], fsum(partial[offsets[1:] - 1]),
                               hernando=h[order])


def _pairwise_entropies(model, posterior):
    """The rows t with a predecessor in their sequence, and H(S_{t-1}, S_t |
    X = x) at each from the pairwise posteriors
    P(S_{t-1}=i, S_t=k | X) = F_{t-1}(i) p_ik L_t(k) / G_t(k), in blocks."""
    f, g, smoothed = posterior.forward, posterior.predicted, posterior.smoothed
    steps = np.delete(np.arange(len(smoothed)), posterior.offsets[:-1])
    out = np.empty(steps.size)
    for lo, hi in _blocks(0, steps.size, model.num_states ** 2):
        pos = steps[lo:hi]
        joint = safe_div(smoothed[pos][:, None, :] * model.transition
                         * f[pos - 1][:, :, None], g[pos][:, None, :])
        out[lo:hi] = entr(joint).sum(axis=(1, 2))
    return steps, out


def entropy_past_hernando(model: HmmModel, seq: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile via the forward entropy recursion.

    The table h[t, j] = H(S_0^{t-1} | S_t=j, X_0^t=x_0^t) is built forward
    with the predecessor distribution p_ij F_{t-1}(i) / G_t(j); the partial
    entropies H(S_0^t | X) combine it with the smoothed law, and each
    conditional comes from the predecessor law at its position.
    """
    _require_smoothed(posterior)
    f, g = posterior.forward, posterior.predicted
    def predecessor(pos):
        w = safe_div(model.transition * f[pos - 1][:, :, None], g[pos][:, None, :])
        return w.transpose(0, 2, 1)
    return _entropy_walk("past", posterior.smoothed, posterior.offsets,
                         predecessor)


def entropy_past_direct(model: HmmModel, seq: ObservedSequence,
                        posterior: ChainPosterior) -> ChainEntropyProfile:
    """Past-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t-1}, X) is H(S_{t-1}, S_t | X) - H(S_{t-1} | X), the
    first term from the pairwise posterior; partial entropies follow by
    (compensated) cumulative summation.
    """
    _require_smoothed(posterior)
    marginal = entr(posterior.smoothed).sum(axis=1)
    steps, pairwise = _pairwise_entropies(model, posterior)
    conditional = marginal.copy()
    conditional[steps] = pairwise - marginal[steps - 1]
    return ChainEntropyProfile(
        "past", marginal, conditional,
        compensated_cumsum(conditional, posterior.offsets[:-1]),
        fsum(conditional))


def entropy_future(model: HmmModel, seq: ObservedSequence,
                   posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile via the backward entropy recursion.

    Builds h[t, j] = H(S_{t+1}^{T-1} | S_t=j, X_{t+1}^{T-1}), the suffix
    partials H(S_t^{T-1} | X), and each conditional from its successor law.

    Table rows at states with zero smoothed mass hold conventional values
    (the smoothed/predicted ratios driving the recursion are guarded to 0
    there); every profile quantity weights such rows by zero.
    """
    _require_smoothed(posterior)
    smoothed, g = posterior.smoothed[::-1], posterior.predicted[::-1]
    def successor(pos):
        u = model.transition * safe_div(smoothed[pos - 1],
                                        g[pos - 1])[:, None, :]
        return safe_div(u, u.sum(axis=2)[:, :, None])
    offsets = posterior.offsets[-1] - posterior.offsets[::-1]
    return _entropy_walk("future", smoothed, offsets, successor)


def entropy_future_direct(model: HmmModel, seq: ObservedSequence,
                          posterior: ChainPosterior) -> ChainEntropyProfile:
    """Future-conditioned profile computed directly from pairwise posteriors.

    Each H(S_t | S_{t+1}, X) is H(S_t, S_{t+1} | X) - H(S_{t+1} | X), the
    first term from the pairwise posterior; suffix partial entropies follow
    by (compensated) reverse cumulative summation.
    """
    _require_smoothed(posterior)
    marginal = entr(posterior.smoothed).sum(axis=1)
    steps, pairwise = _pairwise_entropies(model, posterior)
    conditional = marginal.copy()
    conditional[steps - 1] = pairwise - marginal[steps]
    offsets = posterior.offsets
    return ChainEntropyProfile(
        "future", marginal, conditional,
        compensated_cumsum(conditional[::-1], offsets[-1] - offsets[1:])[::-1],
        fsum(conditional))
