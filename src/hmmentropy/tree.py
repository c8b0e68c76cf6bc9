"""Upward-downward smoothing, log-likelihood and Viterbi restoration for
hidden Markov tree models.

The sum-product pass computes, per vertex u, the state marginal prior
P(S_u = .), the conditional law beta_u given the observed subtree rooted at
u, the edge quantity beta_{parent(u),u} and a normalizing factor N_u whose
product over vertices is the evidence P(X = x).  The downward completion
yields the smoothed probabilities xi_u given the whole tree.

The max-product analogue (upward maxima plus a downward completion) yields
the Viterbi restoration and, per vertex and state, the posterior probability
of the best full configuration constrained to that state value.

Every pass walks the level plan of the topology (see TreeTopology): one
numpy step per level handles all vertices of that depth at once, and child
messages combine over sibling groups with ``ufunc.reduceat``.  The number of
Python-level steps is therefore the depth of the tree, not its size; a path
takes one step per vertex, a complete binary tree one per level.

The messages are scaled probabilities, not logarithms.  On a very wide
vertex the product of its children's edge messages can overflow or
underflow double precision; the upward pass then raises FloatingPointError
(CLI exit 3) rather than return non-finite or imprecise tables.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ImpossibleObservationError
from .model import HmmModel, ObservedTree, emission_matrix, log_emission_matrix
from .numutil import fsum, safe_div

__all__ = ["TreePosterior", "upward_pass", "downward_pass", "smooth_tree",
           "viterbi_tree", "viterbi_profiles"]


@dataclass
class TreePosterior:
    """Smoothing tables of a tree.

    prior[u]      P(S_u = .)                        (downward marginal law)
    beta[u]       P(S_u = . | observed subtree at u)
    beta_edge[u]  beta_{parent(u),u}, indexed by the parent state; the root
                  row is unused and filled with ones
    normalizers   N_u, with prod_u N_u = P(X = x)
    smoothed[u]   xi_u = P(S_u = . | X = x)  (None until downward_pass)
    """

    prior: np.ndarray
    beta: np.ndarray
    beta_edge: np.ndarray
    normalizers: np.ndarray
    log_likelihood: float
    smoothed: Optional[np.ndarray] = None

    @property
    def num_vertices(self) -> int:
        return self.beta.shape[0]

    @property
    def num_states(self) -> int:
        return self.beta.shape[1]


def _level_priors(model: HmmModel, topo) -> np.ndarray:
    """Row d is P(S_u = .) for the vertices u at depth d."""
    level_prior = np.empty((topo.num_levels, model.num_states))
    level_prior[0] = model.initial
    for d in range(1, topo.num_levels):
        level_prior[d] = level_prior[d - 1] @ model.transition
    return level_prior


def upward_pass(model: HmmModel, tree: ObservedTree) -> TreePosterior:
    """Leaf-to-root recursion; returns a posterior without smoothed table.

    Raises ImpossibleObservationError when a normalizing factor vanishes
    and FloatingPointError when a table leaves double precision (the
    product of many child messages overflows or underflows on very wide
    vertices).
    """
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    level_prior = _level_priors(model, topo)
    prior_positive = level_prior > 0.0
    # emissions times priors times child messages, normalized level by
    # level into beta
    beta = emission_matrix(model, tree.values)[topo.level_order]
    beta *= np.repeat(level_prior, np.bincount(topo.depth), axis=0)
    beta_edge = np.zeros((n, j))
    beta_edge[0] = 1.0
    normalizers = np.empty(n)
    transition_t = model.transition.T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for d in range(topo.num_levels - 1, -1, -1):
            start, stop, groups, group_parents = topo.level(d)
            level = beta[start:stop]
            norm = level.sum(axis=1)
            normalizers[start:stop] = norm
            level /= norm[:, None]
            if d:
                edge = beta_edge[start:stop]  # beta / prior, 0 where the prior is
                np.divide(level, level_prior[d], out=edge, where=prior_positive[d])
                edge[...] = edge @ transition_t
                beta[group_parents] *= (
                    edge if groups is None
                    else np.multiply.reduceat(beta_edge[:stop], groups))
    impossible = np.flatnonzero(normalizers <= 0.0)
    if impossible.size:
        raise ImpossibleObservationError(
            "observation impossible under model at vertex "
            f"{topo.level_order[impossible[-1]]}")
    # Finite tables and normalizers that are normal doubles; a subnormal
    # normalizer has lost most of its significant bits.  The log-likelihood
    # is then finite and accurate too.
    broken = np.flatnonzero(~(np.isfinite(beta).all(axis=1)
                              & np.isfinite(beta_edge).all(axis=1)
                              & np.isfinite(normalizers)
                              & (normalizers >= np.finfo(float).tiny)))
    if broken.size:
        u = topo.level_order[broken[-1]]
        raise FloatingPointError(
            f"upward pass: vertex {u} ({topo.child_count[u]} children) leaves "
            "double precision; the product of its child messages overflows "
            "or underflows")
    log_likelihood = fsum(np.log(normalizers))
    at = topo.position
    return TreePosterior(level_prior[topo.depth], beta[at], beta_edge[at],
                         normalizers[at], log_likelihood)


def downward_pass(model: HmmModel, tree: ObservedTree,
                  up: TreePosterior) -> TreePosterior:
    """Root-to-leaf completion producing the smoothed probabilities."""
    topo = tree.topology
    order = topo.level_order
    beta_edge = up.beta_edge[order]
    edge_positive = beta_edge != 0.0
    # beta / prior, turned into the smoothed table level by level
    smoothed = safe_div(up.beta[order], up.prior[order])
    smoothed[0] = up.beta[0]
    for d in range(1, topo.num_levels):
        start, stop, _, _ = topo.level(d)
        level = beta_edge[start:stop]
        ratio = np.divide(smoothed[topo.parent_position[start:stop]], level,
                          out=np.zeros_like(level), where=edge_positive[start:stop])
        smoothed[start:stop] *= ratio @ model.transition
    return TreePosterior(up.prior, up.beta, up.beta_edge, up.normalizers,
                         up.log_likelihood, smoothed[topo.position])


def smooth_tree(model: HmmModel, tree: ObservedTree) -> TreePosterior:
    """Convenience wrapper: upward pass followed by downward completion."""
    return downward_pass(model, tree, upward_pass(model, tree))


def _max_product(model: HmmModel, tree: ObservedTree):
    """Upward max-product messages in log space and the Viterbi backtrack.

    Returns (states, log_joint, m, best); the message tables are in plan
    positions.  m[p, i] is the log probability of the observed subtree at
    plan position p jointly with the best states below it, given that its
    state is i; best[p, i] maximizes the edge term toward p from parent
    state i.  Ties go to the smaller state index, at the root and at every
    backtracking step.
    """
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    m = log_emission_matrix(model, tree.values)[topo.level_order]
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_initial = np.log(model.initial)
    best = np.zeros((n, j))
    back = np.zeros((n, j), dtype=np.int64)
    for d in range(topo.num_levels - 1, 0, -1):
        start, stop, groups, group_parents = topo.level(d)
        cand = log_a + m[start:stop, None, :]
        back[start:stop] = cand.argmax(axis=2)
        best[start:stop] = cand.max(axis=2)
        m[group_parents] += (best[start:stop] if groups is None
                             else np.add.reduceat(best[:stop], groups))
    root_score = log_initial + m[0]
    root_state = int(np.argmax(root_score))
    log_joint = float(root_score[root_state])
    if log_joint == -np.inf:
        raise ImpossibleObservationError("all state configurations are impossible")
    states = np.empty(n, dtype=np.int64)
    states[0] = root_state
    flat_back = back.reshape(-1)
    row = np.arange(0, n * j, j)
    for d in range(1, topo.num_levels):
        start, stop, _, _ = topo.level(d)
        states[start:stop] = flat_back[row[start:stop]
                                       + states[topo.parent_position[start:stop]]]
    return states[topo.position], log_joint, m, best


def _constrained_maxima(model: HmmModel, tree: ObservedTree, m, best):
    """Downward max-product completion of _max_product's messages: the
    table that viterbi_profiles returns."""
    topo = tree.topology
    log_likelihood = upward_pass(model, tree).log_likelihood
    impossible_below = best == -np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.log(model.transition)
        down = np.empty_like(m)
        down[0] = np.log(model.initial)
        for d in range(1, topo.num_levels):
            start, stop, _, _ = topo.level(d)
            parent = topo.parent_position[start:stop]
            # m[p] already contains best[u]; removing it leaves the outside
            # score.  Where the child subtree is impossible (best -inf) the
            # subtraction is NaN and the whole term must be -inf.
            outside = down[parent] + m[parent] - best[start:stop]
            np.copyto(outside, -np.inf, where=impossible_below[start:stop])
            down[start:stop] = (outside[:, :, None] + log_a).max(axis=1)
    return np.exp(m + down - log_likelihood)[topo.position]


def viterbi_tree(model: HmmModel, tree: ObservedTree):
    """Most likely state tree and its log joint probability.

    Ties are broken toward the smaller state index at the root and at every
    downward backtracking step.
    """
    states, log_joint, _, _ = _max_product(model, tree)
    return states, log_joint


def viterbi_profiles(model: HmmModel, tree: ObservedTree) -> np.ndarray:
    """n x J matrix of constrained maxima of the state posterior.

    Entry (u, j) is max over all other vertices' states of
    P((S_v)_{v != u}, S_u = j | X = x): the posterior probability of the best
    full configuration forced through state j at vertex u.  Row maxima equal
    the posterior probability of the Viterbi restoration.
    """
    _, _, m, best = _max_product(model, tree)
    return _constrained_maxima(model, tree, m, best)
