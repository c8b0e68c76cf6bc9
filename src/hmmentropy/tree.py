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
messages are scattered into their parents' rows with ``np.add.at``, in
ascending child id.  The number of Python-level steps is therefore the depth
of the tree, not its size; a path takes one step per vertex, a complete
binary tree one per level.

As in the chain filter, a vertex's row, log emission plus log child
messages, is exponentiated after subtracting its maximum (kept in log N_u)
and weighted by the prior only then; a state is lost only where its subtree
likelihood is below 1e-308 of the largest at its vertex.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ImpossibleObservationError
from .model import HmmModel, ObservedTree, log_emission_matrix
from .numutil import fsum, safe_div

__all__ = ["TreePosterior", "upward_pass", "downward_pass", "smooth_tree",
           "viterbi_tree", "viterbi_profiles"]


@dataclass
class TreePosterior:
    """Smoothing tables of a tree.

    prior[u]           P(S_u = .)                   (downward marginal law)
    beta[u]            P(S_u = . | observed subtree at u)   (prior * ratio)
    ratio[u]           beta_u / P(S_u = .), 0 where the prior is 0
    beta_edge[u]       beta_{parent(u),u} = A ratio[u], indexed by the parent
                       state; the root row is unused and filled with ones
    log_normalizers[u] log N_u, with sum_u log N_u = log P(X = x)
    smoothed[u]        xi_u = P(S_u = . | X = x)  (None until downward_pass)
    """

    prior: np.ndarray
    ratio: np.ndarray
    beta_edge: np.ndarray
    log_normalizers: np.ndarray
    log_likelihood: float
    smoothed: Optional[np.ndarray] = None

    @property
    def beta(self) -> np.ndarray:
        return self.prior * self.ratio


def _level_priors(model: HmmModel, topo) -> np.ndarray:
    """Row d is P(S_u = .) for the vertices u at depth d."""
    level_prior = np.empty((topo.num_levels, model.num_states))
    level_prior[0] = model.initial
    for d in range(1, topo.num_levels):
        level_prior[d] = level_prior[d - 1] @ model.transition
    return level_prior


def upward_pass(model: HmmModel, tree: ObservedTree) -> TreePosterior:
    """Leaf-to-root recursion; returns a posterior without smoothed table.

    Raises FloatingPointError when the messages of a vertex overflow (a
    state prior below the smallest normal double) and
    ImpossibleObservationError when the joint law of a vertex vanishes.
    """
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    level_prior = _level_priors(model, topo)
    beta_edge = np.ones((n, j))
    top, total = np.empty((2, n))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log emissions plus log child messages, -inf where the prior is 0,
        # turned level by level into the ratio table
        ratio = log_emission_matrix(model, tree.values)[topo.downward_order]
        ratio[(level_prior == 0.0)[topo.depth[topo.downward_order]]] = -np.inf
        for d in range(topo.num_levels - 1, -1, -1):
            start, stop = topo.level(d)
            level = ratio[start:stop]
            top[start:stop] = level.max(axis=1)
            level -= top[start:stop, None]
            np.exp(level, out=level)
            total[start:stop] = level @ level_prior[d]
            level /= total[start:stop, None]
            if d:
                edge = beta_edge[start:stop] = level @ model.transition.T
                np.add.at(ratio, topo.parent_position[start:stop], np.log(edge))
        log_normalizers = np.log(total) + top
    # An overflowed message turns its parent's row into NaN, so it is looked
    # for first, among the vertices whose own joint law is defined.
    defined = log_normalizers > -np.inf
    broken = np.flatnonzero(defined & ~np.isfinite(ratio).all(axis=1))
    if broken.size:
        raise FloatingPointError(
            f"upward pass: the messages of vertex {topo.downward_order[broken[-1]]}"
            " overflow; a state prior there is below the smallest normal double")
    impossible = np.flatnonzero(~defined)
    if impossible.size:
        raise ImpossibleObservationError(
            "observation impossible under model at vertex "
            f"{topo.downward_order[impossible[-1]]}")
    at = topo.position
    return TreePosterior(level_prior[topo.depth], ratio[at], beta_edge[at],
                         log_normalizers[at], fsum(log_normalizers))


def downward_pass(model: HmmModel, tree: ObservedTree,
                  up: TreePosterior) -> TreePosterior:
    """Root-to-leaf completion producing the smoothed probabilities."""
    topo = tree.topology
    order = topo.downward_order
    beta_edge = up.beta_edge[order]
    # the ratio table, turned into the smoothed table level by level
    smoothed = up.ratio[order]
    smoothed[0] *= up.prior[0]
    for d in range(1, topo.num_levels):
        start, stop = topo.level(d)
        weight = safe_div(smoothed[topo.parent_position[start:stop]],
                          beta_edge[start:stop])
        smoothed[start:stop] *= weight @ model.transition
    return TreePosterior(up.prior, up.ratio, up.beta_edge, up.log_normalizers,
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
    m = log_emission_matrix(model, tree.values)[topo.downward_order]
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_initial = np.log(model.initial)
    best = np.zeros((n, j))
    back = np.zeros((n, j), dtype=np.int64)
    for d in range(topo.num_levels - 1, 0, -1):
        start, stop = topo.level(d)
        cand = log_a + m[start:stop, None, :]
        back[start:stop] = cand.argmax(axis=2)
        best[start:stop] = cand.max(axis=2)
        np.add.at(m, topo.parent_position[start:stop], best[start:stop])
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
        start, stop = topo.level(d)
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
            start, stop = topo.level(d)
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
