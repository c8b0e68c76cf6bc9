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
messages are scattered into their parents' rows with ``np.add.at`` on the
flattened table (_add_rows_at), in ascending child id.  The number of
Python-level steps is therefore the depth of the tree, not its size; a path
takes one step per vertex, a complete binary tree one per level.

A level's upward and max-product steps are the chain's kernels,
numutil.scaled_step (on subtree likelihoods, weighted by the prior after
the shift) and numutil.max_plus_step.  Rows are gathered with ``take``,
and masks are built only where a 0 or -inf is.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ImpossibleObservationError
from .model import (HmmModel, ObservedTree, log_emission_matrix,
                    log_joint_terms)
from .numutil import (fsum, max_plus, max_plus_step, row_entropy, safe_div,
                      scaled_step, tie_argmax)

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
    marginal_entropy[u]  H(S_u | X = x), built on first read; read-only
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

    @cached_property
    def marginal_entropy(self) -> np.ndarray:
        _require_smoothed(self)
        return row_entropy(self.smoothed)


def _require_smoothed(posterior):
    if posterior.smoothed is None:
        raise ValueError("posterior lacks the smoothed table; run downward_pass")


def _add_rows_at(table: np.ndarray, rows: np.ndarray, values: np.ndarray):
    """table[rows] += values with repeated rows accumulated in order.

    np.add.at on the flattened table: every element still receives its terms
    in the same order, so the sums are those of the 2-D form, which takes
    about three times as long.  table must be C-contiguous.
    """
    j = table.shape[1]
    np.add.at(table.reshape(-1), (rows[:, None] * j + np.arange(j)).reshape(-1),
              values.reshape(-1))


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
    log_b = log_emission_matrix(model, tree.values)
    return _upward(model, tree, log_b.take(tree.topology.downward_order, axis=0))


def _upward(model: HmmModel, tree: ObservedTree,
            ratio: np.ndarray) -> TreePosterior:
    """upward_pass on the tree's log emission matrix in plan positions,
    which it overwrites with the ratio table."""
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    level_prior = _level_priors(model, topo)
    beta_edge = np.ones((n, j))
    log_normalizers = np.empty(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # log emissions plus log child messages, -inf where the prior is 0,
        # turned level by level into the ratio table
        if not level_prior.all():
            ratio[(level_prior == 0.0)[topo.depth[topo.downward_order]]] = -np.inf
        for d in range(topo.num_levels - 1, -1, -1):
            start, stop = topo.level(d)
            level = ratio[start:stop]
            log_normalizers[start:stop] = scaled_step(level, level_prior[d])
            if d:
                edge = beta_edge[start:stop] = level @ model.transition.T
                _add_rows_at(ratio, topo.parent_position[start:stop], np.log(edge))
    # An overflowed message turns its parent's row into NaN, so it is looked
    # for first, among the vertices whose own joint law is defined.
    defined = log_normalizers > -np.inf
    broken = [] if np.isfinite(ratio).all() else np.flatnonzero(
        defined & ~np.isfinite(ratio).all(axis=1))
    if len(broken):
        raise FloatingPointError(
            f"upward pass: the messages of vertex {topo.downward_order[broken[-1]]}"
            " overflow; a state prior there is below the smallest normal double")
    impossible = np.flatnonzero(~defined)
    if impossible.size:
        raise ImpossibleObservationError(
            "observation impossible under model at vertex "
            f"{topo.downward_order[impossible[-1]]}")
    at = topo.position
    return TreePosterior(level_prior.take(topo.depth, axis=0),
                         ratio.take(at, axis=0), beta_edge.take(at, axis=0),
                         log_normalizers[at], fsum(log_normalizers))


def downward_pass(model: HmmModel, tree: ObservedTree,
                  up: TreePosterior) -> TreePosterior:
    """Root-to-leaf completion producing the smoothed probabilities."""
    topo = tree.topology
    order = topo.downward_order
    beta_edge = up.beta_edge.take(order, axis=0)
    # the ratio table, turned into the smoothed table level by level
    smoothed = up.ratio.take(order, axis=0)
    smoothed[0] *= up.prior[0]
    for d in range(1, topo.num_levels):
        start, stop = topo.level(d)
        weight = smoothed.take(topo.parent_position[start:stop], axis=0)
        safe_div(weight, beta_edge[start:stop], out=weight)
        smoothed[start:stop] *= weight @ model.transition
    return TreePosterior(up.prior, up.ratio, up.beta_edge, up.log_normalizers,
                         up.log_likelihood,
                         smoothed.take(topo.position, axis=0))


def smooth_tree(model: HmmModel, tree: ObservedTree) -> TreePosterior:
    """Convenience wrapper: upward pass followed by downward completion."""
    return downward_pass(model, tree, upward_pass(model, tree))


def _max_product(model: HmmModel, tree: ObservedTree, m: np.ndarray):
    """Upward max-product messages in log space and the Viterbi backtrack,
    on the tree's log emission matrix in plan positions, which it
    overwrites with the messages m.

    Returns (states, m, best); the message tables are in plan
    positions.  m[p, i] is the log probability of the observed subtree at
    plan position p jointly with the best states below it, given that its
    state is i; best[p, i] maximizes the edge term toward p from parent
    state i.  Ties (numutil.tie_argmax) go to the smaller state index, at the
    root and at every backtracking step.
    """
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    best = np.zeros((n, j))
    # the smallest integer type that holds a state index
    back = np.zeros((n, j), dtype=np.min_scalar_type(j - 1))
    for d in range(topo.num_levels - 1, 0, -1):
        start, stop = topo.level(d)
        back[start:stop], best[start:stop] = max_plus_step(
            model.log_transition, m[start:stop].T)
        _add_rows_at(m, topo.parent_position[start:stop], best[start:stop])
    root_state, top = tie_argmax(model.log_initial + m[0])
    if top == -np.inf:
        raise ImpossibleObservationError("all state configurations are impossible")
    states = np.empty(n, dtype=np.int64)
    states[0] = root_state
    flat_back = back.reshape(-1)
    row = np.arange(0, n * j, j)
    for d in range(1, topo.num_levels):
        start, stop = topo.level(d)
        states[start:stop] = flat_back[row[start:stop]
                                       + states[topo.parent_position[start:stop]]]
    return states[topo.position], m, best


def viterbi_tree(model: HmmModel, tree: ObservedTree):
    """Most likely state tree and its log joint probability, the exactly
    rounded sum (fsum) of the restored tree's terms, as for chains.

    Ties, scores within numutil.tie_argmax's rounding bound of the best, are
    broken toward the smaller state index at the root and at every downward
    backtracking step.
    """
    log_b = log_emission_matrix(model, tree.values)
    states, _, _ = _max_product(
        model, tree, log_b.take(tree.topology.downward_order, axis=0))
    terms = log_joint_terms(model, log_b, tree.topology.parent, states)
    return states, fsum(terms.reshape(-1))


def viterbi_profiles(model: HmmModel, tree: ObservedTree):
    """The Viterbi restoration and the n x J matrix of constrained maxima of
    the state posterior, as (states, profiles).

    Entry (u, j) of profiles is max over all other vertices' states of
    P((S_v)_{v != u}, S_u = j | X = x): the posterior probability of the best
    full configuration forced through state j at vertex u.  Row maxima equal
    the posterior probability of the Viterbi restoration.  The profiles are
    the downward max-product completion of the upward messages.
    """
    topo = tree.topology
    log_b = log_emission_matrix(model, tree.values).take(topo.downward_order,
                                                          axis=0)
    states, m, best = _max_product(model, tree, log_b.copy())
    log_likelihood = _upward(model, tree, log_b).log_likelihood
    down = np.empty_like(m)
    down[0] = model.log_initial
    with np.errstate(invalid="ignore"):
        for d in range(1, topo.num_levels):
            start, stop = topo.level(d)
            parent = topo.parent_position[start:stop]
            # m[p] already contains best[u]; removing it leaves the outside
            # score.  Where the child subtree is impossible (best -inf) the
            # subtraction is NaN, which numutil.max_plus counts as -inf.
            outside = down.take(parent, axis=0)
            outside += m.take(parent, axis=0)
            outside -= best[start:stop]
            max_plus(outside.T[:, :, None], model.log_transition[:, None],
                     out=down[start:stop])
    m += down
    m -= log_likelihood
    return states, np.exp(m.take(topo.position, axis=0))
