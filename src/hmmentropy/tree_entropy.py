"""Entropy profiles for hidden Markov tree models.

The global state entropy H(S | X = x) decomposes over vertices into
parent-conditioned entropies (root term: the marginal entropy).  Two
independent algorithms compute subtree and complement partial entropies;
the profile uses approach 1, and approach 2 is the reference the tests
compare it with:

* approach 1 accumulates parent-conditional entropies upward, one numpy
  step per level of the topology's level plan that adds each vertex's sum
  into its parent's with ``np.add.at``, and takes the complement profile
  from the result; it consumes the downward (smoothed) recursion results;
* approach 2 runs an upward recursion on state-conditioned entropies of
  children subtrees and never needs the downward pass for its table.  It
  stays a scalar loop over vertices, as the reference implementation.

The parent-conditional profile is one vectorized expression over all
vertices, and the children-conditional profile one per group of vertices
with the same number of children, reading the children of each vertex from
the topology's by-parent order.  Both run in blocks of at most about
BLOCK_CELLS numbers, which bounds their temporaries whatever the tree size.

Children-conditioned entropies require enumerating children state tuples,
the one computation here whose cost is not O(J^2 n); it is guarded by an
explicit operation budget, checked before any work.

All entropies are in nats.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .model import HmmModel, ObservedTree
from .numutil import _blocks, entr, fsum, safe_div, xlogy
from .tree import TreePosterior

__all__ = ["TreeEntropyProfile", "EntropySummary", "parent_conditional_profile",
           "subtree_entropies_approach1", "subtree_entropies_approach2",
           "children_conditional_profile", "tree_entropy_profile",
           "entropy_summary"]

DEFAULT_OP_BUDGET = 10 ** 8


@dataclass
class TreeEntropyProfile:
    """Per-vertex entropy profile of a smoothed tree.

    marginal[u]                H(S_u | X)
    parent_conditional[u]      H(S_u | S_parent(u), X); root: H(S_0 | X)
    children_conditional[u]    H(S_u | S_children(u), X); leaf: H(S_u | X)
    subtree_given_parent[u]    H(subtree states at u | S_parent(u), X);
                               the root slot holds H(S | X)
    partial_subtree[u]         H(subtree states at u | X)
    partial_complement[u]      H(states outside the subtree at u | X);
                               the root slot is 0 (empty complement)

    The partial entropies come from approach 1; the state-conditioned table
    of approach 2 is returned by subtree_entropies_approach2.
    """

    marginal: np.ndarray
    parent_conditional: np.ndarray
    children_conditional: np.ndarray
    subtree_given_parent: np.ndarray
    partial_subtree: np.ndarray
    partial_complement: np.ndarray
    global_entropy: float


@dataclass
class EntropySummary:
    """Sums of the three per-vertex profiles and their relative gaps.

    g equals the global state entropy; g <= c <= m always.  Ratios are NaN
    when g == 0.
    """

    g: float
    c: float
    m: float
    ratio_cg: float
    ratio_mg: float


def _require_smoothed(posterior):
    if posterior.smoothed is None:
        raise ValueError("posterior lacks the smoothed table; run downward_pass")


def _child_given_parent(model, posterior, v):
    """W[..., i, k] = P(S_v = k | S_parent(v) = i, X = x) for a vertex v, a
    slice of vertices or an array of them (one J x J matrix each)."""
    ratio = safe_div(posterior.beta[v], posterior.prior[v])[..., None, :]
    return safe_div(model.transition * ratio, posterior.beta_edge[v][..., :, None])


def parent_conditional_profile(model: HmmModel, tree: ObservedTree,
                               posterior: TreePosterior) -> np.ndarray:
    """Profile of H(S_u | S_parent(u), X); the root entry is the marginal
    entropy of the root state."""
    _require_smoothed(posterior)
    parent = tree.topology.parent
    n, j = tree.num_vertices, model.num_states
    out = np.empty(n)
    out[0] = float(entr(posterior.smoothed[0]).sum())
    for lo, hi in _blocks(1, n, j * j):
        block = slice(lo, hi)
        cond = _child_given_parent(model, posterior, block)
        # P(S_parent(u) = i, S_u = k | X)
        joint = cond * posterior.smoothed[parent[block]][:, :, None]
        out[block] = -xlogy(joint, cond).sum(axis=(1, 2))
    return out


def subtree_entropies_approach1(model: HmmModel, tree: ObservedTree,
                                posterior: TreePosterior,
                                parent_cond: np.ndarray):
    """Partial state tree entropies from parent-conditional accumulation.

    Upward, H(subtree at u | S_parent(u), X) is the subtree sum of
    parent-conditional entropies, summed level by level; combining with the
    marginal entropies gives H(subtree at u | X).  The downward recursion
    over sibling sums for the complement profile telescopes to
    H(outside subtree at u | X) = H(S | X) - H(subtree at u | S_parent(u), X).

    Returns (subtree_given_parent, partial_subtree, partial_complement,
    global_entropy).
    """
    _require_smoothed(posterior)
    topo = tree.topology
    sgp = parent_cond[topo.downward_order]
    for d in range(topo.num_levels - 1, 0, -1):
        start, stop = topo.level(d)
        # a copy: values that alias the target make ufunc.at copy the
        # whole target on every call
        np.add.at(sgp, topo.parent_position[start:stop], sgp[start:stop].copy())
    sgp = sgp[topo.position]
    marginal = entr(posterior.smoothed).sum(axis=1)
    partial_subtree = sgp - parent_cond + marginal
    partial_subtree[0] = sgp[0]
    complement = sgp[0] - sgp
    complement[0] = 0.0
    return sgp, partial_subtree, complement, float(sgp[0])


def subtree_entropies_approach2(model: HmmModel, tree: ObservedTree,
                                posterior: TreePosterior):
    """Partial state tree entropies from the state-conditioned upward table.

    The table h[u, j] = H(children subtrees' states | S_u = j, observed
    subtree at u) is built leaf-to-root without any downward quantity.  The
    smoothed probabilities then give the subtree partials, and the
    complement profile follows once the parent-conditional entropies are
    known (they are recomputed here; there is no way around them).

    Table entries at states with zero prior mass, or whose children
    subtrees are impossible given the state, are conventional: every
    consumer weights them by a vanishing probability.

    Returns (state_conditioned_upward, partial_subtree, global_entropy,
    partial_complement).
    """
    _require_smoothed(posterior)
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    h = np.zeros((n, j))
    for u in topo.upward_order():
        for v in topo.children[u]:
            w = _child_given_parent(model, posterior, v)
            h[u] += w @ h[v] + entr(w).sum(axis=1)
    beta0 = posterior.beta[0]
    global_entropy = float(beta0 @ h[0]) + float(entr(beta0).sum())
    partial_subtree = np.einsum("uj,uj->u", posterior.smoothed, h) \
        + entr(posterior.smoothed).sum(axis=1)
    parent_cond = parent_conditional_profile(model, tree, posterior)
    complement = global_entropy \
        - np.einsum("uj,uj->u", posterior.smoothed, h) - parent_cond
    complement[0] = 0.0
    return h, partial_subtree, global_entropy, complement


def _children_budget_check(j, child_count, op_budget):
    """Raise BudgetExceededError at the first vertex, in id order, where the
    running total of J^(c+1) terms over internal vertices passes op_budget.

    Every term is capped at op_budget + 1 before the running sum: the first
    crossing stays where it is, and every partial sum up to it stays below
    2^64.  Budgets beyond 2^63 - 2 terms count as 2^63 - 2.
    """
    internal = np.flatnonzero(child_count)
    if not internal.size:
        return
    limit = min(op_budget, 2 ** 63 - 2)
    cap = max(limit, -1) + 1
    exponents, which = np.unique(child_count[internal] + 1, return_inverse=True)
    terms = np.array([min(j ** min(int(e), 64), cap) for e in exponents],
                     dtype=np.uint64)
    running = np.cumsum(terms[which], dtype=np.uint64)
    over = np.flatnonzero(running > limit)
    if over.size:
        k = int(over[0])
        u = int(internal[k])
        c = int(child_count[u])
        before = int(running[k - 1]) if k else 0
        raise BudgetExceededError(
            f"children-conditioned profile needs {before} + {j}^{c + 1} > "
            f"{limit} terms at vertex {u} (branching factor {c})")


def children_conditional_profile(model: HmmModel, tree: ObservedTree,
                                 posterior: TreePosterior,
                                 op_budget: int = DEFAULT_OP_BUDGET) -> np.ndarray:
    """Profile of H(S_u | S_children(u), X); leaves carry H(S_u | X).

    For each internal vertex the children state tuples are enumerated, so the
    work at a vertex with c children is J^(c+1) elementary terms.  The total
    is capped by op_budget, checked before any work.  Vertices with the same
    number of children are processed together, in blocks.
    """
    _require_smoothed(posterior)
    topo = tree.topology
    j = model.num_states
    _children_budget_check(j, topo.child_count, op_budget)
    order, first = topo.by_parent
    out = entr(posterior.smoothed).sum(axis=1)  # leaf convention
    for c in np.unique(topo.child_count[topo.child_count > 0]).tolist():
        group = np.flatnonzero(topo.child_count == c)
        for lo, hi in _blocks(0, group.size, j ** (c + 1)):
            us = group[lo:hi]
            first_child = first[us]
            # joint over (S_u, children tuple), one children position at a time
            table = posterior.smoothed[us][:, :, None]
            for t in range(c):
                w = _child_given_parent(model, posterior, order[first_child + t])
                table = (table[:, :, :, None] * w[:, :, None, :]).reshape(
                    us.size, j, -1)
            cond = safe_div(table, table.sum(axis=1)[:, None, :])
            out[us] = -xlogy(table, cond).sum(axis=(1, 2))
    return out


def tree_entropy_profile(model: HmmModel, tree: ObservedTree,
                         posterior: TreePosterior,
                         op_budget: int = DEFAULT_OP_BUDGET) -> TreeEntropyProfile:
    """Assemble the full per-vertex entropy profile of a smoothed tree."""
    _require_smoothed(posterior)
    marginal = entr(posterior.smoothed).sum(axis=1)
    parent_cond = parent_conditional_profile(model, tree, posterior)
    sgp, partial_subtree, complement, global_entropy = subtree_entropies_approach1(
        model, tree, posterior, parent_cond)
    children_cond = children_conditional_profile(model, tree, posterior, op_budget)
    return TreeEntropyProfile(
        marginal=marginal,
        parent_conditional=parent_cond,
        children_conditional=children_cond,
        subtree_given_parent=sgp,
        partial_subtree=partial_subtree,
        partial_complement=complement,
        global_entropy=global_entropy,
    )


def _summary_of_sums(g: float, c: float, m: float) -> EntropySummary:
    """The summary of given G/C/M sums; ratios are NaN when G == 0."""
    ratios = ((c - g) / g, (m - g) / g) if g > 0.0 else (float("nan"),) * 2
    return EntropySummary(g, c, m, *ratios)


def entropy_summary(profile: TreeEntropyProfile) -> EntropySummary:
    """G/C/M sums and their relative gaps; ratios are NaN when G == 0."""
    return _summary_of_sums(fsum(profile.parent_conditional),
                            fsum(profile.children_conditional),
                            fsum(profile.marginal))
