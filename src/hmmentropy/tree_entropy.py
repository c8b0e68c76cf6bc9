"""Entropy profiles for hidden Markov tree models.

The global state entropy H(S | X = x) decomposes over vertices into
parent-conditioned entropies (root term: the marginal entropy).  Two
independent algorithms compute subtree and complement partial entropies;
the profile uses approach 1, and approach 2 is the reference the tests
compare it with:

* approach 1 accumulates parent-conditional entropies upward and completes
  the complement profile downward; it consumes the downward (smoothed)
  recursion results;
* approach 2 runs an upward recursion on state-conditioned entropies of
  children subtrees and never needs the downward pass for its table.

Children-conditioned entropies require enumerating children state tuples,
the one computation here whose cost is not O(J^2 n); it is guarded by an
explicit operation budget.

All entropies are in nats.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError
from .model import HmmModel, ObservedTree
from .numutil import entr, fsum, safe_div, xlogy
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
    """J x J matrix W[i, k] = P(S_v = k | S_parent(v) = i, X = x)."""
    num = model.transition * safe_div(posterior.beta[v], posterior.prior[v])[None, :]
    return safe_div(num, posterior.beta_edge[v][:, None])


def parent_conditional_profile(model: HmmModel, tree: ObservedTree,
                               posterior: TreePosterior):
    """Profile of H(S_u | S_parent(u), X) plus the pairwise posteriors.

    Returns (vector, joints) where joints[u, i, k] = P(S_parent(u)=i, S_u=k | X)
    for u != 0 (the root slab is zero and the root entry of the vector is the
    marginal entropy of the root state).
    """
    _require_smoothed(posterior)
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    out = np.empty(n)
    joints = np.zeros((n, j, j))
    out[0] = float(entr(posterior.smoothed[0]).sum())
    for u in range(1, n):
        cond = _child_given_parent(model, posterior, u)
        joint = cond * posterior.smoothed[topo.parent[u]][:, None]
        joints[u] = joint
        out[u] = -float(xlogy(joint, cond).sum())
    return out, joints


def subtree_entropies_approach1(model: HmmModel, tree: ObservedTree,
                                posterior: TreePosterior,
                                parent_cond: np.ndarray):
    """Partial state tree entropies from parent-conditional accumulation.

    Upward, H(subtree at u | S_parent(u), X) is the subtree sum of
    parent-conditional entropies; combining with the marginal entropies gives
    H(subtree at u | X); a downward recursion over sibling sums yields the
    complement profile H(outside subtree at u | X).

    Returns (subtree_given_parent, partial_subtree, partial_complement,
    global_entropy).
    """
    _require_smoothed(posterior)
    topo = tree.topology
    n = topo.num_vertices
    sgp = np.empty(n)
    for u in topo.upward_order():
        children = topo.children[u]
        if children.size:
            sgp[u] = fsum(np.concatenate(([parent_cond[u]], sgp[children])))
        else:
            sgp[u] = parent_cond[u]
    marginal = entr(posterior.smoothed).sum(axis=1)
    partial_subtree = sgp - parent_cond + marginal
    partial_subtree[0] = sgp[0]
    complement = np.zeros(n)
    for u in topo.downward_order:
        children = topo.children[u]
        if children.size == 0:
            continue
        children_sum = sgp[u] - parent_cond[u]
        for v in children:
            complement[v] = complement[u] + parent_cond[u] + (children_sum - sgp[v])
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
    parent_cond, _ = parent_conditional_profile(model, tree, posterior)
    complement = global_entropy \
        - np.einsum("uj,uj->u", posterior.smoothed, h) - parent_cond
    complement[0] = 0.0
    return h, partial_subtree, global_entropy, complement


def children_conditional_profile(model: HmmModel, tree: ObservedTree,
                                 posterior: TreePosterior,
                                 op_budget: int = DEFAULT_OP_BUDGET) -> np.ndarray:
    """Profile of H(S_u | S_children(u), X); leaves carry H(S_u | X).

    For each internal vertex the children state tuples are enumerated, so the
    work at a vertex with c children is J^(c+1) elementary terms.  The total
    is capped by op_budget.
    """
    _require_smoothed(posterior)
    topo = tree.topology
    n, j = topo.num_vertices, model.num_states
    out = entr(posterior.smoothed).sum(axis=1)  # leaf convention
    spent = 0
    for u in range(n):
        children = topo.children[u]
        if children.size == 0:
            continue
        cost = j ** (1 + children.size)
        spent += cost
        if spent > op_budget:
            raise BudgetExceededError(
                f"children-conditioned profile needs {spent} > {op_budget} "
                f"terms at vertex {u} (branching factor {children.size})"
            )
        table = posterior.smoothed[u][:, None]  # joint over (S_u, children tuple)
        for v in children:
            w = _child_given_parent(model, posterior, v)
            table = (table[:, :, None] * w[:, None, :]).reshape(j, -1)
        cond = safe_div(table, table.sum(axis=0)[None, :])
        out[u] = -float(xlogy(table, cond).sum())
    return out


def tree_entropy_profile(model: HmmModel, tree: ObservedTree,
                         posterior: TreePosterior,
                         op_budget: int = DEFAULT_OP_BUDGET) -> TreeEntropyProfile:
    """Assemble the full per-vertex entropy profile of a smoothed tree."""
    _require_smoothed(posterior)
    marginal = entr(posterior.smoothed).sum(axis=1)
    parent_cond, _ = parent_conditional_profile(model, tree, posterior)
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


def entropy_summary(profile: TreeEntropyProfile) -> EntropySummary:
    """G/C/M sums and their relative gaps; ratios are NaN when G == 0."""
    g = fsum(profile.parent_conditional)
    c = fsum(profile.children_conditional)
    m = fsum(profile.marginal)
    if g > 0.0:
        ratio_cg = (c - g) / g
        ratio_mg = (m - g) / g
    else:
        ratio_cg = ratio_mg = float("nan")
    return EntropySummary(g=g, c=c, m=m, ratio_cg=ratio_cg, ratio_mg=ratio_mg)
