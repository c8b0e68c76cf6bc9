"""Exact enumeration reference for posterior and entropy quantities.

Every state configuration of a small instance is listed with its joint
probability; posteriors, marginals, conditional/partial entropies and
constrained maxima are then computed directly from the definitions.  This is
the ground truth the O(J^2 T) recursions are verified against.  Budgets
guard against accidental exponential blowups.

Quantities conditioned on a state value together with partial evidence
(the state-conditioned partial-sequence and children-subtree entropies) are
computed by fresh enumerations over the relevant positions only, so they
stay well defined even when the conditioning state is ruled out by the rest
of the data.  Methods return None when the conditioning event is impossible.
"""

import re

import numpy as np

from .errors import BudgetExceededError, ImpossibleObservationError
from .model import HmmModel, ObservedSequence, ObservedTree, log_emission_matrix
from .numutil import entr, entropy

__all__ = ["OracleResult", "enumerate_chain", "enumerate_tree", "oracle_entropy",
           "DEFAULT_CONFIG_BUDGET"]

DEFAULT_CONFIG_BUDGET = 10 ** 7


def _config_table(num_states: int, length: int) -> np.ndarray:
    """All state configurations, lexicographically ascending by position 0."""
    total = num_states ** length
    codes = np.arange(total)
    configs = np.empty((total, length), dtype=np.int64)
    for pos in range(length):
        power = num_states ** (length - 1 - pos)
        configs[:, pos] = (codes // power) % num_states
    return configs


class OracleResult:
    """Joint enumeration of all state configurations of one instance."""

    def __init__(self, model, configs, joint, evidence, emission, topology=None):
        self.model = model
        self.configurations = configs
        self.joint = joint
        self.evidence = float(evidence)
        self.posterior = joint / evidence
        self.emission = emission  # emission[u, j] = b_j(x_u)
        self.topology = topology  # None for chains

    @property
    def length(self) -> int:
        return self.configurations.shape[1]

    @property
    def num_states(self) -> int:
        return self.model.num_states

    @property
    def kind(self) -> str:
        return "chain" if self.topology is None else "tree"

    # -- basic posterior queries -------------------------------------------

    def marginal(self, u: int) -> np.ndarray:
        return np.bincount(self.configurations[:, u], weights=self.posterior,
                           minlength=self.num_states)

    def pairwise(self, u: int, v: int) -> np.ndarray:
        j = self.num_states
        codes = self.configurations[:, u] * j + self.configurations[:, v]
        flat = np.bincount(codes, weights=self.posterior, minlength=j * j)
        return flat.reshape(j, j)

    def subset_entropy(self, coords) -> float:
        """H(S_coords | X = x); the empty set has entropy 0."""
        coords = list(coords)
        if not coords:
            return 0.0
        j = self.num_states
        codes = np.zeros(self.configurations.shape[0], dtype=np.int64)
        for c in coords:
            codes = codes * j + self.configurations[:, c]
        weights = np.bincount(codes, weights=self.posterior,
                              minlength=j ** len(coords))
        return float(entr(weights).sum())

    def global_entropy(self) -> float:
        return float(entr(self.posterior).sum())

    def marginal_entropy(self, u: int) -> float:
        return entropy(self.marginal(u))

    def conditional_entropy(self, target: int, given) -> float:
        """H(S_target | S_given, X = x) = H(both) - H(given)."""
        given = list(given)
        if not given:
            return self.marginal_entropy(target)
        return self.subset_entropy([target] + given) - self.subset_entropy(given)

    # -- chain-shaped queries ----------------------------------------------

    def conditional_past(self, t: int) -> float:
        return self.conditional_entropy(t, [] if t == 0 else [t - 1])

    def conditional_future(self, t: int) -> float:
        last = self.length - 1
        return self.conditional_entropy(t, [] if t == last else [t + 1])

    def prefix_entropy(self, t: int) -> float:
        return self.subset_entropy(range(t + 1))

    def suffix_entropy(self, t: int) -> float:
        return self.subset_entropy(range(t, self.length))

    # -- tree-shaped queries -----------------------------------------------

    def conditional_parent(self, u: int) -> float:
        if u == 0:
            return self.marginal_entropy(0)
        return self.conditional_entropy(u, [int(self.topology.parent[u])])

    def conditional_children(self, u: int) -> float:
        return self.conditional_entropy(u, list(self.topology.children[u]))

    def subtree_entropy(self, u: int) -> float:
        return self.subset_entropy(self.topology.subtree_vertices(u))

    def complement_entropy(self, u: int) -> float:
        inside = set(self.topology.subtree_vertices(u).tolist())
        return self.subset_entropy([v for v in range(self.length)
                                    if v not in inside])

    # -- constrained maxima ------------------------------------------------

    def best_configuration(self, order=None, tie_rel_tol: float = 1e-12):
        """Argmax configuration with its joint probability.

        Exact ties (distinct optimal configurations multiplying the same
        factors, possibly in different orders) are resolved toward the
        lexicographically smallest configuration in the given coordinate
        order (vertex/time ids by default; pass a tree's downward order to
        mirror the downward Viterbi backtracking).  Configurations within
        tie_rel_tol of the maximum count as tied.
        """
        best = float(self.joint.max())
        cand = np.flatnonzero(self.joint >= best * (1.0 - tie_rel_tol))
        if order is None:
            order = range(self.length)
        for pos in order:
            vals = self.configurations[cand, pos]
            cand = cand[vals == vals.min()]
            if cand.size == 1:
                break
        idx = int(cand[0])
        return self.configurations[idx].copy(), float(self.joint[idx])

    def viterbi_profile(self, u: int, j: int) -> float:
        """Best posterior probability among configurations with S_u = j."""
        mask = self.configurations[:, u] == j
        return float(self.posterior[mask].max()) if mask.any() else 0.0

    # -- state-conditioned, partial-evidence entropies ----------------------

    def hernando_past(self, t: int, j: int):
        """H(S_0^{t-1} | S_t = j, X_0^{t-1}); None if the event is impossible."""
        if self.kind != "chain":
            raise ValueError("hernando_past applies to chain instances")
        if t == 0:
            return 0.0
        model, b = self.model, self.emission
        configs = _config_table(model.num_states, t)
        w = model.initial[configs[:, 0]] * b[0, configs[:, 0]]
        for tau in range(1, t):
            w = w * model.transition[configs[:, tau - 1], configs[:, tau]] \
                * b[tau, configs[:, tau]]
        w = w * model.transition[configs[:, t - 1], j]
        norm = w.sum()
        if norm <= 0.0:
            return None
        return float(entr(w / norm).sum())

    def hernando_future(self, t: int, j: int):
        """H(S_{t+1}^{T-1} | S_t = j, X_{t+1}^{T-1}); None if impossible."""
        if self.kind != "chain":
            raise ValueError("hernando_future applies to chain instances")
        last = self.length - 1
        if t == last:
            return 0.0
        model, b = self.model, self.emission
        k = last - t
        configs = _config_table(model.num_states, k)
        w = model.transition[j, configs[:, 0]] * b[t + 1, configs[:, 0]]
        for pos in range(1, k):
            w = w * model.transition[configs[:, pos - 1], configs[:, pos]] \
                * b[t + 1 + pos, configs[:, pos]]
        norm = w.sum()
        if norm <= 0.0:
            return None
        return float(entr(w / norm).sum())

    def children_subtrees_conditional(self, u: int, j: int):
        """H(states below u | S_u = j, observed subtree at u); None if the
        event is impossible given the children subtree observations."""
        if self.kind != "tree":
            raise ValueError("children_subtrees_conditional applies to trees")
        below = [v for v in self.topology.subtree_vertices(u).tolist() if v != u]
        if not below:
            return 0.0
        model, b = self.model, self.emission
        pos = {v: i for i, v in enumerate(below)}
        configs = _config_table(model.num_states, len(below))
        w = np.ones(configs.shape[0])
        for v in below:
            parent = int(self.topology.parent[v])
            src = np.full(configs.shape[0], j) if parent == u \
                else configs[:, pos[parent]]
            w = w * model.transition[src, configs[:, pos[v]]] \
                * b[v, configs[:, pos[v]]]
        norm = w.sum()
        if norm <= 0.0:
            return None
        return float(entr(w / norm).sum())


def _enumerate(model: HmmModel, values, parent, config_budget: int):
    """Joint probability of every state configuration of the tree with the
    given parent array (root 0 first, ``parent[0] = -1``); a chain is the
    path with parents -1, 0, ..., T-2.  Each configuration's product runs
    over the vertices in id order, one transition and one emission factor
    per vertex.  Returns (configurations, emission table, joint, evidence)."""
    j, n = model.num_states, len(parent)
    if j ** n > config_budget:
        raise BudgetExceededError(
            f"{j}^{n} configurations exceed budget {config_budget}"
        )
    b = np.exp(log_emission_matrix(model, values))
    configs = _config_table(j, n)
    prob = model.initial[configs[:, 0]] * b[0, configs[:, 0]]
    for u in range(1, n):
        prob = prob * model.transition[configs[:, parent[u]], configs[:, u]] \
            * b[u, configs[:, u]]
    return configs, b, prob, prob.sum()


def enumerate_chain(model: HmmModel, seq: ObservedSequence,
                    config_budget: int = DEFAULT_CONFIG_BUDGET) -> OracleResult:
    """Exact posterior over all J^T state sequences of a chain instance."""
    configs, b, joint, evidence = _enumerate(
        model, seq.values, np.arange(-1, seq.length - 1), config_budget)
    if evidence <= 0.0:
        raise ImpossibleObservationError("observed sequence has zero probability")
    return OracleResult(model, configs, joint, evidence, b)


def enumerate_tree(model: HmmModel, tree: ObservedTree,
                   config_budget: int = DEFAULT_CONFIG_BUDGET) -> OracleResult:
    """Exact posterior over all J^n state trees of a tree instance."""
    configs, b, joint, evidence = _enumerate(
        model, tree.values, tree.topology.parent, config_budget)
    if evidence <= 0.0:
        raise ImpossibleObservationError("observed tree has zero probability")
    return OracleResult(model, configs, joint, evidence, b, topology=tree.topology)


_QUERY_RE = re.compile(
    r"""^\s*(?:
        (?P<global>global)
      | marginal\((?P<m_u>\d+)\)
      | conditional\((?P<c_u>\d+)\|(?P<c_kind>past|future|parent|children)\)
      | partial\((?P<p_kind>prefix|suffix|subtree|complement):(?P<p_u>\d+)\)
      | hernando\((?P<h_u>\d+),(?P<h_j>\d+)(?:\|(?P<h_kind>past|future))?\)
      | viterbi-profile\((?P<v_u>\d+),(?P<v_j>\d+)\)
    )\s*$""",
    re.VERBOSE,
)


def oracle_entropy(result: OracleResult, query: str) -> float:
    """Evaluate a quantity descriptor against an enumeration result.

    Supported descriptors: ``global``, ``marginal(u)``,
    ``conditional(u|past)``, ``conditional(u|future)``,
    ``conditional(u|parent)``, ``conditional(u|children)``,
    ``partial(prefix:t)``, ``partial(suffix:t)``, ``partial(subtree:u)``,
    ``partial(complement:u)``, ``hernando(u,j)``, ``hernando(u,j|future)``
    and ``viterbi-profile(u,j)``.  State-conditioned queries whose
    conditioning event is impossible evaluate to NaN.
    """
    m = _QUERY_RE.match(query)
    if not m:
        raise ValueError(f"malformed oracle query: {query!r}")
    if m.group("global"):
        return result.global_entropy()
    if m.group("m_u") is not None:
        return result.marginal_entropy(int(m.group("m_u")))
    if m.group("c_u") is not None:
        u, kind = int(m.group("c_u")), m.group("c_kind")
        if kind in ("past", "future") and result.kind != "chain":
            raise ValueError(f"conditional(.|{kind}) applies to chains")
        if kind in ("parent", "children") and result.kind != "tree":
            raise ValueError(f"conditional(.|{kind}) applies to trees")
        return {"past": result.conditional_past,
                "future": result.conditional_future,
                "parent": result.conditional_parent,
                "children": result.conditional_children}[kind](u)
    if m.group("p_u") is not None:
        u, kind = int(m.group("p_u")), m.group("p_kind")
        if kind in ("prefix", "suffix") and result.kind != "chain":
            raise ValueError(f"partial({kind}:.) applies to chains")
        if kind in ("subtree", "complement") and result.kind != "tree":
            raise ValueError(f"partial({kind}:.) applies to trees")
        return {"prefix": result.prefix_entropy,
                "suffix": result.suffix_entropy,
                "subtree": result.subtree_entropy,
                "complement": result.complement_entropy}[kind](u)
    if m.group("h_u") is not None:
        u, j = int(m.group("h_u")), int(m.group("h_j"))
        kind = m.group("h_kind") or ("past" if result.kind == "chain" else "upward")
        if result.kind == "chain":
            value = result.hernando_past(u, j) if kind == "past" \
                else result.hernando_future(u, j)
        else:
            if kind == "future":
                raise ValueError("hernando(.|future) applies to chains")
            value = result.children_subtrees_conditional(u, j)
        return float("nan") if value is None else value
    u, j = int(m.group("v_u")), int(m.group("v_j"))
    return result.viterbi_profile(u, j)
