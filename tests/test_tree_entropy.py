"""Tree entropy profiles: hand cases, oracle equivalence, decomposition and
bound properties, dual-route agreement, and chain reduction on paths."""

import math
import re

import numpy as np
import pytest

from hmmentropy import (BudgetExceededError, Categorical, HmmModel,
                        ObservedTree, TreeTopology, children_conditional_profile,
                        entropy_future, entropy_past_hernando, entropy_summary,
                        enumerate_tree, hernando_table,
                        parent_conditional_profile, smooth_chain,
                        smooth_tree, subtree_entropies_approach1,
                        subtree_entropies_approach2, tree_entropy_profile,
                        simulate_tree, ObservedSequence)

from conftest import (oracle_tree_instances, random_chain_instance,
                      random_tree_instance, random_topology,
                      state_revealing_model, M1)

# star tree (root + 2 children), M1, x = (0,0,0); frozen from the
# 8-configuration enumeration (evidence 0.2258)
STAR_GLOBAL = 0.41254657590458205
STAR_PC = [0.13452657780713426, 0.13900999904872394, 0.13900999904872394]
STAR_CC0 = 0.053993132426869206
STAR_COMP1 = 0.27353657685585814
STAR_SCU0 = [0.2485016747792617, 1.2344835394606832]


def star_tree():
    return ObservedTree(TreeTopology([-1, 0, 0]), [0, 0, 0])


def full_profile(model, tree, op_budget=10 ** 8):
    post = smooth_tree(model, tree)
    return post, tree_entropy_profile(model, tree, post, op_budget)


def upward_table(model, tree, post):
    """The state-conditioned upward table of approach 2."""
    return subtree_entropies_approach2(model, tree, post)[0]


class TestFrozenCases:
    def test_star_profile(self, m1):
        post, prof = full_profile(m1, star_tree())
        assert prof.global_entropy == pytest.approx(STAR_GLOBAL, abs=1e-12)
        np.testing.assert_allclose(prof.parent_conditional, STAR_PC, atol=1e-12)
        assert prof.children_conditional[0] == pytest.approx(STAR_CC0, abs=1e-12)
        np.testing.assert_allclose(prof.partial_complement[1:],
                                   [STAR_COMP1] * 2, atol=1e-12)
        np.testing.assert_allclose(upward_table(m1, star_tree(), post)[0],
                                   STAR_SCU0, atol=1e-12)
        assert prof.partial_subtree[0] == pytest.approx(STAR_GLOBAL, abs=1e-12)

    def test_single_vertex(self, m1):
        tree = ObservedTree(TreeTopology([-1]), [[0]])
        post, prof = full_profile(m1, tree)
        h0 = float(-(0.8 * math.log(0.8) + 0.2 * math.log(0.2)))
        for vec in (prof.marginal, prof.parent_conditional,
                    prof.children_conditional, prof.partial_subtree):
            assert vec[0] == pytest.approx(h0, abs=1e-12)
        assert prof.partial_complement[0] == 0.0
        np.testing.assert_allclose(upward_table(m1, tree, post), 0.0)
        s = entropy_summary(prof)
        assert s.g == pytest.approx(h0, abs=1e-12)
        assert s.c == pytest.approx(h0, abs=1e-12)
        assert s.m == pytest.approx(h0, abs=1e-12)

    def test_deterministic_emissions_all_zero(self):
        model = state_revealing_model(2)
        topo = random_topology(np.random.default_rng(0), 10)
        values = np.random.default_rng(1).integers(0, 2, size=10)
        _, prof = full_profile(model, ObservedTree(topo, values))
        for vec in (prof.marginal, prof.parent_conditional,
                    prof.children_conditional, prof.subtree_given_parent,
                    prof.partial_subtree, prof.partial_complement):
            np.testing.assert_allclose(vec, 0.0, atol=1e-12)
        assert prof.global_entropy == pytest.approx(0.0, abs=1e-12)
        s = entropy_summary(prof)
        assert s.g == s.c == s.m == 0.0
        assert math.isnan(s.ratio_cg) and math.isnan(s.ratio_mg)

    def test_leaf_conventions(self, m1):
        post, prof = full_profile(m1, star_tree())
        # leaves: children-conditional = marginal; upward table rows zero
        np.testing.assert_allclose(prof.children_conditional[1:],
                                   prof.marginal[1:], atol=1e-15)
        np.testing.assert_allclose(upward_table(m1, star_tree(), post)[1:], 0.0)


class TestOracleEquivalence:
    def test_every_field(self):
        for model, tree in oracle_tree_instances(60, poisson=True):
            post, prof = full_profile(model, tree)
            res = enumerate_tree(model, tree)
            n = tree.num_vertices
            topo = tree.topology
            assert prof.global_entropy == pytest.approx(res.global_entropy(),
                                                        abs=1e-9)
            for u in range(n):
                assert prof.marginal[u] == pytest.approx(
                    res.marginal_entropy(u), abs=1e-9)
                assert prof.parent_conditional[u] == pytest.approx(
                    res.conditional_parent(u), abs=1e-9)
                cc = res.conditional_children(u) if topo.children[u].size \
                    else res.marginal_entropy(u)
                assert prof.children_conditional[u] == pytest.approx(cc, abs=1e-9)
                assert prof.partial_subtree[u] == pytest.approx(
                    res.subtree_entropy(u), abs=1e-9)
                if u != 0:
                    assert prof.partial_complement[u] == pytest.approx(
                        res.complement_entropy(u), abs=1e-9)
                    # H(subtree_u | S_parent, X) = H(subtree+parent) - H(parent)
                    sub = topo.subtree_vertices(u).tolist()
                    expect = res.subset_entropy(sub + [int(topo.parent[u])]) \
                        - res.marginal_entropy(int(topo.parent[u]))
                    assert prof.subtree_given_parent[u] == pytest.approx(
                        expect, abs=1e-9)

    def test_state_conditioned_upward_table(self):
        for seed in range(40):
            model, tree = random_tree_instance(seed)
            post = smooth_tree(model, tree)
            h = upward_table(model, tree, post)
            res = enumerate_tree(model, tree)
            for u in range(tree.num_vertices):
                children = tree.topology.children[u]
                for j in range(model.num_states):
                    # entries are conventional where state j has zero prior
                    # mass at u or some child subtree is impossible given
                    # S_u = j; such entries always carry zero weight
                    defined = post.prior[u, j] > 0 and all(
                        post.beta_edge[v][j] > 0 for v in children)
                    if defined:
                        expect = res.children_subtrees_conditional(u, j)
                        assert expect is not None
                        assert h[u, j] == pytest.approx(expect, abs=1e-9)


class TestDecompositionAndBounds:
    def test_corollary_parent_sum(self):
        for seed in range(50):
            model, tree = random_tree_instance(seed, max_states=4,
                                               max_vertices=64)
            post = smooth_tree(model, tree)
            pc = parent_conditional_profile(model, tree, post)
            _, _, _, global_entropy = subtree_entropies_approach1(
                model, tree, post, pc)
            assert math.fsum(pc) == pytest.approx(global_entropy, abs=1e-9)

    def test_bounds_and_summary_ordering(self):
        for seed in range(40):
            model, tree = random_tree_instance(seed, max_vertices=10,
                                               kind=None if seed % 2 else "kary")
            _, prof = full_profile(model, tree)
            assert np.all(prof.parent_conditional <= prof.marginal + 1e-12)
            assert np.all(prof.children_conditional <= prof.marginal + 1e-12)
            assert np.all(prof.marginal - prof.parent_conditional >= -1e-12)
            assert np.all(prof.marginal - prof.children_conditional >= -1e-12)
            s = entropy_summary(prof)
            assert s.g == pytest.approx(prof.global_entropy, abs=1e-9)
            assert s.g <= s.c + 1e-9
            assert s.c <= s.m + 1e-9

    def test_leaf_termination_identity(self):
        for seed in range(30):
            model, tree = random_tree_instance(seed)
            post = smooth_tree(model, tree)
            pc = parent_conditional_profile(model, tree, post)
            _, _, complement, global_entropy = subtree_entropies_approach1(
                model, tree, post, pc)
            for u in tree.topology.leaves:
                assert complement[u] + pc[u] == pytest.approx(
                    global_entropy, abs=1e-9)


class TestDualRoute:
    def test_approaches_agree(self):
        for seed in range(60):
            model, tree = random_tree_instance(seed, max_vertices=12,
                                               poisson=True)
            post = smooth_tree(model, tree)
            pc = parent_conditional_profile(model, tree, post)
            _, ps1, comp1, g1 = subtree_entropies_approach1(model, tree, post, pc)
            _, ps2, g2, comp2 = subtree_entropies_approach2(model, tree, post)
            np.testing.assert_allclose(ps1, ps2, atol=1e-9)
            np.testing.assert_allclose(comp1, comp2, atol=1e-9)
            assert g1 == pytest.approx(g2, abs=1e-9)

    def test_approach2_needs_no_downward_table_for_upward(self):
        # the upward table must be computable from upward quantities alone:
        # rebuild it from a posterior whose smoothed table is absent
        from hmmentropy import TreePosterior, upward_pass
        from hmmentropy.numutil import entr
        from hmmentropy.tree_entropy import _child_given_parent

        model, tree = random_tree_instance(3)
        post = smooth_tree(model, tree)
        h_ref, _, _, _ = subtree_entropies_approach2(model, tree, post)
        up = upward_pass(model, tree)
        assert up.smoothed is None
        topo = tree.topology
        h = np.zeros((tree.num_vertices, model.num_states))
        for u in topo.downward_order[::-1]:
            for v in topo.children[u]:
                w = _child_given_parent(model, up.ratio[v], up.beta_edge[v])
                h[u] += w @ h[v] + entr(w).sum(axis=1)
        np.testing.assert_allclose(h, h_ref, atol=1e-12)


class TestLinearTreeReduction:
    def test_tree_quantities_equal_chain_quantities(self):
        for seed in range(30):
            model, seq = random_chain_instance(seed, max_states=3, max_length=9)
            tree = ObservedTree(
                TreeTopology(np.arange(-1, seq.length - 1)), seq.values)
            post_c = smooth_chain(model, seq)
            past = entropy_past_hernando(model, seq, post_c)
            future = entropy_future(model, seq, post_c)
            post_t, prof = full_profile(model, tree)
            np.testing.assert_allclose(prof.marginal, past.marginal, atol=1e-9)
            np.testing.assert_allclose(prof.parent_conditional,
                                       past.conditional, atol=1e-9)
            np.testing.assert_allclose(prof.children_conditional,
                                       future.conditional, atol=1e-9)
            np.testing.assert_allclose(prof.partial_subtree, future.partial,
                                       atol=1e-9)
            # complement of the subtree at u is the state prefix before u
            np.testing.assert_allclose(prof.partial_complement[1:],
                                       past.partial[:-1], atol=1e-9)
            assert prof.global_entropy == pytest.approx(
                past.global_entropy, abs=1e-9)
            # the upward table generalizes the future-conditioned recursion
            mask = post_t.smoothed > 0
            np.testing.assert_allclose(
                upward_table(model, tree, post_t)[mask],
                hernando_table(model, post_c, "future")[mask], atol=1e-9)
            # equality in the children bound on linear trees
            s = entropy_summary(prof)
            assert s.c == pytest.approx(s.g, abs=1e-9)


class TestChildrenBudget:
    def test_budget_error_reports_vertex(self, m1):
        parent = np.zeros(9, dtype=np.int64)
        parent[0] = -1
        tree = ObservedTree(TreeTopology(parent), np.zeros(9, dtype=int))
        post = smooth_tree(m1, tree)
        with pytest.raises(BudgetExceededError, match="vertex 0.*branching factor 8"):
            children_conditional_profile(m1, tree, post, op_budget=100)

    def test_budget_error_on_wide_vertex(self, m1):
        # 2^71 terms at vertex 2 are past 64-bit counting; the message keeps
        # the power unexpanded
        parent = [-1, 0, 0] + [2] * 70
        tree = ObservedTree(TreeTopology(parent), np.zeros(len(parent), dtype=int))
        post = smooth_tree(m1, tree)
        message = ("needs 8 + 2^71 > 100000000 terms at vertex 2 "
                   "(branching factor 70)")
        with pytest.raises(BudgetExceededError, match=re.escape(message)):
            children_conditional_profile(m1, tree, post)

    def test_budget_allows_exact_fit(self, m1):
        tree = star_tree()
        post = smooth_tree(m1, tree)
        # root costs 2^3 = 8 terms exactly
        prof = children_conditional_profile(m1, tree, post, op_budget=8)
        assert prof[0] == pytest.approx(STAR_CC0, abs=1e-12)
