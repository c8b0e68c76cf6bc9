"""The enumeration oracle is validated against closed-form cases before it
is trusted as ground truth anywhere else."""

import math
import re

import numpy as np
import pytest

from hmmentropy import (BudgetExceededError, Categorical, HmmModel,
                        ObservedSequence, ObservedTree, TreeTopology,
                        ValidationError, enumerate_chain, enumerate_tree,
                        oracle_entropy, simulate_chain, smooth_chain,
                        upward_pass)
from hmmentropy.numutil import entropy

from conftest import M1, random_chain_instance, random_model, random_tree_instance


class TestChainEnumeration:
    def test_m1_hand_case(self, m1):
        res = enumerate_chain(m1, ObservedSequence([0, 0]))
        joints = np.array([0.288, 0.008, 0.008, 0.018])
        assert res.evidence == pytest.approx(0.322, rel=1e-12)
        np.testing.assert_allclose(res.posterior, joints / joints.sum(), rtol=1e-12)
        np.testing.assert_array_equal(
            res.configurations, [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_one_sequence_only(self, m1):
        """A dataset of two sequences is not one chain instance."""
        with pytest.raises(ValidationError, match="takes one sequence, not 2$"):
            enumerate_chain(m1, ObservedSequence([0, 1, 0], [0, 1, 3]))

    def test_single_state(self):
        model = HmmModel([1.0], [[1.0]], [[Categorical([0.5, 0.5])]])
        res = enumerate_chain(model, ObservedSequence([0, 1, 0]))
        assert res.posterior.shape == (1,)
        assert res.posterior[0] == 1.0

    def test_deterministic_emissions_single_config(self):
        model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                         [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]])
        res = enumerate_chain(model, ObservedSequence([0, 1, 1]))
        nonzero = res.posterior[res.posterior > 0]
        assert nonzero.size == 1 and nonzero[0] == pytest.approx(1.0)
        assert res.global_entropy() == 0.0

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            enumerate_chain(M1, ObservedSequence([0] * 10), config_budget=100)

    def test_independent_mixture_entropy_decomposes(self):
        # identical transition rows make states independent given the data:
        # the global entropy must equal the sum of per-position entropies
        rng = np.random.default_rng(5)
        for j in (2, 3):
            mu = rng.dirichlet(np.ones(j))
            emissions = [[Categorical(rng.dirichlet(np.ones(3)))] for _ in range(j)]
            model = HmmModel(mu, np.tile(mu, (j, 1)), emissions)
            seq = ObservedSequence(rng.integers(0, 3, size=4))
            res = enumerate_chain(model, seq)
            persite = 0.0
            for t in range(4):
                lik = np.array([model.emissions[s][0].probs[seq.values[t, 0]]
                                for s in range(j)])
                persite += entropy(mu * lik / (mu * lik).sum())
            assert res.global_entropy() == pytest.approx(persite, abs=1e-12)

    def test_evidence_matches_forward_loglik(self):
        for seed in range(25):
            model, seq = random_chain_instance(seed, poisson=True)
            res = enumerate_chain(model, seq)
            ll = smooth_chain(model, seq).log_likelihood
            assert res.evidence == pytest.approx(math.exp(ll), rel=1e-9)


class TestTreeEnumeration:
    def test_star_hand_case(self, m1):
        tree = ObservedTree(TreeTopology([-1, 0, 0]), [0, 0, 0])
        res = enumerate_tree(m1, tree)
        assert res.evidence == pytest.approx(0.2258, rel=1e-12)

    def test_single_vertex_is_bayes_rule(self, m1):
        tree = ObservedTree(TreeTopology([-1]), [[0]])
        res = enumerate_tree(m1, tree)
        np.testing.assert_allclose(res.marginal(0), [0.8, 0.2], rtol=1e-12)

    def test_deterministic_transitions_single_config(self):
        model = HmmModel([1.0, 0.0], np.eye(2),
                         [[Categorical([0.7, 0.3])], [Categorical([0.3, 0.7])]])
        tree = ObservedTree(TreeTopology([-1, 0, 1]), [0, 1, 0])
        res = enumerate_tree(model, tree)
        assert np.count_nonzero(res.posterior) == 1
        assert res.global_entropy() == 0.0

    def test_evidence_matches_upward_loglik(self):
        for seed in range(25):
            model, tree = random_tree_instance(seed, poisson=True)
            res = enumerate_tree(model, tree)
            ll = upward_pass(model, tree).log_likelihood
            assert res.evidence == pytest.approx(math.exp(ll), rel=1e-9)

    def test_budget(self, m1):
        parent = np.zeros(30, dtype=np.int64)
        parent[0] = -1
        tree = ObservedTree(TreeTopology(parent), np.zeros(30, dtype=int))
        with pytest.raises(BudgetExceededError):
            enumerate_tree(m1, tree, config_budget=1000)


class TestQueries:
    def test_uniform_marginal(self):
        model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                         [[Categorical([0.5, 0.5])], [Categorical([0.5, 0.5])]])
        res = enumerate_chain(model, ObservedSequence([0, 1]))
        assert oracle_entropy(res, "marginal(0)") == pytest.approx(math.log(2))
        assert oracle_entropy(res, "global") == pytest.approx(2 * math.log(2))

    def test_query_grammar(self, m1):
        res = enumerate_chain(m1, ObservedSequence([0, 0, 1]))
        assert oracle_entropy(res, "conditional(1|past)") == pytest.approx(
            res.conditional_entropy(1, [0]), abs=1e-15)
        assert oracle_entropy(res, "conditional(1|future)") == pytest.approx(
            res.conditional_entropy(1, [2]), abs=1e-15)
        assert oracle_entropy(res, "partial(prefix:1)") == pytest.approx(
            res.subset_entropy([0, 1]), abs=1e-15)
        assert oracle_entropy(res, "partial(suffix:1)") == pytest.approx(
            res.subset_entropy([1, 2]), abs=1e-15)
        assert oracle_entropy(res, "hernando(1,0)") == pytest.approx(
            res.hernando_past(1, 0), abs=1e-15)
        assert oracle_entropy(res, "hernando(1,0|future)") == pytest.approx(
            res.hernando_future(1, 0), abs=1e-15)
        assert oracle_entropy(res, "viterbi-profile(2,1)") == pytest.approx(
            res.viterbi_profile(2, 1), abs=1e-15)

    def test_tree_queries(self, m1):
        tree = ObservedTree(TreeTopology([-1, 0, 0, 1]), [0, 0, 1, 0])
        res = enumerate_tree(m1, tree)
        assert oracle_entropy(res, "conditional(1|parent)") == pytest.approx(
            res.conditional_entropy(1, [0]), abs=1e-15)
        assert oracle_entropy(res, "conditional(1|children)") == pytest.approx(
            res.conditional_entropy(1, [3]), abs=1e-15)
        assert oracle_entropy(res, "partial(subtree:1)") == pytest.approx(
            res.subset_entropy([1, 3]), abs=1e-15)
        assert oracle_entropy(res, "partial(complement:1)") == pytest.approx(
            res.subset_entropy([0, 2]), abs=1e-15)

    def test_malformed_query(self, m1):
        res = enumerate_chain(m1, ObservedSequence([0]))
        with pytest.raises(ValueError, match="malformed"):
            oracle_entropy(res, "nonsense(3)")
        with pytest.raises(ValueError):
            oracle_entropy(res, "conditional(0|parent)")

    def test_posterior_sums_to_one(self):
        for seed in range(10):
            model, seq = random_chain_instance(seed)
            res = enumerate_chain(model, seq)
            assert abs(res.posterior.sum() - 1.0) <= 1e-12
            assert res.evidence > 0

    def test_impossible_conditioning_returns_none(self):
        # state 1 is unreachable from the delta initial law
        model = HmmModel([1.0, 0.0], np.eye(2),
                         [[Categorical([0.6, 0.4])], [Categorical([0.4, 0.6])]])
        seq = ObservedSequence([0, 0])
        res = enumerate_chain(model, seq)
        assert res.hernando_past(1, 1) is None
        assert math.isnan(oracle_entropy(res, "hernando(1,1)"))


class TestChainIsPathTree:
    """A chain's queries are the tree queries on its path 0 -> ... -> T-1."""

    def test_chain_queries_are_path_tree_queries(self):
        impossible = 0
        for seed in range(80):
            rng = np.random.default_rng(seed)
            j, length = int(rng.integers(2, 4)), int(rng.integers(1, 7))
            model = random_model(rng, j, num_variables=2, zeros=True,
                                 poisson=True)
            _, seq = simulate_chain(model, length, seed)
            chain = enumerate_chain(model, seq)
            path = enumerate_tree(model, ObservedTree(
                TreeTopology(np.arange(-1, length - 1)), seq.values))
            for t in range(length):
                assert chain.conditional_past(t) == path.conditional_parent(t)
                assert chain.conditional_future(t) == \
                    path.conditional_children(t)
                assert chain.suffix_entropy(t) == path.subtree_entropy(t)
                for s in range(j):
                    value = chain.hernando_future(t, s)
                    assert value == path.children_subtrees_conditional(t, s)
                    impossible += value is None
        # the exact zeros make some conditioning events impossible
        assert impossible > 0

    def test_cross_kind_queries_raise(self, m1):
        chain = enumerate_chain(m1, ObservedSequence([0, 1, 0]))
        tree = enumerate_tree(m1, ObservedTree(TreeTopology([-1, 0, 1]),
                                               [0, 1, 0]))
        for res, query, message in [
                (chain, "conditional(1|parent)",
                 "conditional(.|parent) applies to trees"),
                (chain, "conditional(1|children)",
                 "conditional(.|children) applies to trees"),
                (chain, "partial(subtree:1)", "partial(subtree:.) applies to trees"),
                (chain, "partial(complement:1)",
                 "partial(complement:.) applies to trees"),
                (tree, "conditional(1|past)",
                 "conditional(.|past) applies to chains"),
                (tree, "conditional(1|future)",
                 "conditional(.|future) applies to chains"),
                (tree, "partial(prefix:1)", "partial(prefix:.) applies to chains"),
                (tree, "partial(suffix:1)", "partial(suffix:.) applies to chains"),
                (tree, "hernando(1,0|past)",
                 "hernando(.|past) applies to chains"),
                (tree, "hernando(1,0|future)",
                 "hernando(.|future) applies to chains")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                oracle_entropy(res, query)
        for call, message in [
                (tree.hernando_past, "hernando_past applies to chain instances"),
                (tree.hernando_future,
                 "hernando_future applies to chain instances"),
                (chain.children_subtrees_conditional,
                 "children_subtrees_conditional applies to trees")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(1, 0)
