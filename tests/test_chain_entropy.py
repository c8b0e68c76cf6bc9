"""Chain entropy profiles against frozen hand cases and the oracle."""

import math

import numpy as np
import pytest

from hmmentropy import (Categorical, HmmModel, ObservedSequence,
                        enumerate_chain, entropy_future, entropy_future_direct,
                        entropy_past_direct,
                        entropy_past_hernando, marginal_entropy_profile,
                        smooth_chain)

from conftest import random_chain_instance, state_revealing_model, uniform_model

LN2 = math.log(2.0)

# M1 with x = (0, 0); expected values frozen from the 4-configuration
# enumeration (joints 0.288, 0.008, 0.008, 0.018)
M1_GLOBAL = 0.44464354992900224
M1_MARGINAL = 0.28058599129446926
M1_COND_LAST = 0.16405755863453297


def profiles(model, seq):
    post = smooth_chain(model, seq)
    return (entropy_past_hernando(model, seq, post),
            entropy_past_direct(model, seq, post),
            entropy_future(model, seq, post))


class TestFrozenCases:
    def test_m1_past(self, m1):
        past, direct, _ = profiles(m1, ObservedSequence([0, 0]))
        for prof in (past, direct):
            assert prof.global_entropy == pytest.approx(M1_GLOBAL, abs=1e-12)
            np.testing.assert_allclose(prof.marginal, [M1_MARGINAL] * 2, atol=1e-12)
            np.testing.assert_allclose(prof.conditional,
                                       [M1_MARGINAL, M1_COND_LAST], atol=1e-12)
            np.testing.assert_allclose(prof.partial,
                                       [M1_MARGINAL, M1_GLOBAL], atol=1e-12)

    def test_m1_future_mirrors_past(self, m1):
        _, _, future = profiles(m1, ObservedSequence([0, 0]))
        assert future.global_entropy == pytest.approx(M1_GLOBAL, abs=1e-10)
        np.testing.assert_allclose(future.conditional,
                                   [M1_COND_LAST, M1_MARGINAL], atol=1e-10)

    def test_state_revealing_all_zero(self):
        model = state_revealing_model(3)
        seq = ObservedSequence([0, 2, 1, 1, 0])
        for prof in profiles(model, seq):
            np.testing.assert_allclose(prof.marginal, 0.0, atol=1e-12)
            np.testing.assert_allclose(prof.conditional, 0.0, atol=1e-12)
            np.testing.assert_allclose(prof.partial, 0.0, atol=1e-12)
            assert prof.global_entropy == pytest.approx(0.0, abs=1e-12)

    def test_uniform_degenerate(self):
        model = uniform_model(2)
        for prof in profiles(model, ObservedSequence([0, 1, 0])):
            np.testing.assert_allclose(prof.conditional, [LN2] * 3, atol=1e-12)
            assert prof.global_entropy == pytest.approx(3 * LN2, abs=1e-12)

    def test_deterministic_transitions_all_uncertainty_at_origin(self):
        # identity transitions, indistinguishable emissions: the two states
        # stay perfectly correlated, so only position 0 contributes entropy
        model = HmmModel([0.5, 0.5], np.eye(2),
                         [[Categorical([0.5, 0.5])], [Categorical([0.5, 0.5])]])
        seq = ObservedSequence([0, 1])
        past, direct, future = profiles(model, seq)
        for prof in (past, direct):
            np.testing.assert_allclose(prof.marginal, [LN2, LN2], atol=1e-12)
            np.testing.assert_allclose(prof.conditional, [LN2, 0.0], atol=1e-12)
        np.testing.assert_allclose(future.conditional, [0.0, LN2], atol=1e-12)

    def test_length_one(self, m1):
        past, direct, future = profiles(m1, ObservedSequence([0]))
        for prof in (past, direct, future):
            np.testing.assert_allclose(prof.conditional, prof.marginal, atol=1e-12)
            np.testing.assert_allclose(prof.partial, prof.marginal, atol=1e-12)
            assert prof.global_entropy == pytest.approx(prof.marginal[0], abs=1e-13)

    def test_marginal_entropy_profile_values(self, m1):
        post = smooth_chain(m1, ObservedSequence([0, 0]))
        np.testing.assert_allclose(marginal_entropy_profile(post),
                                   [M1_MARGINAL] * 2, atol=1e-12)


class TestOracleEquivalence:
    def test_all_quantities(self):
        for seed in range(60):
            model, seq = random_chain_instance(seed, max_states=3, max_length=8,
                                               poisson=True)
            post = smooth_chain(model, seq)
            past = entropy_past_hernando(model, seq, post)
            futures = (entropy_future(model, seq, post),
                       entropy_future_direct(model, seq, post))
            res = enumerate_chain(model, seq)
            t_len = seq.length
            for t in range(t_len):
                assert past.marginal[t] == pytest.approx(
                    res.marginal_entropy(t), abs=1e-9)
                assert past.conditional[t] == pytest.approx(
                    res.conditional_past(t), abs=1e-9)
                assert past.partial[t] == pytest.approx(
                    res.prefix_entropy(t), abs=1e-9)
                for future in futures:
                    assert future.conditional[t] == pytest.approx(
                        res.conditional_future(t), abs=1e-9)
                    assert future.partial[t] == pytest.approx(
                        res.suffix_entropy(t), abs=1e-9)
            for prof in (past,) + futures:
                assert prof.global_entropy == pytest.approx(
                    res.global_entropy(), abs=1e-9)

    def test_hernando_tables(self):
        for seed in range(40):
            model, seq = random_chain_instance(seed, max_states=3, max_length=6)
            post = smooth_chain(model, seq)
            past = entropy_past_hernando(model, seq, post)
            future = entropy_future(model, seq, post)
            res = enumerate_chain(model, seq)
            for t in range(seq.length):
                for j in range(model.num_states):
                    expect = res.hernando_past(t, j)
                    if expect is None:
                        assert past.hernando[t, j] == 0.0
                    else:
                        assert past.hernando[t, j] == pytest.approx(expect, abs=1e-9)
                    # future-table rows at states with zero smoothed mass are
                    # conventional (the L/G ratios the recursion uses are
                    # guarded there); they are never consumed downstream
                    if post.smoothed[t, j] > 0:
                        expect = res.hernando_future(t, j)
                        assert expect is not None
                        assert future.hernando[t, j] == pytest.approx(expect, abs=1e-9)


class TestStructuralProperties:
    def test_route_equivalence(self):
        for seed in range(80):
            model, seq = random_chain_instance(seed, max_states=4, max_length=12,
                                               poisson=True)
            post = smooth_chain(model, seq)
            a = entropy_past_hernando(model, seq, post)
            b = entropy_past_direct(model, seq, post)
            np.testing.assert_allclose(a.conditional, b.conditional, atol=1e-9)
            np.testing.assert_allclose(a.partial, b.partial, atol=1e-9)
            assert a.global_entropy == pytest.approx(b.global_entropy, abs=1e-9)

    def test_direction_consistency_and_bounds(self):
        for seed in range(60):
            model, seq = random_chain_instance(seed, max_states=4, max_length=12)
            post = smooth_chain(model, seq)
            past = entropy_past_hernando(model, seq, post)
            future = entropy_future(model, seq, post)
            assert past.global_entropy == pytest.approx(
                future.global_entropy, abs=1e-9)
            log_j = math.log(model.num_states)
            for prof in (past, future):
                assert np.all(prof.conditional >= -1e-12)
                assert np.all(prof.conditional <= prof.marginal + 1e-12)
                assert np.all(prof.marginal <= log_j + 1e-12)
            assert math.fsum(past.marginal) - past.global_entropy >= -1e-9

    def test_decomposition_and_telescoping(self):
        for seed in range(60):
            model, seq = random_chain_instance(seed, max_states=4, max_length=12)
            post = smooth_chain(model, seq)
            past = entropy_past_hernando(model, seq, post)
            future = entropy_future(model, seq, post)
            assert math.fsum(past.conditional) == pytest.approx(
                past.global_entropy, abs=1e-9)
            assert math.fsum(future.conditional) == pytest.approx(
                future.global_entropy, abs=1e-9)
            np.testing.assert_allclose(np.diff(past.partial),
                                       past.conditional[1:], atol=1e-9)
            np.testing.assert_allclose(past.partial[1:] - past.partial[:-1],
                                       past.conditional[1:], atol=1e-9)
            np.testing.assert_allclose(future.partial[:-1] - future.partial[1:],
                                       future.conditional[:-1], atol=1e-9)
            # past partial non-decreasing, future partial non-increasing
            assert np.all(np.diff(past.partial) >= -1e-12)
            assert np.all(np.diff(future.partial) <= 1e-12)

    def test_profiles_at_scale(self, m1):
        # identities must survive T = 1e4 with compensated accumulation
        from hmmentropy import simulate_chain
        _, seq = simulate_chain(m1, 10 ** 4, seed=5)
        post = smooth_chain(m1, seq)
        a = entropy_past_hernando(m1, seq, post)
        b = entropy_past_direct(m1, seq, post)
        f = entropy_future(m1, seq, post)
        assert math.fsum(a.conditional) == pytest.approx(a.global_entropy, abs=1e-9)
        np.testing.assert_allclose(a.conditional, b.conditional, atol=1e-9)
        np.testing.assert_allclose(a.partial, b.partial, atol=1e-9)
        assert f.global_entropy == pytest.approx(a.global_entropy, abs=1e-9)
