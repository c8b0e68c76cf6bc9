"""Forward-backward and Viterbi against hand cases and the enumeration oracle."""

import itertools
import math

import numpy as np
import pytest

from hmmentropy import (Categorical, HmmModel, ImpossibleObservationError,
                        ObservedSequence, enumerate_chain, smooth_chain,
                        viterbi_chain)
from hmmentropy.model import emission_prob

from conftest import (M1, random_chain_instance, state_revealing_model,
                      uniform_model)


def enumerated_filter(model, seq):
    """Filtering quantities from the full configuration table (independent
    of the scaled recursions): every full configuration carries the running
    product of transition/emission factors up to t; prefix weights are that
    running product times a constant overcount that cancels on
    normalization.  Returns (forward, predicted, normalizers)."""
    from hmmentropy.model import log_emission_matrix
    from hmmentropy.oracle import _config_table

    j, t_len = model.num_states, seq.length
    b = np.exp(log_emission_matrix(model, seq.values))
    configs = _config_table(j, t_len)
    fwd = np.empty((t_len, j))
    pred = np.empty((t_len, j))
    norm = np.empty(t_len)
    w = model.initial[configs[:, 0]]
    prev_total = None
    for t in range(t_len):
        if t > 0:
            w = w * model.transition[configs[:, t - 1], configs[:, t]]
        g = np.bincount(configs[:, t], weights=w, minlength=j)
        pred[t] = g / g.sum()
        w = w * b[t, configs[:, t]]
        f = np.bincount(configs[:, t], weights=w, minlength=j)
        total = f.sum()
        fwd[t] = f / total
        # total_t = P(X_0^t) * J^(T-1-t): the overcount shrinks by J per step
        if prev_total is None:
            norm[t] = total / j ** (t_len - 1)
        else:
            norm[t] = total / prev_total * j
        prev_total = total
    return fwd, pred, norm


def brute_force_filter(model, seq):
    """Filtering quantities by raw prefix enumeration (independent of the
    scaled recursions): returns (forward, predicted, normalizers)."""
    j, t_len = model.num_states, seq.length
    fwd = np.zeros((t_len, j))
    pred = np.zeros((t_len, j))
    prefix_evidence = np.empty(t_len + 1)
    prefix_evidence[0] = 1.0
    for t in range(t_len):
        joint_t = np.zeros(j)
        pred_t = np.zeros(j)
        for states in itertools.product(range(j), repeat=t + 1):
            p = model.initial[states[0]]
            for tau in range(1, t + 1):
                p *= model.transition[states[tau - 1], states[tau]]
            for tau in range(t):
                p *= emission_prob(model, states[tau], seq.values[tau])
            pred_t[states[t]] += p
            p *= emission_prob(model, states[t], seq.values[t])
            joint_t[states[t]] += p
        prefix_evidence[t + 1] = joint_t.sum()
        fwd[t] = joint_t / joint_t.sum()
        pred[t] = pred_t / pred_t.sum()
    normalizers = prefix_evidence[1:] / prefix_evidence[:-1]
    return fwd, pred, normalizers


class TestForward:
    def test_m1_single_step(self, m1):
        post = smooth_chain(m1, ObservedSequence([0]))
        np.testing.assert_allclose(post.forward[0], [0.8, 0.2], rtol=1e-12)
        assert np.exp(post.log_normalizers[0]) == pytest.approx(0.5, rel=1e-12)

    def test_m1_two_steps(self, m1):
        post = smooth_chain(m1, ObservedSequence([0, 0]))
        np.testing.assert_allclose(post.predicted[1], [0.74, 0.26], rtol=1e-12)
        assert np.exp(post.log_normalizers[1]) == pytest.approx(0.644, rel=1e-12)
        np.testing.assert_allclose(
            post.forward[1], [0.9192546583850931, 0.08074534161490683], rtol=1e-12)

    def test_state_revealing(self):
        model = state_revealing_model(3)
        seq = ObservedSequence([2, 0, 1, 1])
        post = smooth_chain(model, seq)
        expected = np.eye(3)[seq.values[:, 0]]
        np.testing.assert_allclose(post.forward, expected, atol=1e-12)
        # N_t is the visible-chain transition probability
        assert np.exp(post.log_normalizers[0]) == pytest.approx(1.0 / 3.0, rel=1e-12)
        for t in range(1, 4):
            assert np.exp(post.log_normalizers[t]) == pytest.approx(
                model.transition[seq.values[t - 1, 0], seq.values[t, 0]], rel=1e-12)

    def test_matches_brute_force_filter(self):
        for seed in range(15):
            model, seq = random_chain_instance(seed, max_states=3, max_length=6)
            post = smooth_chain(model, seq)
            fwd, pred, norm = brute_force_filter(model, seq)
            np.testing.assert_allclose(post.forward, fwd, atol=1e-12)
            np.testing.assert_allclose(post.predicted[1:], pred[1:], atol=1e-12)
            np.testing.assert_allclose(np.exp(post.log_normalizers), norm, atol=1e-12)

    def test_matches_enumerated_filter_up_to_four_states(self):
        for seed in range(25):
            model, seq = random_chain_instance(seed + 100, max_states=4,
                                               max_length=10, poisson=True)
            post = smooth_chain(model, seq)
            fwd, pred, norm = enumerated_filter(model, seq)
            np.testing.assert_allclose(post.forward, fwd, atol=1e-10)
            np.testing.assert_allclose(post.predicted[1:], pred[1:], atol=1e-10)
            np.testing.assert_allclose(np.exp(post.log_normalizers), norm,
                                       atol=1e-10)

    def test_impossible_observation_position(self):
        model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                         [[Categorical([1.0, 0.0])], [Categorical([1.0, 0.0])]])
        with pytest.raises(ImpossibleObservationError, match="position 2"):
            smooth_chain(model, ObservedSequence([0, 0, 1, 0]))


class TestBackward:
    def test_m1_two_steps(self, m1):
        post = smooth_chain(m1, ObservedSequence([0, 0]))
        np.testing.assert_allclose(
            post.smoothed[0], [0.9192546583850931, 0.08074534161490683], rtol=1e-12)
        np.testing.assert_allclose(post.smoothed[0], post.smoothed[1], rtol=1e-12)

    def test_length_one(self, m1):
        post = smooth_chain(m1, ObservedSequence([1]))
        np.testing.assert_array_equal(post.smoothed, post.forward)

    def test_last_row_is_forward_exactly(self):
        for seed in range(10):
            model, seq = random_chain_instance(seed)
            post = smooth_chain(model, seq)
            assert np.array_equal(post.smoothed[-1], post.forward[-1])

    def test_uniform_degenerate(self):
        model = uniform_model(3, alphabet=2)
        post = smooth_chain(model, ObservedSequence([0, 1, 0, 1]))
        np.testing.assert_allclose(post.smoothed, np.full((4, 3), 1 / 3), rtol=1e-12)

    def test_smoothed_matches_oracle(self):
        for seed in range(60):
            model, seq = random_chain_instance(seed, max_states=4, max_length=6,
                                               poisson=True)
            post = smooth_chain(model, seq)
            res = enumerate_chain(model, seq)
            for t in range(seq.length):
                np.testing.assert_allclose(post.smoothed[t], res.marginal(t),
                                           atol=1e-10)
            assert math.exp(post.log_likelihood) == pytest.approx(
                res.evidence, rel=1e-9)

    def test_row_sums_and_normalizer_range(self):
        for seed in range(20):
            model, seq = random_chain_instance(seed, poisson=True)
            post = smooth_chain(model, seq)
            for table in (post.forward, post.predicted, post.smoothed):
                np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(np.exp(post.log_normalizers) > 0)
            assert np.all(np.exp(post.log_normalizers) <= 1.0 + 1e-12)


class TestViterbi:
    def test_m1_two_steps(self, m1):
        path, log_joint = viterbi_chain(m1, ObservedSequence([0, 0]))
        np.testing.assert_array_equal(path, [0, 0])
        assert math.exp(log_joint) == pytest.approx(0.288, rel=1e-12)

    def test_state_revealing(self):
        model = state_revealing_model(3)
        seq = ObservedSequence([1, 2, 0, 2])
        path, _ = viterbi_chain(model, seq)
        np.testing.assert_array_equal(path, seq.values[:, 0])

    def test_uniform_tie_breaking(self):
        model = uniform_model(3, alphabet=2)
        path, _ = viterbi_chain(model, ObservedSequence([0, 1, 1, 0]))
        np.testing.assert_array_equal(path, np.zeros(4, dtype=int))

    def test_matches_oracle_argmax(self):
        for seed in range(80):
            model, seq = random_chain_instance(seed, max_states=4, max_length=6)
            if model.num_states ** seq.length > 4096:
                continue
            path, log_joint = viterbi_chain(model, seq)
            best, best_prob = enumerate_chain(model, seq).best_configuration()
            np.testing.assert_array_equal(path, best)
            assert math.exp(log_joint) == pytest.approx(best_prob, rel=1e-9)

    def test_all_paths_impossible(self):
        model = HmmModel([1.0, 0.0], np.eye(2),
                         [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]])
        with pytest.raises(ImpossibleObservationError):
            viterbi_chain(model, ObservedSequence([0, 1]))

