"""The batched chain smoothing kernel against a log-space reference and the
enumeration oracle.

smooth_dataset cuts every sequence into segments of L = ceil(sqrt(T_max))
positions and runs all segments of all sequences as the rows of one batch.
The generated datasets put sequence lengths at the segment boundaries, and
their models have near-deterministic transitions (entries 1e-300 and
1 - 1e-16), initial laws with a 1e-300 entry and Poisson observations far
in the tail, where probabilities leave the double range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hmmentropy import (Categorical, HmmModel, ImpossibleObservationError,
                        ObservedSequence, Poisson, enumerate_chain,
                        simulate_chain, smooth_chain, smooth_dataset)
from hmmentropy.chain import _segment_length
from hmmentropy.model import log_emission_matrix

from conftest import random_model


def log_space_smoothing(model, seq):
    """(forward, predicted, smoothed, log_normalizers, log_likelihood) from
    the forward and backward recursions on log probabilities, combined with
    logsumexp and normalized at every position, so that no probability
    underflows and no logarithm grows with the position."""
    log_b = log_emission_matrix(model, seq.values)
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_pred = np.log(model.initial)
    t_len, j = log_b.shape
    log_f = np.empty((t_len, j))
    predicted = np.empty((t_len, j))
    log_norm = np.empty(t_len)
    for t in range(t_len):
        if t:
            log_pred = logsumexp(log_f[t - 1][:, None] + log_a, axis=0)
        predicted[t] = np.exp(log_pred)
        joint = log_pred + log_b[t]
        log_norm[t] = logsumexp(joint)
        log_f[t] = joint - log_norm[t]
    log_beta = np.zeros((t_len, j))
    for t in range(t_len - 2, -1, -1):
        log_beta[t] = logsumexp(log_a + (log_b[t + 1] + log_beta[t + 1]), axis=1)
        log_beta[t] -= log_beta[t].max()
    log_l = log_f + log_beta
    smoothed = np.exp(log_l - logsumexp(log_l, axis=1)[:, None])
    return (np.exp(log_f), predicted, smoothed, log_norm,
            math.fsum(log_norm))


def assert_matches_log_space(model, seq, post):
    forward, predicted, smoothed, log_norm, log_likelihood = \
        log_space_smoothing(model, seq)
    np.testing.assert_allclose(post.forward, forward, rtol=0, atol=1e-10)
    np.testing.assert_allclose(post.predicted, predicted, rtol=0, atol=1e-10)
    np.testing.assert_allclose(post.smoothed, smoothed, rtol=0, atol=1e-10)
    np.testing.assert_allclose(post.log_normalizers, log_norm, rtol=1e-12,
                               atol=1e-9)
    assert post.log_likelihood == pytest.approx(log_likelihood, rel=1e-12,
                                                abs=1e-9)


def segment_boundaries(size):
    return (1, 2, size - 1, size, size + 1, 2 * size, 3 * size + 1)


def near_deterministic_row(rng, j):
    """Entries 1e-300 around one of 1 - 1e-16 (next to a 1e-16) or 1."""
    row = np.full(j, 1e-300)
    d = int(rng.integers(j))
    if j > 1 and rng.random() < 0.5:
        row[(d + 1 + int(rng.integers(j - 1))) % j] = 1e-16
        row[d] = 1.0 - 1e-16
    else:
        row[d] = 1.0
    return row


@st.composite
def extreme_datasets(draw):
    """(model, sequences, L): 1-6 sequences whose lengths sit at the
    boundaries of segments of L positions, one of them L * L long so that L
    is the kernel's segment length."""
    size = draw(st.integers(4, 8))
    lengths = draw(st.lists(st.sampled_from(segment_boundaries(size)),
                            max_size=5))
    lengths.insert(draw(st.integers(0, len(lengths))), size * size)
    j = draw(st.integers(1, 8))
    near_deterministic = draw(st.booleans())
    tiny_initial = draw(st.booleans())
    tail_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    initial = rng.dirichlet(np.ones(j))
    if tiny_initial and j > 1:
        initial[int(rng.integers(j))] = 1e-300
        initial /= initial.sum()
    transition = np.stack([near_deterministic_row(rng, j) if near_deterministic
                           else rng.dirichlet(np.ones(j)) for _ in range(j)])
    kinds = ["poisson" if rng.random() < 0.7 else "categorical"
             for _ in range(int(rng.integers(1, 3)))]
    sizes = [int(rng.integers(2, 5)) for _ in kinds]
    emissions = [[Poisson(rng.uniform(0.5, 20.0)) if kind == "poisson"
                  else Categorical(rng.dirichlet(np.ones(n)))
                  for kind, n in zip(kinds, sizes)] for _ in range(j)]
    model = HmmModel(initial, transition, emissions)
    seqs = []
    for t_len in lengths:
        _, seq = simulate_chain(model, t_len, int(rng.integers(0, 2 ** 31)))
        values = seq.values.copy()
        for k, kind in enumerate(kinds):
            if kind == "poisson":
                tail = rng.random(t_len) < tail_share
                values[tail, k] = rng.integers(200, 3000, size=int(tail.sum()))
        seqs.append(ObservedSequence(values))
    return model, seqs, size


@given(extreme_datasets())
@settings(deadline=None)
def test_kernel_matches_log_space_reference(instance):
    model, seqs, size = instance
    assert _segment_length(max(seq.length for seq in seqs)) == size
    post = smooth_dataset(model, seqs)
    for seq, chain in zip(seqs, post.chains):
        assert_matches_log_space(model, seq, chain)
    assert post.log_likelihood == pytest.approx(
        math.fsum(chain.log_likelihood for chain in post.chains),
        rel=1e-12, abs=1e-9)


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 6))
@settings(deadline=None)
def test_kernel_matches_oracle(seed, count):
    """Small datasets with structural zeros and segments of 1-3 positions."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, int(rng.integers(1, 4)),
                         zeros=bool(rng.random() < 0.5), poisson=True)
    seqs = [simulate_chain(model, int(rng.integers(1, 7)),
                           int(rng.integers(0, 2 ** 31)))[1]
            for _ in range(count)]
    post = smooth_dataset(model, seqs)
    for seq, chain in zip(seqs, post.chains):
        res = enumerate_chain(model, seq)
        for t in range(seq.length):
            np.testing.assert_allclose(chain.smoothed[t], res.marginal(t),
                                       atol=1e-10)
        assert math.exp(chain.log_likelihood) == pytest.approx(res.evidence,
                                                               rel=1e-9)


def test_segment_length_rule():
    for t_max in range(1, 3000):
        size = _segment_length(t_max)
        assert (size - 1) ** 2 < t_max <= size ** 2
    assert _segment_length(10 ** 4) == 100
    assert _segment_length(10 ** 5) == 317


def test_rare_observation_is_not_impossible():
    """log b(3000) is about -21025 and -18947: both emission probabilities
    are 0 in double precision, the observation's probability is not."""
    model = HmmModel([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                     [[Poisson(1.0)], [Poisson(2.0)]])
    seq = ObservedSequence([0, 3000, 1])
    assert_matches_log_space(model, seq, smooth_chain(model, seq))


def test_predicted_law_favouring_an_underflowing_state():
    """At position 0 the initial law puts 1 - 1e-300 on state 0, whose
    emission is exp(-880) times state 1's; the 63 zeros that follow make
    state 0 the likely one after all.  Shifting the emissions alone by
    their maximum would round state 0's to 0 there."""
    model = HmmModel([1.0 - 1e-300, 1e-300], [[1.0 - 1e-16, 1e-16], [1e-300, 1.0]],
                     [[Poisson(1.0)], [Poisson(20.0)]])
    seq = ObservedSequence([300] + [0] * 63)
    post = smooth_chain(model, seq)
    assert post.smoothed[0, 0] == pytest.approx(1.0)
    assert_matches_log_space(model, seq, post)


def test_start_state_far_below_the_others_survives_stitching():
    """State 0 is absorbing.  The zeros pin it down, and from position 100
    on each observation makes a start in state 0 about exp(-147) times less
    likely than a start in state 1, so that over a segment of 11 positions
    state 0's row of the transfer matrix is below 1e-308 of state 1's.  It
    is the only row the stitched law weighs, so it must keep its own
    scale."""
    model = HmmModel([0.5, 0.5], [[1.0, 0.0], [1e-300, 1.0]],
                     [[Poisson(1.0)], [Poisson(50.0)]])
    seq = ObservedSequence([0] * 100 + [50] * 11)
    assert _segment_length(seq.length) == 11
    post = smooth_chain(model, seq)
    np.testing.assert_allclose(post.smoothed[:, 0], 1.0, atol=1e-12)
    assert_matches_log_space(model, seq, post)


def test_dataset_chains_are_views_of_the_dataset_tables():
    rng = np.random.default_rng(5)
    model = random_model(rng, 3, poisson=True)
    seqs = [simulate_chain(model, t_len, seed)[1]
            for seed, t_len in enumerate((40, 7, 1, 90, 12))]
    post = smooth_dataset(model, seqs)
    np.testing.assert_array_equal(post.offsets, [0, 40, 47, 48, 138, 150])
    for seq, chain, lo in zip(seqs, post.chains, post.offsets):
        alone = smooth_chain(model, seq)
        np.testing.assert_allclose(chain.smoothed, alone.smoothed, atol=1e-13)
        assert chain.log_likelihood == pytest.approx(alone.log_likelihood,
                                                     rel=1e-13)
        assert np.shares_memory(chain.smoothed, post.smoothed)
        np.testing.assert_array_equal(chain.forward,
                                      post.forward[lo:lo + seq.length])


def test_impossible_observation_names_lowest_sequence_first():
    """Sequence 2 fails at position 0, sequence 1 at position 2: a
    sequence-by-sequence run reaches sequence 1's failure first."""
    model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                     [[Categorical([1.0, 0.0])], [Categorical([1.0, 0.0])]])
    seqs = [ObservedSequence(v) for v in ([0, 0, 0], [0, 0, 1, 0], [1, 0])]
    with pytest.raises(ImpossibleObservationError,
                       match="sequence 1, position 2$"):
        smooth_dataset(model, seqs)


@pytest.mark.parametrize("initial, transition, emissions, values", [
    # G_1 = (1, 1e-310) is subnormal in state 1, which alone explains the
    # observation 1: the ratio L_1 / G_1 overflows
    ([1.0, 0.0], [[1.0 - 1e-310, 1e-310], [0.0, 1.0]],
     [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]], [0, 1]),
    # the states never switch; 400 makes state 0 exp(-1516) times less
    # likely than state 1 at position 0, so the filter loses it there, and
    # the 600 zeros that follow make it the likely one
    ([0.5, 0.5], np.eye(2), [[Poisson(1.0)], [Poisson(50.0)]],
     [400] + [0] * 600),
])
def test_smoothing_out_of_double_range_is_an_error(initial, transition,
                                                    emissions, values):
    model = HmmModel(initial, transition, emissions)
    with pytest.raises(FloatingPointError, match="sequence 0, position 0"):
        smooth_chain(model, ObservedSequence(values))
