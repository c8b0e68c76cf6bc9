"""The batched chain smoothing kernel against a log-space reference and the
enumeration oracle; entropy profiles and Viterbi restorations of datasets
against those of their sequences; the segmented Viterbi kernel against the
sequential recursion and the oracle, on instances whose optima tie.

smooth_dataset cuts every sequence into segments and runs all segments of
all sequences as the rows of one batch; its segment boundaries are stitched
one block of segments at a time, with L = ceil(sqrt(T_max)), or by pointer
jumping with the shorter segments of chain._smoothing_segments.  The
generated datasets put sequence lengths at the segment boundaries, and
their models have near-deterministic transitions (entries 1e-300 and
1 - 1e-16), initial laws with a 1e-300 entry and Poisson observations far
in the tail, where probabilities leave the double range.
"""

import math
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import hmmentropy.chain as chain_module
from hmmentropy import (Categorical, ChainPosterior, HmmModel,
                        ImpossibleObservationError, ObservedSequence,
                        ObservedTree, Poisson, TreeTopology, ValidationError,
                        entropy_future, entropy_future_direct,
                        entropy_past_direct, entropy_past_hernando,
                        enumerate_chain, hernando_table, simulate_chain,
                        simulate_tree, smooth_chain, smooth_dataset,
                        smooth_tree, viterbi_chain, viterbi_dataset,
                        viterbi_tree)
from hmmentropy.chain import (_segment_length, _smoothing_segments,
                              _viterbi_segment_length)
from hmmentropy.fileio import parse_model, parse_sequence
from hmmentropy.model import log_emission_matrix
from hmmentropy.numutil import tie_argmax

from conftest import (extreme_model, log_space_tree, random_model,
                      random_topology, stack, with_tails)

GOLDEN = Path(__file__).parent / "golden"


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


@st.composite
def extreme_datasets(draw):
    """(model, dataset, L): 1-6 sequences whose lengths sit at the
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
    model, kinds = extreme_model(rng, j, near_deterministic, tiny_initial)
    seqs = []
    for t_len in lengths:
        _, seq = simulate_chain(model, t_len, int(rng.integers(0, 2 ** 31)))
        seqs.append(ObservedSequence(with_tails(rng, seq.values, kinds,
                                                tail_share)))
    return model, stack(seqs), size


def sequence_posteriors(post):
    """The posterior of each sequence of a dataset posterior: its rows, as
    a dataset of one."""
    bounds = post.offsets.tolist()
    return [ChainPosterior(post.forward[lo:hi], post.log_normalizers[lo:hi],
                           post.predicted[lo:hi],
                           math.fsum(post.log_normalizers[lo:hi]),
                           np.array([0, hi - lo]), post.smoothed[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])]


@given(extreme_datasets())
@settings(deadline=None)
def test_kernel_matches_log_space_reference(instance):
    model, data, size = instance
    assert _segment_length(int(np.diff(data.offsets).max())) == size
    post = smooth_dataset(model, data)
    chains = sequence_posteriors(post)
    for seq, chain in zip(data.sequences(), chains):
        assert_matches_log_space(model, seq, chain)
    assert post.log_likelihood == pytest.approx(
        math.fsum(chain.log_likelihood for chain in chains),
        rel=1e-12, abs=1e-9)


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 6))
@settings(deadline=None)
def test_kernel_matches_oracle(seed, count):
    """Small datasets with structural zeros, in the rule's own segments and
    in segments of 1, 2 and 3 positions stitched both ways, block by block
    and by pointer jumping.  Besides the smoothed laws and the evidence,
    the pairwise posteriors P(S_{t-1} = i, S_t = k | X = x)
    = F_{t-1}(i) a_ik L_t(k) / G_t(k) (0 / 0 = 0) check the predicted law
    at every position, those the stitches hand to each row's start too."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, int(rng.integers(1, 4)),
                         zeros=bool(rng.random() < 0.5), poisson=True)
    seqs = [simulate_chain(model, int(rng.integers(1, 7)),
                           int(rng.integers(0, 2 ** 31)))[1]
            for _ in range(count)]
    oracles = [enumerate_chain(model, seq) for seq in seqs]
    posts = [smooth_dataset(model, stack(seqs))]
    for size in (1, 2, 3):
        for jump in (False, True):
            with patch.object(chain_module, "_smoothing_segments",
                              lambda offsets, j: (size, jump)):
                posts.append(smooth_dataset(model, stack(seqs)))
    for post in posts:
        for seq, res, chain in zip(seqs, oracles, sequence_posteriors(post)):
            for t in range(seq.length):
                np.testing.assert_allclose(chain.smoothed[t], res.marginal(t),
                                           atol=1e-10)
            for t in range(1, seq.length):
                ratio = np.divide(chain.smoothed[t], chain.predicted[t],
                                  out=np.zeros(model.num_states),
                                  where=chain.predicted[t] > 0.0)
                pairwise = (chain.forward[t - 1][:, None] * model.transition
                            * ratio)
                np.testing.assert_allclose(pairwise, res.pairwise(t - 1, t),
                                           atol=1e-10)
            assert math.exp(chain.log_likelihood) == pytest.approx(
                res.evidence, rel=1e-9)


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
    likely than a start in state 1, so that over a segment of 11 positions,
    ceil(sqrt(T)), state 0's row of the transfer matrix is below 1e-308 of
    state 1's (the rule stitches these 111 positions by pointer jumping, in
    segments of 2, whose products over 5 or more fall as far).  It is the
    only row the stitched law weighs, so it must keep its own scale."""
    model = HmmModel([0.5, 0.5], [[1.0, 0.0], [1e-300, 1.0]],
                     [[Poisson(1.0)], [Poisson(50.0)]])
    seq = ObservedSequence([0] * 100 + [50] * 11)
    assert _segment_length(seq.length) == 11
    post = smooth_chain(model, seq)
    np.testing.assert_allclose(post.smoothed[:, 0], 1.0, atol=1e-12)
    assert_matches_log_space(model, seq, post)


def takes_jumps(model, data):
    """Whether smooth_dataset stitches the dataset by pointer jumping."""
    return _smoothing_segments(data.offsets, model.num_states)[1]


def test_start_state_far_below_the_others_survives_jumping():
    """The case above with 2,000 zeros and 200 fifties, stitched by pointer
    jumping: every product of transfers that spans a segment of fifties has
    state 0's row below 1e-308 of state 1's, so each composition must shift
    each row by its own largest term."""
    model = HmmModel([0.5, 0.5], [[1.0, 0.0], [1e-300, 1.0]],
                     [[Poisson(1.0)], [Poisson(50.0)]])
    seq = ObservedSequence([0] * 2000 + [50] * 200)
    assert takes_jumps(model, seq)
    post = smooth_chain(model, seq)
    np.testing.assert_allclose(post.smoothed[:, 0], 1.0, atol=1e-12)
    assert_matches_log_space(model, seq, post)


def test_predicted_law_favouring_an_underflowing_state_when_jumped():
    """The case above with 1,000 zeros after the 300, stitched by pointer
    jumping."""
    model = HmmModel([1.0 - 1e-300, 1e-300], [[1.0 - 1e-16, 1e-16], [1e-300, 1.0]],
                     [[Poisson(1.0)], [Poisson(20.0)]])
    seq = ObservedSequence([300] + [0] * 1000)
    assert takes_jumps(model, seq)
    post = smooth_chain(model, seq)
    assert post.smoothed[0, 0] == pytest.approx(1.0)
    assert_matches_log_space(model, seq, post)


@st.composite
def jumped_datasets(draw):
    """(model, dataset, L): one sequence of 400-600 positions and 0-5 whose
    lengths sit at the boundaries of segments of L positions, the length
    that smooth_dataset's rule gives the dataset where it stitches it by
    pointer jumping (at J = 8 it keeps the block stitch on some); the long
    sequence has 16 segments or more."""
    j = draw(st.integers(1, 8))
    t_long = draw(st.integers(400, 600))
    picks = draw(st.lists(st.integers(0, 6), max_size=5))
    size, before = _smoothing_segments(np.array([0, t_long]), j)[0], None
    for _ in range(5):  # L depends on the dataset's length
        lengths = [segment_boundaries(size)[p] for p in picks]
        lengths.insert(draw(st.integers(0, len(lengths))), t_long)
        before, (size, jump) = size, _smoothing_segments(
            np.concatenate(([0], np.cumsum(lengths))), j)
        if size == before:
            break
    assume(size == before and jump)
    assert -(-t_long // size) >= 16
    near_deterministic = draw(st.booleans())
    tiny_initial = draw(st.booleans())
    tail_share = draw(st.sampled_from([0.0, 0.2, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model, kinds = extreme_model(rng, j, near_deterministic, tiny_initial)
    seqs = []
    for t_len in lengths:
        _, seq = simulate_chain(model, t_len, int(rng.integers(0, 2 ** 31)))
        seqs.append(ObservedSequence(with_tails(rng, seq.values, kinds,
                                                tail_share)))
    return model, stack(seqs), size


@given(jumped_datasets())
@settings(deadline=None, max_examples=30)
def test_jumped_kernel_matches_log_space_reference(instance):
    """The extreme datasets above, stitched by pointer jumping; the
    reference's per-position loop is what limits the examples."""
    model, data, size = instance
    assert _smoothing_segments(data.offsets, model.num_states) == (size, True)
    post = smooth_dataset(model, data)
    chains = sequence_posteriors(post)
    for seq, chain in zip(data.sequences(), chains):
        assert_matches_log_space(model, seq, chain)
    assert post.log_likelihood == pytest.approx(
        math.fsum(chain.log_likelihood for chain in chains),
        rel=1e-12, abs=1e-9)


def test_jumped_smoothing_is_as_accurate_as_the_block_stitch():
    """One chain of 10^4 positions at J = 4 with sticky transitions, drawn
    as the chain-long benchmark draws its model: against the log-space
    reference, the largest error of the jumped path's smoothed laws is no
    larger than the block stitch's (5.7e-15 against 2.0e-14 here)."""
    rng = np.random.default_rng(1)
    transition = (0.3 * rng.dirichlet(np.full(4, 2.0), size=4)
                  + 0.7 * np.eye(4))
    model = HmmModel(rng.dirichlet(np.full(4, 2.0)),
                     transition / transition.sum(axis=1, keepdims=True),
                     [[Categorical(p)]
                      for p in rng.dirichlet(np.full(4, 2.0), size=4)])
    seq = simulate_chain(model, 10 ** 4, 1)[1]
    assert takes_jumps(model, seq)
    reference = log_space_smoothing(model, seq)[2]
    jumped = smooth_chain(model, seq).smoothed
    with patch.object(chain_module, "_smoothing_segments",
                      lambda offsets, j: (_segment_length(10 ** 4), False)):
        blocked = smooth_chain(model, seq).smoothed
    assert np.abs(jumped - reference).max() <= np.abs(blocked - reference).max()


def test_smoothing_segments_rule():
    """Pointer jumping stitches one chain of 10^4 positions at J = 4, in
    segments of 27 where the block stitch's are 100, and one of 10^5 in
    segments of 94.  The block stitch, with its segments of
    ceil(sqrt(T_max)), stays on 100 sequences of 20-180 positions at J = 8
    and on the many-chains (J = 3, at most 4 segments) and short-chains
    goldens."""
    assert _smoothing_segments(np.array([0, 10 ** 4]), 4) == (27, True)
    assert _smoothing_segments(np.array([0, 10 ** 5]), 4) == (94, True)
    lengths = np.linspace(20, 180, 100).round().astype(int)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    assert _smoothing_segments(offsets, 8) == (14, False)
    j = parse_model((GOLDEN / "zeros_model.json").read_text()).num_states
    for name in ("many_chains.txt", "short_chains.txt"):
        data = parse_sequence((GOLDEN / name).read_text())
        t_max = int(np.diff(data.offsets).max())
        assert _smoothing_segments(data.offsets, j) == (_segment_length(t_max),
                                                       False)


def test_dataset_rows_are_the_sequences_in_order():
    rng = np.random.default_rng(5)
    model = random_model(rng, 3, poisson=True)
    seqs = [simulate_chain(model, t_len, seed)[1]
            for seed, t_len in enumerate((40, 7, 1, 90, 12))]
    data = stack(seqs)
    post = smooth_dataset(model, data)
    np.testing.assert_array_equal(post.offsets, [0, 40, 47, 48, 138, 150])
    assert post.offsets is data.offsets
    np.testing.assert_array_equal(smooth_chain(model, seqs[0]).offsets, [0, 40])
    for seq, chain in zip(seqs, sequence_posteriors(post)):
        alone = smooth_chain(model, seq)
        np.testing.assert_allclose(chain.smoothed, alone.smoothed, atol=1e-13)
        np.testing.assert_allclose(chain.forward, alone.forward, atol=1e-13)
        assert chain.log_likelihood == pytest.approx(alone.log_likelihood,
                                                     rel=1e-13)


def test_impossible_observation_names_lowest_sequence_first():
    """Sequence 2 fails at position 0, sequence 1 at position 2: a
    sequence-by-sequence run reaches sequence 1's failure first."""
    model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                     [[Categorical([1.0, 0.0])], [Categorical([1.0, 0.0])]])
    data = ObservedSequence([0, 0, 0, 0, 0, 1, 0, 1, 0], [0, 3, 7, 9])
    with pytest.raises(ImpossibleObservationError,
                       match="sequence 1, position 2$"):
        smooth_dataset(model, data)


def test_jumped_impossible_observation_names_lowest_sequence_first():
    """State 0 emits 0 and state 1 emits 1, and state 1 is absorbing: a 0
    after a 1 is impossible, which only the law stitched in at its
    segment's start shows.  Sequence 1 fails at position 2,500, sequence 2
    at position 1,200; the block stitch names the same position."""
    model = HmmModel([0.5, 0.5], [[0.5, 0.5], [0.0, 1.0]],
                     [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]])
    values = [[0] * 3000,
              [0] * 1000 + [1] * 1500 + [0] + [1] * 499,
              [1] * 1200 + [0] * 1800]
    data = ObservedSequence(sum(values, []), np.cumsum([0, 3000, 3000, 3000]))
    assert takes_jumps(model, data)
    message = "sequence 1, position 2500$"
    with pytest.raises(ImpossibleObservationError, match=message):
        smooth_dataset(model, data)
    with patch.object(chain_module, "_smoothing_segments",
                      lambda offsets, j: (_segment_length(3000), False)):
        with pytest.raises(ImpossibleObservationError, match=message):
            smooth_dataset(model, data)


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


@pytest.mark.parametrize("initial, transition, emissions, values", [
    # the cases above, with 3,000 more positions of the same kind
    ([1.0, 0.0], [[1.0 - 1e-310, 1e-310], [0.0, 1.0]],
     [[Categorical([1.0, 0.0])], [Categorical([0.0, 1.0])]], [0] + [1] * 3001),
    ([0.5, 0.5], np.eye(2), [[Poisson(1.0)], [Poisson(50.0)]],
     [400] + [0] * 3600),
])
def test_jumped_smoothing_out_of_double_range_is_an_error(
        initial, transition, emissions, values):
    model = HmmModel(initial, transition, emissions)
    seq = ObservedSequence(values)
    assert takes_jumps(model, seq)
    with pytest.raises(FloatingPointError, match="sequence 0, position 0$"):
        smooth_chain(model, seq)


@pytest.mark.parametrize("run", [smooth_dataset, viterbi_dataset])
def test_empty_dataset_is_a_validation_error(run):
    """A dataset with no rows, or with an empty sequence among its
    offsets, never reaches the batch: building it is a ValidationError."""
    model = HmmModel([1.0], [[1.0]], [[Poisson(2.0)]])
    with pytest.raises(ValidationError, match="non-empty matrix"):
        run(model, ObservedSequence(np.empty((0, 1), dtype=np.int64), [0]))
    with pytest.raises(ValidationError, match="offsets must rise strictly"):
        run(model, ObservedSequence([1, 2], [0, 0, 2]))


def test_viterbi_chain_takes_one_sequence():
    """viterbi_chain returns one log joint, so a dataset of more is refused
    rather than cut short; viterbi_dataset restores it."""
    model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                     [[Poisson(1.0)], [Poisson(3.0)]])
    data = ObservedSequence([0, 4, 1], [0, 2, 3])
    with pytest.raises(ValidationError, match="takes one sequence, not 2$"):
        viterbi_chain(model, data)
    assert viterbi_dataset(model, data)[1].size == 2


# With an exact zero in the transition matrix nothing feeds a state back in
# once a scaled step has rounded it to 0, and later evidence can make it the
# only explanation.  Identity transitions, initial law (0.5, 0.5): state 0
# explains every case, and each engine meets the outlier first.
EXACT_ZERO_CASES = {
    "chain-3000-0-0": ((1.0, 1e4), "chain", [3000, 0, 0]),
    "path-0-0-3000": ((1.0, 1e4), "tree", [0, 0, 3000]),
    "chain-3000-then-2500-zeros": ((1.0, 2.0), "chain", [3000] + [0] * 2500),
    "path-2500-zeros-then-3000": ((1.0, 2.0), "tree", [0] * 2500 + [3000]),
}


@pytest.mark.xfail(strict=True, reason="a state the scaled recursion rounds "
                   "to 0 is never fed back through an exact-zero transition")
@pytest.mark.parametrize("name", list(EXACT_ZERO_CASES))
def test_exact_zero_transitions_keep_the_only_explanation(name):
    rates, kind, values = EXACT_ZERO_CASES[name]
    model = HmmModel([0.5, 0.5], np.eye(2), [[Poisson(rate)] for rate in rates])
    if kind == "chain":
        seq = ObservedSequence(values)
        post = smooth_chain(model, seq)
        log_likelihood = log_space_smoothing(model, seq)[4]
    else:
        tree = ObservedTree(TreeTopology(np.arange(-1, len(values) - 1)), values)
        post = smooth_tree(model, tree)
        log_likelihood = log_space_tree(model, tree)[2]
    assert post.log_likelihood == pytest.approx(log_likelihood, rel=1e-12)
    np.testing.assert_allclose(post.smoothed[:, 0], 1.0, rtol=0, atol=1e-12)


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 5))
@settings(deadline=None)
def test_viterbi_log_joint_is_at_most_the_log_likelihood(seed, count):
    """One path's probability is at most the evidence, so each sequence's
    Viterbi log joint is at most its log-likelihood, the fsum of its log
    normalizers, up to 1e-12 of the larger of 1 and that.  Models of 1-5
    states with structural zeros and no tails (with tails, as in the cases
    above, the printed log-likelihood can fall below the best path's), and
    1-5 chains of 1-3,000 positions, so that many datasets are stitched by
    pointer jumping."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, int(rng.integers(1, 6)), zeros=True,
                         poisson=True)
    seqs = [simulate_chain(model, int(rng.integers(1, 3001)),
                           int(rng.integers(0, 2 ** 31)))[1]
            for _ in range(count)]
    data = stack(seqs)
    _, log_joint = viterbi_dataset(model, data)
    for lj, chain in zip(log_joint, sequence_posteriors(
            smooth_dataset(model, data))):
        ll = chain.log_likelihood
        assert lj <= ll + 1e-12 * max(1.0, abs(ll))


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(deadline=None)
def test_tree_viterbi_log_joint_is_at_most_the_log_likelihood(seed):
    """The invariant above on trees of up to 300 vertices of every
    topology kind."""
    rng = np.random.default_rng(seed)
    model = random_model(rng, int(rng.integers(1, 6)), zeros=True,
                         poisson=True)
    topo = random_topology(rng, int(rng.integers(1, 301)))
    _, tree = simulate_tree(model, topo, int(rng.integers(0, 2 ** 31)))
    ll = smooth_tree(model, tree).log_likelihood
    assert viterbi_tree(model, tree)[1] <= ll + 1e-12 * max(1.0, abs(ll))


@st.composite
def datasets(draw):
    """(model, dataset): 1-6 sequences of lengths 1, 2, 3, 7 or 40 from a
    model of up to 8 states, with structural zeros or without."""
    lengths = draw(st.lists(st.sampled_from((1, 2, 3, 7, 40)), min_size=1,
                            max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = random_model(rng, draw(st.integers(1, 8)), zeros=draw(st.booleans()),
                         poisson=True)
    return model, stack([simulate_chain(model, t_len,
                                        int(rng.integers(0, 2 ** 31)))[1]
                         for t_len in lengths])


def log_tables(model, seq):
    """(log pi, log A, log b) of a sequence."""
    with np.errstate(divide="ignore"):
        return (np.log(model.initial), np.log(model.transition),
                log_emission_matrix(model, seq.values))


def path_log_terms(model, seq, path):
    """log pi, the log transitions and the log emissions of a path."""
    log_pi, log_a, log_b = log_tables(model, seq)
    path = np.asarray(path)
    return ([float(log_pi[path[0]])] + log_a[path[:-1], path[1:]].tolist()
            + log_b[np.arange(path.size), path].tolist())


def sequential_recursion(model, seq):
    """(score, nxt) of the max-product recursion over one sequence, one
    position at a time: score[t, i] is the best log probability of x_t,
    x_{t+1}, ... given S_t = i, and nxt[t, i] the state at t + 1 that the
    kernel's tie rule (tie_argmax) continues with."""
    _, log_a, log_b = log_tables(model, seq)
    score = log_b.copy()
    nxt = np.empty(log_b.shape, dtype=np.int64)
    for t in range(seq.length - 2, -1, -1):
        nxt[t], best = tie_argmax((log_a + score[t + 1]).T)
        score[t] += best
    return score, nxt


def sequential_viterbi(model, seq):
    """Path and log joint from sequential_recursion, with the kernel's tie
    rule for the first state; the log joint is the fsum of the restored
    path's terms."""
    score, nxt = sequential_recursion(model, seq)
    path = [int(tie_argmax(log_tables(model, seq)[0] + score[0])[0])]
    for t in range(seq.length - 1):
        path.append(int(nxt[t, path[-1]]))
    return path, math.fsum(path_log_terms(model, seq, path))


def equal_optima(model, seq, path):
    """Checks that no path that follows `path` up to some position, takes a
    smaller state there and continues as the recursion does is as likely,
    and returns how many that take a larger state are exactly as likely.

    Only states whose recursion score is within 1e-6 of the path's are
    tried.  Each is compared on the stretch until it rejoins the path, with
    one fsum of both stretches' terms: an exact comparison of log joints.
    """
    log_pi, log_a, log_b = log_tables(model, seq)
    score, nxt = sequential_recursion(model, seq)
    path = np.asarray(path)
    t_len = path.size
    enter = np.vstack((log_pi, log_a[path[:-1]]))  # log prob of entering k at t
    cand = enter + score
    mine = cand[np.arange(t_len), path]
    ties = 0
    for t, k in zip(*np.nonzero(cand >= mine[:, None] - 1e-6)):
        if k == path[t]:
            continue
        alt = [int(k)]
        while (t + len(alt) < t_len
               and nxt[t + len(alt) - 1, alt[-1]] != path[t + len(alt)]):
            alt.append(int(nxt[t + len(alt) - 1, alt[-1]]))
        end = t + len(alt)
        gain = [enter[t, path[t]], -enter[t, k]]
        for states, sign in ((path[t:end], 1.0), (np.array(alt), -1.0)):
            stretch = (log_b[np.arange(t, end), states].tolist()
                       + log_a[states[:-1], states[1:]].tolist())
            if end < t_len:
                stretch.append(log_a[states[-1], path[end]])
            gain += [sign * x for x in stretch]
        gain = math.fsum(gain)
        assert gain > 0 if k < path[t] else gain >= 0, (
            f"state {k} at position {t}: log joint higher by {-gain}")
        ties += gain == 0
    return ties


def segmented_tie_instance(name):
    """The instances where segmenting with plain argmax restores another
    path than the sequential recursion: random models J = 2, T = 10^4 and
    J = 8, T = 10^5 (seed J, path seed 5), and criterion 6's instance 96
    (T = 1000)."""
    if name == "criterion6-instance96":
        rng = np.random.default_rng(40_000 + 96)
        model = random_model(rng, int(rng.integers(2, 4)),
                             zeros=bool(rng.random() < 0.3))
        return model, simulate_chain(model, 1000, int(rng.integers(0, 2 ** 31)))[1]
    j, t_len = {"J2-T1e4": (2, 10 ** 4), "J8-T1e5": (8, 10 ** 5)}[name]
    model = random_model(np.random.default_rng(j), j)
    return model, simulate_chain(model, t_len, 5)[1]


@pytest.mark.parametrize("name", ["J2-T1e4", "J8-T1e5", "criterion6-instance96"])
def test_segment_boundaries_break_no_tie(name):
    """The segmented kernel restores the sequential recursion's path, the
    lexicographically smallest of the optima with equal fsum log joints."""
    model, seq = segmented_tie_instance(name)
    assert _viterbi_segment_length(seq.offsets, model.num_states) < seq.length
    path, log_joint = viterbi_chain(model, seq)
    expected, expected_log_joint = sequential_viterbi(model, seq)
    assert path.tolist() == expected
    assert log_joint == expected_log_joint
    assert equal_optima(model, seq, path) > 0
    if seq.length <= 1000:
        tree = ObservedTree(TreeTopology(np.arange(-1, seq.length - 1)),
                            seq.values)
        np.testing.assert_array_equal(viterbi_tree(model, tree)[0], path)


@given(datasets())
@settings(deadline=None)
def test_dataset_profiles_are_the_sequence_profiles(instance):
    """Every route restarts at each sequence: a dataset's profile is its
    sequences' profiles, computed from the same posterior's rows, end to
    end, bit for bit."""
    model, data = instance
    post = smooth_dataset(model, data)
    chains = sequence_posteriors(post)
    for route in (entropy_past_hernando, entropy_future, entropy_past_direct,
                  entropy_future_direct):
        whole = route(model, data, post)
        parts = [route(model, seq, chain)
                 for seq, chain in zip(data.sequences(), chains)]
        for name in ("marginal", "conditional", "partial"):
            np.testing.assert_array_equal(
                getattr(whole, name),
                np.concatenate([getattr(part, name) for part in parts]))
        assert whole.global_entropy == math.fsum(part.global_entropy
                                                 for part in parts)
    for direction in ("past", "future"):
        np.testing.assert_array_equal(
            hernando_table(model, post, direction),
            np.concatenate([hernando_table(model, chain, direction)
                            for chain in chains]))


@given(datasets())
@settings(deadline=None)
def test_dataset_viterbi_is_the_sequence_viterbi(instance):
    model, data = instance
    seqs = data.sequences()
    path, log_joint = viterbi_dataset(model, data)
    expected = [sequential_viterbi(model, seq) for seq in seqs]
    np.testing.assert_array_equal(path, np.concatenate([p for p, _ in expected]))
    assert log_joint.tolist() == [lj for _, lj in expected]
    for seq, (p, lj) in zip(seqs, expected):
        alone, alone_lj = viterbi_chain(model, seq)
        assert alone.tolist() == p and alone_lj == lj


@st.composite
def segmented_datasets(draw):
    """(model, dataset): one sequence of 200-600 positions, which
    viterbi_dataset cuts into segments, among 0-5 of 1-40 positions, from a
    model of up to 8 states with structural zeros or without."""
    lengths = draw(st.lists(st.integers(1, 40), max_size=5))
    lengths.insert(draw(st.integers(0, len(lengths))), draw(st.integers(200, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    model = random_model(rng, draw(st.integers(1, 8)), zeros=draw(st.booleans()),
                         poisson=True)
    return model, stack([simulate_chain(model, t_len,
                                        int(rng.integers(0, 2 ** 31)))[1]
                         for t_len in lengths])


@given(segmented_datasets())
@settings(deadline=None)
def test_segmented_viterbi_is_the_sequential_viterbi(instance):
    model, data = instance
    t_max = int(np.diff(data.offsets).max())
    assert _viterbi_segment_length(data.offsets, model.num_states) < t_max
    path, log_joint = viterbi_dataset(model, data)
    expected = [sequential_viterbi(model, seq) for seq in data.sequences()]
    np.testing.assert_array_equal(path, np.concatenate([p for p, _ in expected]))
    assert log_joint.tolist() == [lj for _, lj in expected]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_pointer_jumping_stitches_any_number_of_segments(size):
    """Sequences of 1, 2, 3, 5, 9 and 17 segments of `size` positions, in
    random order, the last segment shorter where it can be: pass 2 and the
    read-out take 0-5 pointer-jumping rounds, and rows leave them after
    different rounds."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        model = random_model(rng, int(rng.integers(1, 6)), zeros=seed % 2 == 1,
                             poisson=True)
        counts = rng.permutation([1, 2, 3, 5, 9, 17])
        lengths = [c * size - int(rng.integers(0, size)) for c in counts]
        assert [-(-t // size) for t in lengths] == counts.tolist()
        seqs = [simulate_chain(model, t, int(rng.integers(0, 2 ** 31)))[1]
                for t in lengths]
        with patch.object(chain_module, "_viterbi_segment_length",
                          lambda offsets, j: size):
            path, log_joint = viterbi_dataset(model, stack(seqs))
        expected = [sequential_viterbi(model, seq) for seq in seqs]
        np.testing.assert_array_equal(path,
                                      np.concatenate([p for p, _ in expected]))
        assert log_joint.tolist() == [lj for _, lj in expected]


def test_viterbi_segment_length_rule():
    """A single sequence is segmented from 13 positions on at J <= 8, a
    chain of 10^4 positions at J = 4 into segments of 24, and 100
    sequences of 20-180 positions stay whole at J = 8."""
    for j in range(1, 9):
        for t_max in range(1, 1000):
            size = _viterbi_segment_length(np.array([0, t_max]), j)
            assert (size < t_max) == (t_max >= 13)
    assert _viterbi_segment_length(np.array([0, 10 ** 4]), 4) == 24
    lengths = np.random.default_rng(0).integers(20, 181, size=100)
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    assert _viterbi_segment_length(offsets, 8) == lengths.max()


def tie_heavy_model(rng, j):
    """Uniform initial law; each transition row uniform or a permutation of
    (1/2, 1/4, ..., 2^-(J-1), 2^-(J-1)); two-symbol emissions (1/2, 1/2),
    (3/4, 1/4) or (1/4, 3/4).  Many paths then share one multiset of log
    terms, and their log joints differ only by the order of summation."""
    dyadic = np.append(0.5 ** np.arange(1, j), 0.5 ** (j - 1)) if j > 1 else [1.0]
    rows = [np.full(j, 1.0 / j) if rng.random() < 0.5 else rng.permutation(dyadic)
            for _ in range(j)]
    laws = ([0.5, 0.5], [0.75, 0.25], [0.25, 0.75])
    return HmmModel(np.full(j, 1.0 / j), rows,
                    [[Categorical(laws[int(rng.integers(0, 3))])]
                     for _ in range(j)])


@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 12))
@settings(deadline=None)
def test_tie_heavy_viterbi_is_the_oracle_optimum(seed, size):
    """Segments of `size` positions on datasets small enough to enumerate;
    a size of at least the longest sequence leaves every sequence whole."""
    rng = np.random.default_rng(seed)
    j = int(rng.integers(1, 5))
    max_length = {1: 12, 2: 12, 3: 7, 4: 6}[j]  # J^T <= 4096
    model = tie_heavy_model(rng, j)
    seqs = [simulate_chain(model, int(rng.integers(1, max_length + 1)),
                           int(rng.integers(0, 2 ** 31)))[1]
            for _ in range(int(rng.integers(1, 5)))]
    data = stack(seqs)
    with patch.object(chain_module, "_viterbi_segment_length",
                      lambda offsets, j: size):
        path, log_joint = viterbi_dataset(model, data)
    bounds = data.offsets.tolist()
    for s, seq in enumerate(seqs):
        best, best_prob = enumerate_chain(model, seq).best_configuration()
        np.testing.assert_array_equal(path[bounds[s]:bounds[s + 1]], best)
        assert sequential_viterbi(model, seq)[0] == best.tolist()
        assert math.exp(log_joint[s]) == pytest.approx(best_prob, rel=1e-12)
