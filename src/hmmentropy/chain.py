"""Forward-backward smoothing, log-likelihood and Viterbi restoration for
hidden Markov chain models.

Smoothing runs on scaled (normalized) probabilities: the filtered
distribution F_t, the one-step-ahead predicted distribution G_t and the
normalizing factors N_t = P(X_t = x_t | X_0^{t-1} = x_0^{t-1}), whose
product is the evidence.  N_t is kept as log N_t, since it can underflow
(numutil.scaled_step, the tree's upward step too).  A zero normalizer means
the observation is impossible under the model and is a hard error, never a
silent renormalization.

One kernel smooths a whole dataset, read as the stacked rows and sequence
offsets of one ObservedSequence.  Every sequence is cut into segments of L
positions (only a sequence's last segment is shorter), and the segments of
all sequences are the rows of one batch.  The forward filter is a
two-level prefix scan in three passes:

1. the transfer matrix of every segment that has a successor, one batched
   (k, J, J) step per position of a segment;
2. the segment boundaries: the predicted law at every row's start;
3. the vector recursion on all rows together, each row from its exact
   boundary law, which yields every position's tables.

Backward smoothing runs the vector recursion on the last segments, stitches
the boundaries back with the same transfer matrices, and runs the other
segments from their successors' smoothed laws.  The two stitches take one
of two forms, chosen by _smoothing_segments from a fitted count of batched
steps.  Block by block, one step per segment index for all sequences at
once, with L = ceil(sqrt(T_max)), T_max the length of the longest sequence:
about 4L + 2 T_max / L steps, the form that pays for many short sequences.
Or by pointer jumping (_jump), since the forward stitch needs the prefix
products of the transfer matrices, from each sequence's first row, and the
backward stitch their suffix products, up to its last row.  One jump over
two copies of the transfer matrices builds both, composing every product
with its pointee's along the predecessors in one copy and the successors in
the other, in about log2(segments) batched rounds (the associative-scan
form of smoothing, Sarkka and Garcia-Fernandez, IEEE TAC 2021).  Its
segments are shorter, L = 27 on a chain of 10^4 positions at J = 4, not
100.  Each product keeps one scale per row, as the transfer matrices do,
so no start state is lost to underflow, and its scales are taken back to a
largest of 0 after each composition, so they never grow to the size of a
log-likelihood.  Either way that is about 4L numpy steps and the stitches,
instead of one step per position.  smooth_dataset alone reads the choice:
it hands each pass its stitch steps, (source rows, target rows, transfer
columns) triples, one per pair of consecutive blocks of segments, or one
from each sequence's first row through the prefix products (forward) and
one from its last row through the suffix products (backward), and each
pass runs its steps in one loop.

Viterbi restoration has the same shape in the max-plus semiring, run
backward: pass 1 builds the J x J max-plus transfer matrix of every segment
that has a predecessor, pass 2 stitches the best log scores at the segment
boundaries from each sequence's end, and pass 3 runs the max-product
recursion down all rows at once, recording argmax pointers and composing
them into each row's map from its first state to its last.  The read-out
stitches the rows' first states forward through those maps and then fills
every row in one batched pass.  Both stitches are associative, max-plus
products of transfer matrices and compositions of maps between states, so
they run by pointer jumping (_jump): every row composes what it holds with
its pointee's in about log2(segments) batched rounds, not one step per
segment.  The batched steps are then about 3L + 2 log2(T_max / L), so
Viterbi segments are as short as jumped smoothing's: L = 24 on a chain of
10^4 positions at J = 4.  Pass 1 costs J^3 per position against J^2
for pass 3, so a dataset is segmented only where that pays
(_viterbi_segment_length, which also sets L); otherwise every sequence is
one row.  Because segmenting changes the order in which scores are summed,
every backtracking step breaks ties with numutil.tie_argmax, and the
printed log joint is the fsum of the restored path's terms.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ImpossibleObservationError, ValidationError
from .model import (HmmModel, ObservedSequence, log_emission_matrix,
                    log_joint_terms)
from .numutil import (fsum, max_plus, max_plus_step, row_entropy, safe_div,
                      scaled_step, tie_argmax)

__all__ = ["ChainPosterior", "smooth_chain", "smooth_dataset", "viterbi_chain",
           "viterbi_dataset"]


@dataclass
class ChainPosterior:
    """Smoothing tables of a dataset of chains, stacked in dataset order:
    rows offsets[s]:offsets[s + 1] belong to sequence s (the dataset's own
    offsets), and log_likelihood is the dataset's.  Within each sequence:

    forward[t]       P(S_t = . | X_0^t = x_0^t)
    log_normalizers  log N_t = log P(X_t = x_t | X_0^{t-1} = x_0^{t-1})
    predicted[t]     P(S_t = . | X_0^{t-1} = x_0^{t-1}), predicted[0] = initial
    smoothed[t]      P(S_t = . | X = x)
    marginal_entropy[t]  H(S_t | X = x), built on first read; read-only
    """

    forward: np.ndarray
    log_normalizers: np.ndarray
    predicted: np.ndarray
    log_likelihood: float
    offsets: np.ndarray
    smoothed: np.ndarray

    @cached_property
    def marginal_entropy(self) -> np.ndarray:
        return row_entropy(self.smoothed)


def _segment_length(t_max: int) -> int:
    """L = ceil(sqrt(T_max))."""
    return math.isqrt(t_max - 1) + 1


# numbers of a pointer-jumping product in smooth_dataset that cost about
# one step of its batched recursion
SMOOTH_CELLS_PER_STEP = 5500
# numbers that a row's gathers and scatters cost in a pointer-jumping round,
# besides its J^3 products
SMOOTH_ROW_CELLS = 50
# recursion steps that a pointer-jumping round costs besides its rows
SMOOTH_ROUND_STEPS = 4


def _jumped_length(offsets, j: int, row_cells: int, step_cells: int) -> int:
    """Segment length of a stitch by pointer jumping,
    L = min(T_max, 1 + floor(sqrt((J^3 + row_cells) n log2(T_max)
                                  / step_cells))),
    n the number of positions and log2(T_max) taken as T_max's bit length,
    floor(log2(T_max)) + 1.  It balances batched steps that grow as L
    against rounds of about n / L rows, each of J^3 + row_cells numbers,
    step_cells numbers costing about one step."""
    t_max = int(np.diff(offsets).max())
    return min(t_max, 1 + math.isqrt((j ** 3 + row_cells) * int(offsets[-1])
                                     * t_max.bit_length() // step_cells))


def _jumped_rows(m):
    """The compositions that pointer jumping (_jump) makes on a chain of m
    rows, whose row d = 1..m holds one factor and needs d, so takes
    ceil(log2 d) rounds: m k - 2^k + 1 in all, k = ceil(log2 m)."""
    m = np.maximum(m, 0)
    k = np.frexp(np.maximum(m - 1, 0))[1]
    return np.where(m > 0, m * k - 2 ** k + 1, 0)


def _smoothing_segments(offsets, j: int):
    """(L, jump) of smooth_dataset: whether its two boundary stitches run
    by pointer jumping, and the segment length.

    Stitched one block of segments at a time, segments are
    L0 = ceil(sqrt(T_max)) long, and the batched steps are about 4 L0 for
    the recursions and 2 (S0 - 1) for the stitches, S0 = ceil(T_max / L0)
    segments in the longest sequence.  Stitched by pointer jumping,
    segments are _jumped_length's, with row_cells = SMOOTH_ROW_CELLS and
    step_cells = 4 SMOOTH_CELLS_PER_STEP, which balances 4L steps against
    the rounds' products, about (n / L) log2(T_max / L) rows of J^3
    numbers each way.  The jumped path's cost in steps is 4L, plus
    SMOOTH_ROUND_STEPS per round (ceil(log2(S - 1)) forward and
    ceil(log2(S - 2)) backward, S the segments of the longest sequence),
    plus (J^3 + SMOOTH_ROW_CELLS) / SMOOTH_CELLS_PER_STEP per composition
    (_jumped_rows of each sequence's S_s - 1 and S_s - 2 rows).  The
    stitches jump where that is below the block path's steps.

    That count, and the fit below, are of two jumps, one each way: the
    round term was fitted to ceil(log2(S - 1)) + ceil(log2(S - 2)) rounds.
    smooth_dataset composes both ways in one jump of ceil(log2(S - 1))
    rounds, with one more composition per sequence, so the rule
    over-counts the jumped side's rounds.  It is left as fitted: counting
    the merged rounds and compositions would move 755 single-chain
    decisions (T = 2-20,000, J = 2, 3, 4, 8) and about one in ten random
    datasets of 1-100 sequences to the other path or L, and with them
    printed digits.

    The three constants are a least-squares fit of those step counts to
    in-process sweeps of both paths at L = 1-320 (numpy 2.4.6, 2-core
    host) on 60 shapes, each at J = 2, 4 and 8: single chains of 10 to
    10^5 positions and datasets of 3-100 sequences of 10-20,000.  A step
    cost 9.6-11.1 us, a block step 0.8-1.0 steps, a round 3.3-3.8 steps,
    and a composition (J^3 + 47-52) / (5,200-5,600) steps.  The rule
    misses on both sides (in-process medians of alternating rounds, best
    of 3 per call, 2-core host).  Where it picks blocks, it took about 2.3
    times the jumped path's time on 1,000 sequences of up to 20 positions
    at J = 8, 1.23 times at J = 4, and 1.18-1.19 times on 300 sequences at
    J = 8.  Where it picks jumping, it took 1.05-1.18 times the block
    path's time on 10-30 sequences of 100-3,000 positions at J = 8.  Many
    short sequences keep the block stitch: 100 sequences of 20-180
    positions took 1.04-1.15 times as long jumped at any L, at J = 2-8.
    One chain of 10^4 positions at J = 4 jumps with L = 27 and smoothed in
    6.2 ms, against 10.1 ms in blocks of L = 100; one of 10^5 with L = 94,
    47 against 59 ms.  Below about 100 positions a chain keeps the block
    stitch, except at 2 and 3 positions, where the 4 L0 steps overstate
    the block path and segments of 1 position jump; either path takes
    about 0.2 ms there.
    """
    lengths = np.diff(offsets)
    t_max = int(lengths.max())
    size = _segment_length(t_max)
    blocked = 4 * size + 2 * (-(-t_max // size) - 1)
    cells = j ** 3 + SMOOTH_ROW_CELLS
    jumped = _jumped_length(offsets, j, SMOOTH_ROW_CELLS,
                            4 * SMOOTH_CELLS_PER_STEP)
    per_seq = -(-lengths // jumped)
    longest = int(per_seq.max())
    rounds = (max(longest - 2, 0).bit_length()
              + max(longest - 3, 0).bit_length())
    rows = int((_jumped_rows(per_seq - 1) + _jumped_rows(per_seq - 2)).sum())
    cost = (4 * jumped + SMOOTH_ROUND_STEPS * rounds
            + rows * cells / SMOOTH_CELLS_PER_STEP)
    return (jumped, True) if cost < blocked else (size, False)


def _active(steps):
    """For steps sorted in descending order: per step s < steps[0], the
    number of rows that take more than s steps (a prefix of the rows)."""
    if not steps.size:
        return []
    return np.searchsorted(-steps, -np.arange(steps[0]), side="left").tolist()


def _locate(offsets, p):
    """(sequence, position) of row p of stacked tables."""
    s = int(np.searchsorted(offsets, p, side="right")) - 1
    return s, int(p - offsets[s])


def _jump(ptr, combine):
    """Pointer jumping (Wyllie 1979): in rounds, every row r whose pointer
    ptr[r] is not negative is combined with its pointee, combine(r, ptr[r])
    on arrays of rows, and then points where its pointee pointed.  Each
    round doubles the span a row has combined, so chains of n rows take
    ceil(log2(n)) rounds.  ptr is updated in place."""
    rows = np.flatnonzero(ptr >= 0)
    while rows.size:
        to = ptr[rows]
        combine(rows, to)
        ptr[rows] = ptr[to]
        rows = rows[ptr[rows] >= 0]


class _Segments:
    """The segments of a dataset as the rows of the batch.

    Rows are ordered by segment index k, and within a segment index by the
    number of segments of their sequence, descending.  The rows of segment k
    are then a block of count[k] rows, whose first count[k + 1] are the
    predecessors of the rows of block k + 1, in order.  The
    rows from B = count[0] on are those with a predecessor, and seq[r] is the
    sequence of row r; pred[r] and succ[r] are the rows before and after row
    r in its sequence, -1 where there is none.  Segments are `size`
    positions long.  offsets are the dataset's sequence offsets.
    """

    def __init__(self, offsets, size):
        self.offsets = offsets
        lengths = np.diff(offsets)
        self.size = size
        per_seq = -(-lengths // size)
        seq = np.repeat(np.arange(lengths.size), per_seq)
        k = np.arange(seq.size) - np.repeat(np.cumsum(per_seq) - per_seq, per_seq)
        order = np.lexsort((-per_seq[seq], k))
        self.seq = seq = seq[order]
        k = k[order]
        self.start = self.offsets[seq] + k * size
        self.length = np.minimum(size, lengths[seq] - k * size)
        self.last = k == per_seq[seq] - 1
        self.count = np.bincount(k)
        first = self.count[0]
        self.pred = np.full(seq.size, -1)
        self.pred[first:] = (np.arange(first, seq.size)
                             - np.repeat(self.count[:-1], self.count[1:]))
        self.succ = np.full(seq.size, -1)
        self.succ[self.pred[first:]] = np.arange(first, seq.size)


def _scaled_product(joint, log_scale, times):
    """One product of row-scaled matrices, in place on joint[i, l, r]: the
    log of the left factor's row i times a weight per column l (the
    emissions in _transfers, the right factor's row scales in _compose).
    Each row i less its own largest term is exponentiated and multiplied
    by the rest of the right factor through times; the product's rows are
    normalized to sum to 1 (or stay 0) and their log scales added to
    log_scale."""
    top = joint.max(axis=1)
    top[top == -np.inf] = 0.0  # an impossible start state
    joint -= top[:, None, :]
    product = times(np.exp(joint, out=joint))
    total = product.sum(axis=1)
    log_scale += top + np.log(total)
    total[total == 0.0] = 1.0
    product /= total[:, None, :]
    return product


def _transfers(model: HmmModel, seg: _Segments, log_b: np.ndarray):
    """Pass 1, for every row with a successor: the matrix
    M = diag(b_s) A diag(b_{s+1}) A ... diag(b_{e-1}) A of its positions
    s..e-1, which takes the predicted law at its start to the one at its
    successor's start, G_e ~ G_s M, and b_s . beta_s back from
    b_e . beta_e, where beta_t(i) = P(X_{t+1}^{T-1} | S_t = i).

    Returned as (transfer, log_scale), indexed [i, l, r] and [i, r] by the
    row i of M and the successor row r - B, so that the steps are long numpy
    loops: row i of M is exp(log_scale[i]) transfer[i], and every row of
    transfer sums to 1 or is 0.  Each row keeps its own scale, so that no
    start state is lost to underflow however unlikely the others make it.
    """
    a_t = model.transition.T
    j = a_t.shape[0]
    pred_start = seg.start[seg.pred[seg.count[0]:]]
    transfer = np.zeros((j, j, pred_start.size))
    transfer[np.arange(j), np.arange(j)] = 1.0
    spare = np.empty_like(transfer)
    log_scale = np.zeros((j, pred_start.size))
    with np.errstate(divide="ignore"):
        for t in range(seg.size):
            joint = np.log(transfer, out=transfer)
            joint += log_b.take(pred_start + t, axis=0).T
            transfer = _scaled_product(
                joint, log_scale, lambda e: np.matmul(a_t, e, out=spare))
            spare = joint
    return transfer, log_scale


def _compose(transfer, log_scale, left, right):
    """The products M_left M_right of row-scaled matrices held as the
    columns left and right of (transfer, log_scale), in _transfers' form.
    Each row is shifted by its own largest term, as in _transfers, and each
    product's scales less their largest (0 if all are -inf), so that they
    stay near 0 however many segments the product spans: left to grow to
    the size of a log-likelihood, they would cost the laws digits."""
    joint = np.log(transfer.take(left, axis=2))
    joint += log_scale.take(right, axis=1)
    after = transfer.take(right, axis=2)
    scale = log_scale.take(left, axis=1)
    product = _scaled_product(joint, scale,
                              lambda e: np.einsum("ilr,lmr->imr", e, after))
    top = scale.max(axis=0)
    top[top == -np.inf] = 0.0
    scale -= top
    return product, scale


def _laws(log_w, transfer, log_scale):
    """The normalized laws w M of row-scaled matrices M from the log
    weights log_w[i, r] of their rows, as (rows, J)."""
    w = log_w + log_scale
    w = np.einsum("ir,ilr->rl", np.exp(w - w.max(axis=0)), transfer)
    return w / w.sum(axis=1, keepdims=True)


def _log_products(log_v, transfer, log_scale):
    """log M v of row-scaled matrices M from log v, (rows, J) both."""
    v = np.exp(log_v.T - log_v.max(axis=1))
    v = np.einsum("ilr,lr->ri", transfer, v)
    return np.log(v) + log_scale.T


def _forward(model: HmmModel, seg: _Segments, log_b, transfer, log_scale,
             steps):
    """Passes 2 and 3 of the forward filter: (forward, predicted,
    log_normalizers) as stacked tables.  Pass 2 runs smooth_dataset's
    stitch steps in order, each (source rows, target rows, transfer
    columns): the predicted laws at the sources' starts, taken through the
    columns of (transfer, log_scale), are those at the targets' starts.
    Pass 3 steps with numutil.scaled_step, even where every emission
    probability underflows or the predicted law favours a state whose
    emission does."""
    a = model.transition
    n, j = log_b.shape
    law = np.empty((seg.start.size, j))
    law[:seg.count[0]] = model.initial
    with np.errstate(divide="ignore", invalid="ignore"):
        # pass 2: the predicted law at each row's start; a segment that is
        # impossible from every start state hands on NaN, so that pass 3
        # reports its successor's first position
        for source, target, cols in steps:
            law[target] = _laws(np.log(law[source]).T, transfer[:, :, cols],
                                log_scale[:, cols])
        # pass 3: the scaled recursion on all rows, longest first
        order = np.argsort(-seg.length, kind="stable")
        starts = seg.start[order]
        g = law[order]
        forward = np.empty((n, j))
        log_norm = np.empty(n)
        ones = np.ones(j)
        for t, k in enumerate(_active(seg.length[order])):
            pos = starts[:k] + t
            g = log_b.take(pos, axis=0) + np.log(g[:k])
            log_norm[pos] = scaled_step(g, ones)
            forward[pos] = g
            g = g @ a
        impossible = np.flatnonzero(~(log_norm > -np.inf))
    if impossible.size:
        s, t = _locate(seg.offsets, impossible[0])
        raise ImpossibleObservationError(
            f"observation impossible under model at sequence {s}, position {t}")
    predicted = np.empty((n, j))
    np.matmul(forward[:-1], a, out=predicted[1:])
    predicted[seg.start] = law
    return forward, predicted, log_norm


def _smooth_rows(model, forward, predicted, smoothed, top, steps, law):
    """Backward recursion L_t = F_t * (A (L_{t+1} / G_{t+1})), 0/0 = 0, down
    each row from position top, for its number of steps, starting from
    law = L_{top+1}; longest rows first."""
    a_t = model.transition.T
    order = np.argsort(-steps, kind="stable")
    top = top[order]
    law = law[order]
    for t, k in enumerate(_active(steps[order])):
        pos = top[:k] - t
        law = safe_div(law[:k], predicted.take(pos + 1, axis=0)) @ a_t
        law *= forward.take(pos, axis=0)
        smoothed[pos] = law


def _backward(model: HmmModel, seg: _Segments, forward, predicted, transfer,
              log_scale, steps):
    """Smoothed table of a dataset from its stacked forward tables.

    The last segment of each sequence runs the backward recursion from
    L_{T-1} = F_{T-1}.  The boundaries are stitched with the forward pass's
    transfer matrices: with v_t = b_t . beta_t, v_s = M v_e and
    L_t ~ G_t . v_t, in log space, by smooth_dataset's stitch steps in
    order, each (source rows, target rows, transfer columns): log v at the
    sources' starts, taken through the columns of (transfer, log_scale), is
    log v at the targets' starts.  Every other segment then runs the
    recursion from the smoothed law at its successor's start.
    """
    j = forward.shape[1]
    first = seg.count[0]
    ends = seg.offsets[1:] - 1
    smoothed = np.empty_like(forward)
    smoothed[ends] = forward[ends]
    last = np.flatnonzero(seg.last)
    inner = np.flatnonzero(~seg.last)
    starts = seg.start[last]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _smooth_rows(model, forward, predicted, smoothed,
                     starts + seg.length[last] - 2, seg.length[last] - 1,
                     forward[starts + seg.length[last] - 1])
        log_v = np.empty((seg.start.size, j))
        log_v[last] = np.log(safe_div(smoothed[starts], predicted[starts]))
        for source, target, cols in steps:
            log_v[target] = _log_products(log_v[source], transfer[:, :, cols],
                                          log_scale[:, cols])
        # the smoothed law at the start of each row's successor
        succ = np.arange(first, seg.start.size)
        law = np.log(predicted[seg.start[succ]]) + log_v[succ]
        law = np.exp(law.T - law.max(axis=1))
        law = (law / law.sum(axis=0)).T
        _smooth_rows(model, forward, predicted, smoothed,
                     seg.start[inner] + seg.length[inner] - 1,
                     seg.length[inner], law)
        # a law that does not sum to 1 needs more range than a double has:
        # a ratio L / G overflowed, or a state the forward recursion lost
        # to underflow carries the mass stitched in from the successor
        broken = np.flatnonzero(~(np.abs(smoothed @ np.ones(j) - 1.0) <= 1e-6))
    if broken.size:
        s, t = _locate(seg.offsets, broken[0])
        raise FloatingPointError(
            f"backward smoothing leaves double precision at sequence {s}, "
            f"position {t}")
    return smoothed


def smooth_dataset(model: HmmModel, data: ObservedSequence) -> ChainPosterior:
    """Forward pass and backward smoothing of every sequence of a dataset
    in one batch.  An impossible observation is reported at the lowest
    sequence index that has one, and at that sequence's first."""
    log_b = log_emission_matrix(model, data.values)
    size, jump = _smoothing_segments(data.offsets, model.num_states)
    seg = _Segments(data.offsets, size)
    transfer, log_scale = _transfers(model, seg, log_b)
    # the stitch steps of each pass, (source rows, target rows, transfer
    # columns); column r - B is the transfer into row r
    first, width = seg.count[0], transfer.shape[2]
    if jump:
        # two copies of the transfer columns, the first composed along pred
        # into the products from each sequence's first row, the second
        # along succ into those up to its last row
        transfer, log_scale = np.tile(transfer, 2), np.tile(log_scale, 2)
        succ = seg.succ[first:] - first + width
        succ[succ < width] = -1  # none, negative again after the offset

        def compose(r, q):
            left, right = np.where(r < width, (q, r), (r, q))
            transfer[:, :, r], log_scale[:, r] = _compose(transfer, log_scale,
                                                          left, right)

        with np.errstate(divide="ignore", invalid="ignore"):
            _jump(np.concatenate((seg.pred[first:] - first, succ)), compose)
        # each sequence's first and last rows
        ends = np.empty((2, len(data.offsets) - 1), dtype=np.intp)
        ends[0, seg.seq[:first]] = np.arange(first)
        ends[1, seg.seq[seg.last]] = np.flatnonzero(seg.last)
        later = seg.seq[first:]
        forward_steps = [(ends[0, later], slice(first, None), slice(0, width))]
        backward_steps = [(ends[1, later], seg.pred[first:],
                           slice(width, None))]
    else:
        # one step per pair of consecutive blocks of segments: the rows of
        # block k + 1 follow the first rows of block k
        off = np.cumsum(np.concatenate(([0], seg.count))).tolist()
        forward_steps = [(slice(p0, p0 + s1 - s0), slice(s0, s1),
                          slice(s0 - first, s1 - first))
                         for p0, s0, s1 in zip(off, off[1:], off[2:])]
        backward_steps = [(target, source, cols)
                          for source, target, cols in reversed(forward_steps)]
    forward, predicted, log_norm = _forward(model, seg, log_b, transfer,
                                            log_scale, forward_steps)
    del log_b
    smoothed = _backward(model, seg, forward, predicted, transfer, log_scale,
                         backward_steps)
    return ChainPosterior(forward, log_norm, predicted, fsum(log_norm),
                          seg.offsets, smoothed)


def smooth_chain(model: HmmModel, seq: ObservedSequence) -> ChainPosterior:
    """Forward pass followed by backward smoothing; see smooth_dataset."""
    return smooth_dataset(model, seq)


# numbers of viterbi_dataset's pass 1 that cost about one step of its pass 3
VITERBI_CELLS_PER_STEP = 8000
# numbers that a row's gathers, scatters and pointer updates cost in a
# pointer-jumping round, besides its J^3 max-plus sums
VITERBI_ROW_CELLS = 128


def _viterbi_segment_length(offsets, j: int) -> int:
    """Segment length of viterbi_dataset: T_max, which leaves every sequence
    one segment, unless segmenting pays; then _jumped_length's L, with
    row_cells = VITERBI_ROW_CELLS and step_cells = 6 VITERBI_CELLS_PER_STEP.

    Whether segmenting pays is decided at L0 = ceil(sqrt(T_max)): it saves
    about T_max - 3 L0 steps of the batched recursion, and its pass 1 costs
    J^3 numbers per position after each sequence's first segment:
    m = sum over sequences of max(0, T - L0) positions.  The test is
    J^3 m <= VITERBI_CELLS_PER_STEP (T_max - 3 L0).  A single sequence is
    then segmented from T = 13 on at J <= 8, and 100 sequences of 20-180
    positions stay one segment each at J = 8 but not at J = 4.

    The length itself balances the 3L steps of passes 1 and 3 and the fill
    against the two pointer-jumping stitches, which take about
    log2(T_max / L) ~ log2(T_max) / 2 rounds over n / L rows, each row
    costing J^3 + VITERBI_ROW_CELLS numbers a round: in steps,
    3L + (J^3 + VITERBI_ROW_CELLS) (n / L) log2(T_max)
    / (2 VITERBI_CELLS_PER_STEP), least at the L above.  VITERBI_ROW_CELLS
    is fitted to sweeps of L = 5-350 on single chains of 10^4 and 10^5
    positions and on 3 to 100 sequences at J = 2, 4 and 8, whose best L ran
    from 11 to 250.  Against ceil(sqrt(T_max) / 3), which ignores J and the
    number of sequences, it takes 0.93-1.03 of the time on single chains of
    10^4 to 10^5 positions at J = 2-8, 0.68-0.89 of the time on 50 to 100
    sequences of 20-300 positions at J = 2-4, and 1.07-1.18 times as long
    on 5 to 20 sequences of 200-5,000 positions at J = 4-8.

    Measured on a 2-core host with numpy 2.4.6, on a chain of 10^4
    positions at L = 24 (416 rows): pass 1 costs 2.2-3.9 ns per number at
    J = 4-8, and a max-plus step of pass 3 13 us on one row and 75 us on
    416 rows at J = 4.  At J = 4 the restoration takes 7.3 ms, against
    9.7 ms when segments of 100 were stitched one block at a time and
    94 ms unsegmented.
    """
    lengths = np.diff(offsets)
    t_max = int(lengths.max())
    size = _segment_length(t_max)
    covered = int(np.maximum(lengths - size, 0).sum())
    if j ** 3 * covered > VITERBI_CELLS_PER_STEP * (t_max - 3 * size):
        return t_max
    return _jumped_length(offsets, j, VITERBI_ROW_CELLS,
                          6 * VITERBI_CELLS_PER_STEP)


def _max_transfers(log_a, log_b, seg: _Segments):
    """Pass 1 of viterbi_dataset, for every row r with a predecessor: the
    max-plus product M_r = F_s F_{s+1} ... F_{e-1} over its positions s..e-1,
    F_t[i, k] = log a_ik + log b_k(x_t).  With u_t(i) the best log
    probability of everything after position t given S_t = i (u_{T-1} = 0),
    u_{s-1}(i) = max_k M_r[i, k] + u_{e-1}(k).

    Built as m[k, r - B, i] = M_r[i, k], so that every max over k is a
    reduction over the first axis.  Each step is numutil.max_plus over the
    middle state in that layout; reducing the middle axis of a
    (rows, J, J, J) sum took 4-11 times as long.  Returned with the rows
    innermost, transfer[k, i, r - B] = M_r[i, k], where np.take gathers them
    for pass 2 as contiguous (J, J, rows) blocks: a fancy index along that
    axis returns a transposed view, on which pass 2's max-plus products
    took twice as long.
    """
    first = seg.count[0]
    order = first + np.argsort(-seg.length[first:], kind="stable")
    starts = seg.start[order]
    m = log_a.T[:, None, :] + log_b.take(starts, axis=0).T[:, :, None]
    for t, k in enumerate(_active(seg.length[order])[1:], start=1):
        step = max_plus(m[:, None, :k], log_a[:, :, None, None])
        step += log_b.take(starts[:k] + t, axis=0).T[:, :, None]
        m[:, :k] = step
    transfer = np.empty((m.shape[0], m.shape[2], m.shape[1]))
    transfer[:, :, order - first] = m.transpose(0, 2, 1)
    return transfer


def viterbi_dataset(model: HmmModel, data: ObservedSequence):
    """Most likely state sequence of every sequence of a dataset: the
    stacked paths and the log joint probability of each.

    Among optima this returns the lexicographically smallest path, as the
    tree restoration on path topologies and the enumeration oracle do: each
    backtracking step, front to back, takes the smallest state whose score
    is tied with the best under numutil.tie_argmax.  The log joint is the
    exactly rounded sum (fsum) of the restored path's terms: log pi, the
    log emissions and the log transitions.  Neither depends on how the
    recursion grouped its sums.  A sequence whose every path is impossible
    is reported at the lowest sequence index that has one.
    """
    log_b = log_emission_matrix(model, data.values)
    n, j = log_b.shape
    log_a = model.log_transition
    log_pi = model.log_initial
    seg = _Segments(data.offsets, _viterbi_segment_length(data.offsets, j))
    rows, first = seg.start.size, seg.count[0]
    # pass 2: u at the last position of every row.  The transfer of each row
    # r with a predecessor becomes the max-plus product of its own and those
    # after it, to its sequence's end, which maps u = 0 there to u at the
    # end of pred[r]
    u_end = np.zeros((rows, j))
    if rows > first:
        transfer = _max_transfers(log_a, log_b, seg)

        def compose(r, q):
            after = transfer.take(q, axis=2).transpose(1, 0, 2)
            transfer[:, :, r] = max_plus(transfer.take(r, axis=2)[:, None],
                                         after[:, :, None])

        _jump(seg.succ[first:] - first, compose)
        u_end[seg.pred[first:]] = transfer.max(axis=0).T
        del transfer
    # pass 3: score_t(i) = log b_i(x_t) + u_t(i) down every row, longest
    # first, with the pointer nxt[t, i] to the state at t + 1 and reach[r, i],
    # the state at the row's last position given state i at the current
    # one.  score is stored state-major, as numutil.max_plus_step takes it.
    order = np.argsort(-seg.length, kind="stable")
    top = seg.start[order] + seg.length[order] - 1
    score = (log_b.take(top, axis=0) + u_end[order]).T.copy()
    reach = np.tile(np.arange(j), rows)
    row_base = np.arange(0, rows * j, j)[:, None]
    nxt = np.empty((n, j), dtype=np.min_scalar_type(j - 1))  # 1 byte to J = 256
    for t, k in enumerate(_active(seg.length[order] - 1)):
        pos = top[:k] - t - 1
        ptr, best = max_plus_step(log_a, score[:, :k])
        nxt[pos] = ptr
        np.add(best.T, log_b.take(pos, axis=0).T, out=score[:, :k])
        if rows > first:
            reach[:k * j] = reach.take(row_base[:k] + ptr).reshape(-1)
    start_score = np.empty((rows, j))
    start_score[order] = score.T
    # read-out: the state at each row's start.  Each row with a predecessor
    # maps the state at its predecessor's start to its own first state, and
    # each sequence's first row holds its first state as a constant map; the
    # maps composed back to that row are constant, each row's start state
    state, best = tie_argmax(log_pi[:, None] + start_score[:first].T)
    impossible = seg.seq[:first][best == -np.inf]
    if impossible.size:
        raise ImpossibleObservationError(
            "all state sequences are impossible at sequence "
            f"{impossible.min()}")
    entry = np.empty((rows, j), dtype=np.intp)
    entry[:first] = state[:, None]
    if rows > first:
        exit_of = np.empty((rows, j), dtype=np.intp)
        exit_of[order] = reach.reshape(rows, j)
        leave = exit_of[seg.pred[first:]]
        entry[first:] = tie_argmax(np.moveaxis(log_a[leave], 2, 0)
                                   + start_score[first:].T[:, :, None])[0]

        def compose(r, q):
            entry[r] = np.take_along_axis(entry[r], entry[q], axis=1)

        _jump(seg.pred.copy(), compose)
    state = entry[:, 0]
    path = np.empty(n, dtype=np.intp)
    starts = seg.start[order]
    path[starts] = state[order]
    for t, k in enumerate(_active(seg.length[order] - 1)):
        pos = starts[:k] + t
        path[pos + 1] = nxt[pos, path[pos]]
    parent = np.arange(-1, n - 1)
    parent[seg.offsets[:-1]] = -1
    terms = log_joint_terms(model, log_b, parent, path).reshape(-1)
    bounds = (2 * seg.offsets).tolist()
    log_joint = np.array([fsum(terms[lo:hi])
                          for lo, hi in zip(bounds, bounds[1:])])
    return path, log_joint


def viterbi_chain(model: HmmModel, seq: ObservedSequence):
    """Most likely state sequence of one sequence and its log joint
    probability; see viterbi_dataset, which takes datasets of more."""
    if seq.num_sequences != 1:
        raise ValidationError(
            f"viterbi_chain takes one sequence, not {seq.num_sequences}")
    path, log_joint = viterbi_dataset(model, seq)
    return path, float(log_joint[0])
