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
offsets of one ObservedSequence.  Every sequence is cut into segments of
L = ceil(sqrt(T_max)) positions, T_max the length of the longest sequence
(only a sequence's last segment is shorter), and the segments of all
sequences are the rows of one batch.  The forward filter is a two-level
prefix scan in three passes:

1. the transfer matrix of every segment that has a successor, one batched
   (k, J, J) step per position of a segment;
2. the segment boundaries, stitched in order for all sequences at once;
3. the vector recursion on all rows together, each row from its exact
   boundary law, which yields every position's tables.

Backward smoothing runs the vector recursion on the last segments, stitches
the boundaries back with the same transfer matrices, and runs the other
segments from their successors' smoothed laws.  That is at most 3L numpy
steps per direction, instead of one per position.

Viterbi restoration has the same shape in the max-plus semiring, run
backward: pass 1 builds the J x J max-plus transfer matrix of every segment
that has a predecessor, pass 2 stitches the best log scores at the segment
boundaries from each sequence's end, and pass 3 runs the max-product
recursion down all rows at once, recording argmax pointers and composing
them into each row's map from its first state to its last.  The read-out
stitches the rows' first states forward through those maps and then fills
every row in one batched pass.  Pass 1 costs J^3 per position against J^2
for pass 3, so a dataset is segmented only where that pays
(_viterbi_segment_length); otherwise every sequence is one row.  Because
segmenting changes the order in which scores are summed, every backtracking
step breaks ties with numutil.tie_argmax, and the printed log joint is the
fsum of the restored path's terms.
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


class _Segments:
    """The segments of a dataset as the rows of the batch.

    Rows are ordered by segment index k, and within a segment index by the
    number of segments of their sequence, descending.  The rows of segment k
    are then the block off[k]:off[k + 1], and the first count[k + 1] rows of
    block k are the predecessors of the rows of block k + 1, in order.  The
    rows from B = count[0] on are those with a predecessor, and seq[r] is the
    sequence of row r.  Segments are `size` positions long, by default
    ceil(sqrt(T_max)).  offsets are the dataset's sequence offsets.
    """

    def __init__(self, offsets, size=None):
        self.offsets = offsets
        lengths = np.diff(offsets)
        self.size = size = size or _segment_length(int(lengths.max()))
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
        self.off = np.concatenate(([0], np.cumsum(self.count)))

    def blocks(self):
        """(predecessor rows, rows of the next block) as slice bounds, for
        every pair of consecutive blocks, first to last."""
        off, count = self.off.tolist(), self.count.tolist()
        return [(off[k], off[k] + count[k + 1], off[k + 1], off[k + 2])
                for k in range(len(count) - 1)]


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
    a = model.transition
    j = a.shape[0]
    first = seg.count[0]
    pred_start = seg.start[np.arange(first, seg.start.size)
                           - np.repeat(seg.count[:-1], seg.count[1:])]
    transfer = np.zeros((j, j, pred_start.size))
    transfer[np.arange(j), np.arange(j)] = 1.0
    spare = np.empty_like(transfer)
    log_scale = np.zeros((j, pred_start.size))
    with np.errstate(divide="ignore"):
        for t in range(seg.size):
            joint = np.log(transfer, out=transfer)
            joint += log_b.take(pred_start + t, axis=0).T
            top = joint.max(axis=1)
            top[top == -np.inf] = 0.0  # an impossible start state
            joint -= top[:, None, :]
            transfer = np.matmul(a.T, np.exp(joint, out=joint), out=spare)
            spare = joint
            total = transfer.sum(axis=1)
            log_scale += top + np.log(total)
            total[total == 0.0] = 1.0
            transfer /= total[:, None, :]
    return transfer, log_scale


def _forward(model: HmmModel, seg: _Segments, log_b, transfer, log_scale):
    """Passes 2 and 3 of the forward filter: (forward, predicted,
    log_normalizers) as stacked tables.  Pass 3 steps with
    numutil.scaled_step, even where every emission probability underflows
    or the predicted law favours a state whose emission does."""
    a = model.transition
    n, j = log_b.shape
    first = seg.count[0]
    law = np.empty((seg.start.size, j))
    law[:first] = model.initial
    with np.errstate(divide="ignore", invalid="ignore"):
        # pass 2: the predicted law at each row's start; a segment that is
        # impossible from every start state hands on NaN, so that pass 3
        # reports its successor's first position
        for p0, p1, s0, s1 in seg.blocks():
            cols = slice(s0 - first, s1 - first)
            w = np.log(law[p0:p1]).T + log_scale[:, cols]
            w = np.einsum("ir,ilr->rl", np.exp(w - w.max(axis=0)),
                          transfer[:, :, cols])
            law[s0:s1] = w / w.sum(axis=1, keepdims=True)
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
              log_scale):
    """Smoothed table of a dataset from its stacked forward tables.

    The last segment of each sequence runs the backward recursion from
    L_{T-1} = F_{T-1}.  The boundaries are stitched with the forward pass's
    transfer matrices: with v_t = b_t . beta_t, v_s = M v_e and
    L_t ~ G_t . v_t, in log space.  Every other segment then runs the
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
        for p0, p1, s0, s1 in reversed(seg.blocks()):
            cols = slice(s0 - first, s1 - first)
            v = np.exp(log_v[s0:s1].T - log_v[s0:s1].max(axis=1))
            v = np.einsum("ilr,lr->ri", transfer[:, :, cols], v)
            log_v[p0:p1] = np.log(v) + log_scale[:, cols].T
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
    seg = _Segments(data.offsets)
    transfer, log_scale = _transfers(model, seg, log_b)
    forward, predicted, log_norm = _forward(model, seg, log_b, transfer,
                                            log_scale)
    del log_b
    smoothed = _backward(model, seg, forward, predicted, transfer, log_scale)
    return ChainPosterior(forward, log_norm, predicted, fsum(log_norm),
                          seg.offsets, smoothed)


def smooth_chain(model: HmmModel, seq: ObservedSequence) -> ChainPosterior:
    """Forward pass followed by backward smoothing; see smooth_dataset."""
    return smooth_dataset(model, seq)


# numbers of viterbi_dataset's pass 1 that cost about one step of its pass 3
VITERBI_CELLS_PER_STEP = 8000


def _viterbi_segment_length(offsets, j: int) -> int:
    """Segment length of viterbi_dataset: L = ceil(sqrt(T_max)) when
    segmenting pays, else T_max, which leaves every sequence one segment.

    Segmenting saves about T_max - 3L steps of the batched recursion, and
    its pass 1 costs J^3 numbers per position after each sequence's first
    segment: m = sum over sequences of max(0, T - L) positions.  Measured on
    a 2-core host with numpy 2.4.6, a step cost 25-40 us and pass 1 about
    4 ns per number, hence the rule J^3 m <= VITERBI_CELLS_PER_STEP
    (T_max - 3L).  A single sequence is then segmented from T = 13 on at
    J <= 8 (J = 8, T = 1000: 5.5 ms against 27 ms), and 100 sequences of
    20-180 positions stay one segment each at J = 8 (15 ms against 19 ms
    segmented) but not at J = 4 (8 ms against 11 ms).
    """
    lengths = np.diff(offsets)
    t_max = int(lengths.max())
    size = _segment_length(t_max)
    covered = int(np.maximum(lengths - size, 0).sum())
    if j ** 3 * covered <= VITERBI_CELLS_PER_STEP * (t_max - 3 * size):
        return size
    return t_max


def _max_transfers(log_a, log_b, seg: _Segments):
    """Pass 1 of viterbi_dataset, for every row r with a predecessor: the
    max-plus product M_r = F_s F_{s+1} ... F_{e-1} over its positions s..e-1,
    F_t[i, k] = log a_ik + log b_k(x_t).  With u_t(i) the best log
    probability of everything after position t given S_t = i (u_{T-1} = 0),
    u_{s-1}(i) = max_k M_r[i, k] + u_{e-1}(k).

    Returned as transfer[k, r - B, i] = M_r[i, k], so that every max over k
    is a reduction over the first axis.  Each step is numutil.max_plus over
    the middle state in that layout; reducing the middle axis of a
    (rows, J, J, J) sum took 4-11 times as long.
    """
    first = seg.count[0]
    order = first + np.argsort(-seg.length[first:], kind="stable")
    starts = seg.start[order]
    m = log_a.T[:, None, :] + log_b.take(starts, axis=0).T[:, :, None]
    for t, k in enumerate(_active(seg.length[order])[1:], start=1):
        step = max_plus(m[:, None, :k], log_a[:, :, None, None])
        step += log_b.take(starts[:k] + t, axis=0).T[:, :, None]
        m[:, :k] = step
    transfer = np.empty_like(m)
    transfer[:, order - first] = m
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
    # pass 2: u at the last position of every row, stitched backward from
    # each sequence's end
    u_end = np.zeros((rows, j))
    if rows > first:
        transfer = _max_transfers(log_a, log_b, seg)
        for p0, p1, s0, s1 in reversed(seg.blocks()):
            u_end[p0:p1] = (transfer[:, s0 - first:s1 - first]
                            + u_end[s0:s1].T[:, :, None]).max(axis=0)
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
    # read-out: the state at each row's start, stitched forward from each
    # sequence's first state, then every row filled from its start
    state = np.empty(rows, dtype=np.intp)
    state[:first], best = tie_argmax(log_pi[:, None] + start_score[:first].T)
    impossible = seg.seq[:first][best == -np.inf]
    if impossible.size:
        raise ImpossibleObservationError(
            "all state sequences are impossible at sequence "
            f"{impossible.min()}")
    exit_of = np.empty((rows, j), dtype=np.intp)
    exit_of[order] = reach.reshape(rows, j)
    for p0, p1, s0, s1 in seg.blocks():
        leave = exit_of[np.arange(p0, p1), state[p0:p1]]
        state[s0:s1] = tie_argmax(log_a[leave].T + start_score[s0:s1].T)[0]
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
