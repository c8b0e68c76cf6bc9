"""Forward-backward smoothing, log-likelihood and Viterbi restoration for
hidden Markov chain models.

Smoothing runs on scaled (normalized) probabilities: the filtered
distribution F_t, the one-step-ahead predicted distribution G_t and the
normalizing factors N_t = P(X_t = x_t | X_0^{t-1} = x_0^{t-1}), whose
product is the evidence.  N_t is kept as log N_t, since it can underflow:
each step forms the joint law of state and observation in log space and
shifts it by its maximum before exponentiating, and the shift is added back
into log N_t.  A zero normalizer means the observation is impossible under
the model and is a hard error, never a silent renormalization.

One kernel smooths a whole dataset.  Every sequence is cut into segments of
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

Viterbi restoration runs its max-product recursion over all positions of a
dataset in one pass, which restarts at each sequence's last position.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ImpossibleObservationError
from .model import HmmModel, ObservedSequence, log_emission_matrix
from .numutil import fsum, safe_div

__all__ = ["ChainPosterior", "forward_pass", "backward_smooth", "smooth_chain",
           "smooth_dataset", "viterbi_chain", "viterbi_dataset"]


@dataclass
class ChainPosterior:
    """Smoothing tables of a dataset of chains, stacked in dataset order:
    rows offsets[s]:offsets[s + 1] belong to sequence s, and log_likelihood
    is the dataset's.  Within each sequence:

    forward[t]       P(S_t = . | X_0^t = x_0^t)
    log_normalizers  log N_t = log P(X_t = x_t | X_0^{t-1} = x_0^{t-1})
    predicted[t]     P(S_t = . | X_0^{t-1} = x_0^{t-1}), predicted[0] = initial
    smoothed[t]      P(S_t = . | X = x)  (None until backward_smooth has run)
    """

    forward: np.ndarray
    log_normalizers: np.ndarray
    predicted: np.ndarray
    log_likelihood: float
    offsets: np.ndarray
    smoothed: Optional[np.ndarray] = None


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
    rows from B = count[0] on are those with a predecessor.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(lengths)))
        self.size = size = _segment_length(int(lengths.max()))
        per_seq = -(-lengths // size)
        rank = np.empty(lengths.size, dtype=np.int64)
        rank[np.argsort(-per_seq, kind="stable")] = np.arange(lengths.size)
        seq = np.repeat(np.arange(lengths.size), per_seq)
        k = np.arange(seq.size) - np.repeat(np.cumsum(per_seq) - per_seq, per_seq)
        order = np.lexsort((rank[seq], k))
        seq, k = seq[order], k[order]
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
    log_scale = np.zeros((j, pred_start.size))
    with np.errstate(divide="ignore"):
        for t in range(seg.size):
            joint = np.log(transfer, out=transfer)
            joint += log_b.take(pred_start + t, axis=0).T
            top = joint.max(axis=1)
            top[top == -np.inf] = 0.0  # an impossible start state
            joint -= top[:, None, :]
            transfer = np.matmul(a.T, np.exp(joint, out=joint))
            total = transfer.sum(axis=1)
            log_scale += top + np.log(total)
            total[total == 0.0] = 1.0
            transfer /= total[:, None, :]
    return transfer, log_scale


def _forward(model: HmmModel, seg: _Segments, log_b, transfer, log_scale):
    """Passes 2 and 3 of the forward filter: (forward, predicted,
    log_normalizers) as stacked tables.

    Each step of pass 3 forms the joint law of state and observation in log
    space and exponentiates it after subtracting its maximum, which is added
    back into log N_t.  Only states with less than 1e-308 of the largest
    joint mass are then lost, even where every emission probability
    underflows or the predicted law favours a state whose emission does.
    """
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
            joint = log_b.take(pos, axis=0) + np.log(g[:k])
            top = joint.max(axis=1)
            joint = np.exp((joint.T - top).T)
            total = joint @ ones
            log_norm[pos] = np.log(total) + top
            g = (joint.T / total).T
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


def _prepare(model: HmmModel, seqs: list):
    """(segments, log-emission matrix, transfer, log_scale) of a dataset."""
    seg = _Segments([seq.length for seq in seqs])
    log_b = log_emission_matrix(model, np.concatenate([seq.values
                                                       for seq in seqs]))
    return (seg, log_b) + _transfers(model, seg, log_b)


def forward_pass(model: HmmModel, seq: ObservedSequence) -> ChainPosterior:
    """Scaled forward recursion; returns a posterior without smoothed table."""
    forward, predicted, log_norm = _forward(model, *_prepare(model, [seq]))
    return ChainPosterior(forward, log_norm, predicted, fsum(log_norm),
                          np.array([0, seq.length]))


def backward_smooth(model: HmmModel, seq: ObservedSequence,
                    fwd: ChainPosterior) -> ChainPosterior:
    """Backward recursion filling the smoothed table L_t.

    The L_{t+1}(k)/G_{t+1}(k) weights use the 0/0 = 0 convention, which is
    the only way a zero predicted probability can be reached.
    """
    seg, _, transfer, log_scale = _prepare(model, [seq])
    smoothed = _backward(model, seg, fwd.forward, fwd.predicted, transfer,
                         log_scale)
    return ChainPosterior(fwd.forward, fwd.log_normalizers, fwd.predicted,
                          fwd.log_likelihood, fwd.offsets, smoothed)


def smooth_dataset(model: HmmModel, seqs) -> ChainPosterior:
    """Forward pass and backward smoothing of every sequence of a dataset
    in one batch.  An impossible observation is reported at the lowest
    sequence index that has one, and at that sequence's first."""
    seg, log_b, transfer, log_scale = _prepare(model, list(seqs))
    forward, predicted, log_norm = _forward(model, seg, log_b, transfer,
                                            log_scale)
    del log_b
    smoothed = _backward(model, seg, forward, predicted, transfer, log_scale)
    return ChainPosterior(forward, log_norm, predicted, fsum(log_norm),
                          seg.offsets, smoothed)


def smooth_chain(model: HmmModel, seq: ObservedSequence) -> ChainPosterior:
    """Forward pass followed by backward smoothing of one sequence."""
    return smooth_dataset(model, [seq])


def viterbi_dataset(model: HmmModel, seqs):
    """Most likely state sequence of every sequence of a dataset: the
    stacked paths and the log joint probability of each.

    The max-product recursion runs backward over the stacked positions,
    from each sequence's last position, and the paths are reconstructed
    front-to-back, breaking ties toward the smaller state index at every
    backtracking step.  Among equally likely optima this selects the
    lexicographically smallest path, matching the tree restoration on path
    topologies and the enumeration oracle.  A sequence whose every path is
    impossible is reported at the lowest sequence index that has one.
    """
    seqs = list(seqs)
    # score[t, i]: best log prob of emissions/transitions from t on, given S_t=i
    score = log_emission_matrix(model, np.concatenate([seq.values
                                                       for seq in seqs]))
    offsets = np.concatenate(([0], np.cumsum([seq.length for seq in seqs])))
    with np.errstate(divide="ignore"):
        log_a = np.log(model.transition)
        log_pi = np.log(model.initial)
    # the rows with a successor in their sequence
    steps = np.delete(np.arange(offsets[-1]), offsets[1:] - 1).tolist()
    nxt = np.empty(score.shape, dtype=np.int64)
    for t in reversed(steps):
        cand = log_a + score[t + 1]
        nxt[t] = np.argmax(cand, axis=1)
        score[t] += cand.max(axis=1)
    first = log_pi + score[offsets[:-1]]
    log_joint = first.max(axis=1)
    impossible = np.flatnonzero(log_joint == -np.inf)
    if impossible.size:
        raise ImpossibleObservationError(
            f"all state sequences are impossible at sequence {impossible[0]}")
    path = np.empty(offsets[-1], dtype=np.int64)
    path[offsets[:-1]] = np.argmax(first, axis=1)
    for t in steps:
        path[t + 1] = nxt[t, path[t]]
    return path, log_joint


def viterbi_chain(model: HmmModel, seq: ObservedSequence):
    """Most likely state sequence of one sequence and its log joint
    probability; see viterbi_dataset."""
    path, log_joint = viterbi_dataset(model, [seq])
    return path, float(log_joint[0])
