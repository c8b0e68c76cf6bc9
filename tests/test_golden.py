"""Golden TSVs of the output forms that criterion 10's two files do not
hold: exponent-form cells, exact zeros, a negative parent id, Viterbi
profiles and base-2 entropies.  They were written by the per-block ``%``
writer that the numpy formatter replaced, and every formatter must print
them byte for byte.  The tree entropy table (both conditionings) and the
tree summary were written before the level passes and profiles took
slice maxima, guarded masks and state-major blocks.

The many-chains and wide-tree goldens were written before the chain and
tree engines shared their scaled and max-product step kernels.  They run
those steps on the wide side of the 8 J rows at which the row maxima
switch to column slices (24 at J = 3), which the goldens above do not
reach: the chain filter and Viterbi recursion on 81-105 segment rows, and
the tree on levels of 1-32 vertices.

The tree Viterbi table and its log joint, the two criteria tables (the
many-chains one with NEC) and the many-chains summary and past entropy
table were written before the segment transfers of chain Viterbi and the
Viterbi-profile completion shared one max-plus kernel and the model took
the logs of its parameters once.  The past table runs the chain entropy
route on 81-105 filter rows.

The many-chains future entropy table was written when the future
conditionals became the past walk's middle terms, sums of non-negative
entropies; before, 8 of its conditionals printed negative.  Its 7 negative
marginal entropies are those of the past table: smoothed probabilities a
rounding above 1."""

from pathlib import Path

import pytest

from hmmentropy.cli import main

GOLDEN = Path(__file__).parent / "golden"
MODEL = GOLDEN / "zeros_model.json"

CASES = [
    (["smooth", "--data", "small_tree.txt"], "small_tree_smooth.tsv"),
    (["viterbi-profiles", "--data", "small_tree.txt"],
     "small_tree_viterbi_profiles.tsv"),
    (["entropy", "--data", "short_chains.txt", "--cond", "future",
      "--log-base", "2"], "short_chains_entropy_future_base2.tsv"),
    (["entropy", "--data", "small_tree.txt", "--cond", "both"],
     "small_tree_entropy_both.tsv"),
    (["summary", "--data", "small_tree.txt"], "small_tree_summary.tsv"),
    (["smooth", "--data", "many_chains.txt"], "many_chains_smooth.tsv"),
    (["viterbi", "--data", "many_chains.txt"], "many_chains_viterbi.tsv"),
    (["smooth", "--data", "wide_tree.txt"], "wide_tree_smooth.tsv"),
    (["viterbi-profiles", "--data", "wide_tree.txt"],
     "wide_tree_viterbi_profiles.tsv"),
    (["viterbi", "--data", "small_tree.txt"], "small_tree_viterbi.tsv"),
    (["criteria", "--data", "small_tree.txt"], "small_tree_criteria.tsv"),
    (["criteria", "--data", "many_chains.txt", "--baseline-loglik", "-900"],
     "many_chains_criteria_nec.tsv"),
    (["summary", "--data", "many_chains.txt"], "many_chains_summary.tsv"),
    (["entropy", "--data", "many_chains.txt", "--cond", "past"],
     "many_chains_entropy_past.tsv"),
    (["entropy", "--data", "many_chains.txt", "--cond", "future"],
     "many_chains_entropy_future.tsv"),
]


@pytest.mark.parametrize("argv, golden", CASES, ids=[g for _, g in CASES])
def test_golden_output(tmp_path, argv, golden):
    command, _, data, *rest = argv
    out = tmp_path / golden
    assert main([command, "--model", str(MODEL), "--data", str(GOLDEN / data),
                 *rest, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_golden_log_joints(capsys):
    """The viterbi command's log_joint[s] lines on stderr."""
    assert main(["viterbi", "--model", str(MODEL), "--data",
                 str(GOLDEN / "many_chains.txt")]) == 0
    err = capsys.readouterr().err
    assert err == (GOLDEN / "many_chains_viterbi.err").read_text()


def test_golden_tree_log_joint(capsys):
    """The viterbi command's one log_joint line on stderr for a tree."""
    assert main(["viterbi", "--model", str(MODEL), "--data",
                 str(GOLDEN / "small_tree.txt")]) == 0
    err = capsys.readouterr().err
    assert err == (GOLDEN / "small_tree_viterbi.err").read_text()
