"""Golden TSVs of the output forms that criterion 10's two files do not
hold: exponent-form cells, exact zeros, a negative parent id, Viterbi
profiles and base-2 entropies.  They were written by the per-block ``%``
writer that the numpy formatter replaced, and every formatter must print
them byte for byte."""

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
]


@pytest.mark.parametrize("argv, golden", CASES, ids=[g for _, g in CASES])
def test_golden_output(tmp_path, argv, golden):
    command, _, data, *rest = argv
    out = tmp_path / golden
    assert main([command, "--model", str(MODEL), "--data", str(GOLDEN / data),
                 *rest, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()
