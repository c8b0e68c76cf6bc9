"""Golden CLI outputs, listed once in golden/cases.json, which the CI step
that runs the installed console script reads too.  A case is an argv run
from the golden directory, the TSV it prints and, for viterbi, its stderr.

The last two cases are criterion 10's files (tests/test_acceptance.py):
M1 on the chain 0 0 and on the 3-vertex star.  The zeros-model goldens hold
the output forms those do not: exponent-form cells, exact zeros, a negative
parent id, Viterbi profiles and base-2 entropies.  They were written by the
per-block ``%`` writer that the numpy formatter replaced, and every
formatter must print them byte for byte.  The tree entropy table (both
conditionings) and the tree summary were written before the level passes
and profiles took slice maxima, guarded masks and state-major blocks.

The many-chains and wide-tree goldens were written before the chain and
tree engines shared their scaled and max-product step kernels.  They run
those steps on the wide side of the 8 J rows at which the row maxima
switch to column slices (24 at J = 3), which the goldens above do not
reach: the chain filter on 81-105 segment rows, the Viterbi recursion on
165 (its segments are 3 positions long), and the tree on levels of 1-32
vertices.

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
rounding above 1.

The long-chains Viterbi table and log joints (chains of 2,000, 700 and 1
positions) were written when chain Viterbi stitched its segments of 45
positions one segment block at a time.  Their segments are now 10 positions
long and stitched by pointer jumping: the 2,000-position chain's 200
segments take 8 rounds each way.  The long-chains past entropy table was
written when chain smoothing took up pointer jumping too, with segments of
11 positions: its boundary laws come from products over up to 181
segments, 8 rounds each way, where the goldens above are all stitched one
block of segments at a time."""

import json
from pathlib import Path

import pytest

from hmmentropy.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["stdout"] for c in CASES])
def test_golden_output(tmp_path, monkeypatch, case):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / case["stdout"]
    assert main([*case["argv"], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / case["stdout"]).read_bytes()


def _stderr_matches(monkeypatch, capsys, stdout):
    case = next(c for c in CASES if c["stdout"] == stdout)
    monkeypatch.chdir(GOLDEN)
    assert main(case["argv"]) == 0
    err = capsys.readouterr().err
    return err == (GOLDEN / case["stderr"]).read_text()


def test_golden_log_joints(monkeypatch, capsys):
    """The viterbi command's log_joint[s] lines on stderr."""
    assert _stderr_matches(monkeypatch, capsys, "many_chains_viterbi.tsv")


def test_golden_long_chain_log_joints(monkeypatch, capsys):
    """The log_joint[s] lines of chains long enough to be segmented."""
    assert _stderr_matches(monkeypatch, capsys, "long_chains_viterbi.tsv")


def test_golden_tree_log_joint(monkeypatch, capsys):
    """The viterbi command's one log_joint line on stderr for a tree."""
    assert _stderr_matches(monkeypatch, capsys, "small_tree_viterbi.tsv")
