"""Command-line interface: subcommands, auto-detection, exit codes."""

import io
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from hmmentropy import Categorical, HmmModel, Poisson, fileio, serialize_model
from hmmentropy import cli
from hmmentropy.cli import main
from hmmentropy.numutil import entr

from conftest import (M1, MALFORMED_IDS, MALFORMED_NUMBERS, log_space_tree,
                      one_state_doc, random_chain_instance,
                      random_tree_instance, uniform_model)

CHAIN_DATA = "0 0\n"
STAR_DATA = "0\t-1\t0\n1\t0\t0\n2\t0\t0\n"


def star_text(n, period=1):
    """Tree file of a star: vertex 0 with n - 1 leaves; vertex u observes
    u % period."""
    return "0\t-1\t0\n" + "".join(f"{u}\t0\t{u % period}\n"
                                    for u in range(1, n))


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "m1.json"
    path.write_text(serialize_model(M1))
    return str(path)


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text(CHAIN_DATA)
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text(STAR_DATA)
    return str(path)


def patch_everywhere(monkeypatch, name, replacement):
    """Replace a function in every hmmentropy module that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("hmmentropy") and hasattr(module, name):
            monkeypatch.setattr(module, name, replacement)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def text_columns(out):
    """The cells of a TSV table as written, by column name."""
    header, *rows = [line.split("\t") for line in out.splitlines()]
    return {name: [row[c] for row in rows] for c, name in enumerate(header)}


class TestValidate:
    def test_ok(self, capsys, model_file):
        code, out, _ = run(capsys, "validate", "--model", model_file)
        assert code == 0 and out.strip() == "ok"

    def test_violations_exit_2(self, capsys, tmp_path):
        doc = {"num_states": 2, "initial": [0.6, 0.6],
               "transition": [[0.5, 0.5], [0.5, 0.5]],
               "emissions": [[{"type": "categorical", "probs": [1.0]}],
                             [{"type": "categorical", "probs": [1.0]}]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 2
        assert "initial" in out

    def test_nan_exit_2(self, capsys, tmp_path):
        doc = {"num_states": 2, "initial": [float("nan"), 0.5],
               "transition": [[0.5, 0.5], [0.5, 0.5]],
               "emissions": [[{"type": "categorical", "probs": [1.0]}],
                             [{"type": "categorical", "probs": [1.0]}]]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", "--model", str(path))
        assert code == 2
        assert "initial" in out

    @pytest.mark.parametrize("argv", [("validate",), ("smooth",)])
    @pytest.mark.parametrize("rate", ["null", "[2.5]", '{"rate": 2.5}',
                                      "true", '"2.5"'])
    def test_malformed_poisson_rate_exit_2(self, capsys, tmp_path, chain_file,
                                           argv, rate):
        path = tmp_path / "model.json"
        path.write_text('{"num_states": 1, "initial": [1.0], "transition": '
                        '[[1.0]], "emissions": [[{"type": "poisson", '
                        f'"rate": {rate}}}]]}}')
        data = ("--data", chain_file) if argv == ("smooth",) else ()
        code, out, err = run(capsys, *argv, "--model", str(path), *data)
        assert code == 2 and out == ""
        assert err == (f"error: emissions[0][0]: poisson rate {rate} "
                       "is not a number\n")

    @pytest.mark.parametrize("field, value, message", MALFORMED_NUMBERS,
                             ids=MALFORMED_IDS)
    def test_malformed_numbers_exit_2(self, capsys, tmp_path, field, value,
                                      message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(one_state_doc(field, value)))
        code, out, err = run(capsys, "validate", "--model", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [("validate",), ("smooth",)])
    @pytest.mark.parametrize("doc, message", [
        (["num_states", "initial", "transition", "emissions"],
         "model document must be a JSON object"),
        ("num_states initial transition emissions",
         "model document must be a JSON object"),
        ({"num_states": 1, "initial": [1.0], "transition": [[1.0]],
          "emissions": 5},
         "emissions must be a list"),
        ({"num_states": 2, "initial": [0.5, 0.5],
          "transition": [[0.5, 0.5], [0.5, 0.5]],
          "emissions": [[{"type": "categorical", "probs": [1.0]}], 3]},
         "emissions[1] must be a list"),
        ({"num_states": 2, "initial": [0.5, 0.5], "transition": [[1, 0], [1]],
          "emissions": [[{"type": "categorical", "probs": [1.0]}]] * 2},
         "error: transition[1] has length 1 but transition[0] has length 2\n"),
        ({"num_states": 0, "initial": [], "transition": [], "emissions": []},
         "error: model needs at least one state\n"),
        ({"num_states": 1, "initial": [1.0], "transition": [[1.0]],
          "emissions": [[3]]},
         "error: emissions[0][0]: emission variable spec must be an object "
         "with a 'type' field\n"),
        ({"num_states": 1, "initial": [1.0], "transition": [[1.0]],
          "emissions": [[{"type": "categorical"}]]},
         "error: emissions[0][0]: categorical spec needs 'probs'\n"),
        ({"num_states": 1, "initial": [1.0], "transition": [[1.0]],
          "emissions": [[{"type": "categorical", "probs": []}]]},
         "error: categorical probabilities must be a non-empty vector\n"),
        ({"num_states": 1, "initial": [1.0], "transition": [[1.0]],
          "emissions": [[{"type": "poisson"}]]},
         "error: emissions[0][0]: poisson spec needs 'rate'\n"),
        ({"num_states": 3, "initial": [0.5, 0.5],
          "transition": [[0.5, 0.5], [0.5, 0.5]],
          "emissions": [[{"type": "categorical", "probs": [1.0]}]] * 2},
         "error: num_states field is 3 but initial has length 2\n"),
        ({"num_states": 2, "initial": [0.5, 0.5], "transition": [[1.0]],
          "emissions": [[{"type": "categorical", "probs": [1.0]}]] * 2},
         "error: transition must be 2x2, got (1, 1)\n"),
        ({"num_states": 2, "initial": [0.5, 0.5],
          "transition": [[0.5, 0.5], [0.5, 0.5]],
          "emissions": [[{"type": "categorical", "probs": [1.0]}]]},
         "error: need one emission model per state: 1 != 2\n"),
    ], ids=["array document", "string document", "emissions not a list",
            "state entry not a list", "ragged transition", "no state",
            "spec not an object", "no probs", "empty probs", "no rate",
            "num_states above initial", "transition too small",
            "one emission list for two states"])
    def test_malformed_document_exit_2(self, capsys, tmp_path, chain_file,
                                       argv, doc, message):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        data = ("--data", chain_file) if argv == ("smooth",) else ()
        code, out, err = run(capsys, *argv, "--model", str(path), *data)
        assert code == 2 and out == ""
        assert message in err


class TestSmooth:
    def test_chain(self, capsys, model_file, chain_file):
        code, out, _ = run(capsys, "smooth", "--model", model_file,
                           "--data", chain_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "sequence\tindex\tobs_0\tsmoothed_0\tsmoothed_1"
        first = lines[1].split("\t")
        assert float(first[3]) == pytest.approx(0.919254658385, abs=1e-11)

    def test_tree_autodetected(self, capsys, model_file, tree_file):
        code, out, _ = run(capsys, "smooth", "--model", model_file,
                           "--data", tree_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("vertex\tparent\tobs_0")
        root = lines[1].split("\t")
        assert float(root[3]) == pytest.approx(0.970062001771, abs=1e-11)

    def test_takes_no_log_base(self, capsys, model_file, chain_file):
        """smooth prints no entropy column, so it has no base to take."""
        code, out, err = run(capsys, "smooth", "--model", model_file,
                             "--data", chain_file, "--log-base", "2")
        assert code == 1 and out == ""
        assert "--log-base" in err

    def test_out_file(self, capsys, tmp_path, model_file, chain_file):
        out_path = tmp_path / "out.tsv"
        code, out, _ = run(capsys, "smooth", "--model", model_file,
                           "--data", chain_file, "--out", str(out_path))
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("sequence\t")

    def test_out_file_over_many_slices_is_stdout(self, capsys, tmp_path,
                                                 model_file):
        """A table written in several slices is the table printed whole."""
        data_path = tmp_path / "star.txt"
        data_path.write_text(star_text(6_000, period=2))
        argv = ("smooth", "--model", model_file, "--data", str(data_path))
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and len(expected) > 3 * cli._WRITE_CHARS
        out_path = tmp_path / "out.tsv"
        assert run(capsys, *argv, "--out", str(out_path)) == (0, "", "")
        assert out_path.read_bytes() == expected.encode()

    def test_stdout_is_written_in_slices(self, monkeypatch, tmp_path,
                                         model_file):
        """stdout, like --out, never receives more than one slice at a time,
        and the slices make up the file's bytes."""
        data_path = tmp_path / "star.txt"
        data_path.write_text(star_text(6_000, period=2))
        argv = ["smooth", "--model", model_file, "--data", str(data_path)]
        out_path = tmp_path / "out.tsv"
        assert main(argv + ["--out", str(out_path)]) == 0
        writes = []

        class RecordingStdout(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(argv) == 0
        assert stdout.getvalue().encode() == out_path.read_bytes()
        assert len(stdout.getvalue()) > 3 * cli._WRITE_CHARS
        assert max(writes) <= cli._WRITE_CHARS

    def test_profile_is_written_block_by_block(self, tmp_path):
        """Writing a long table never holds its whole text: the traced peak
        stays far below the output's size (above it when the text was
        rendered whole before it was written)."""
        rows = 40_000
        rng = np.random.default_rng(0)
        table = fileio.ProfileTable()
        table.add("position", np.arange(rows))
        for j in range(6):
            table.add(f"p_{j}", rng.random(rows))
        table.add("h", rng.random(rows))
        out_path = tmp_path / "out.tsv"
        tracemalloc.start()
        try:
            cli._emit_profile(table, str(out_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out_path.stat().st_size
        assert out_path.read_text() == fileio.write_profile(table)
        assert peak <= size / 4


class TestViterbi:
    def test_chain(self, capsys, model_file, chain_file):
        code, out, err = run(capsys, "viterbi", "--model", model_file,
                             "--data", chain_file)
        assert code == 0
        assert [r.split("\t")[-1] for r in out.splitlines()[1:]] == ["0", "0"]
        assert "log_joint" in err

    def test_dataset_log_joints_on_stderr(self, capsysbinary, tmp_path,
                                          model_file):
        """One line per sequence, in order, written in one piece."""
        path = tmp_path / "three.txt"
        path.write_text("0 0\n1 1 0\n0 1 1 1\n")
        assert main(["viterbi", "--model", model_file,
                     "--data", str(path)]) == 0
        assert capsysbinary.readouterr().err == (
            b"log_joint[0]\t-1.24479479885\n"
            b"log_joint[1]\t-2.95959322694\n"
            b"log_joint[2]\t-3.28809729391\n")

    def test_tree_profiles(self, capsys, model_file, tree_file):
        code, out, _ = run(capsys, "viterbi-profiles", "--model", model_file,
                           "--data", tree_file)
        assert code == 0
        header = out.splitlines()[0].split("\t")
        assert "vprofile_0" in header and "vprofile_1" in header
        root = out.splitlines()[1].split("\t")
        assert float(root[header.index("vprofile_1")]) == pytest.approx(
            0.0143489813995, abs=1e-10)

    def test_profiles_reject_chain(self, capsys, model_file, chain_file):
        code, _, err = run(capsys, "viterbi-profiles", "--model", model_file,
                           "--data", chain_file)
        assert code == 2 and "tree" in err


class TestEntropy:
    def test_chain_past(self, capsys, model_file, chain_file):
        code, out, _ = run(capsys, "entropy", "--model", model_file,
                           "--data", chain_file, "--cond", "past")
        assert code == 0
        header = out.splitlines()[0].split("\t")
        idx = header.index("cond_entropy_past")
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert float(rows[0][idx]) == pytest.approx(0.280585991294, abs=1e-11)
        assert float(rows[1][idx]) == pytest.approx(0.164057558635, abs=1e-11)

    def test_chain_log_base_2(self, capsys, model_file, chain_file):
        code, out, _ = run(capsys, "entropy", "--model", model_file,
                           "--data", chain_file, "--log-base", "2")
        header = out.splitlines()[0].split("\t")
        idx = header.index("cond_entropy_past")
        value = float(out.splitlines()[1].split("\t")[idx])
        assert value == pytest.approx(0.280585991294 / math.log(2), abs=1e-10)

    def test_chain_rejects_tree_cond(self, capsys, model_file, chain_file):
        code, _, err = run(capsys, "entropy", "--model", model_file,
                           "--data", chain_file, "--cond", "parent")
        assert code == 1

    @pytest.mark.parametrize("cond", ["past", "future"])
    def test_tree_rejects_chain_cond(self, capsys, model_file, tree_file, cond):
        code, out, err = run(capsys, "entropy", "--model", model_file,
                             "--data", tree_file, "--cond", cond)
        assert code == 1 and out == ""
        assert err.endswith(
            "Error: tree input takes --cond parent|children|both\n")

    def test_tree_both(self, capsys, model_file, tree_file):
        code, out, _ = run(capsys, "entropy", "--model", model_file,
                           "--data", tree_file, "--cond", "both")
        assert code == 0
        header = out.splitlines()[0].split("\t")
        for col in ("cond_entropy_parent", "cond_entropy_children",
                    "partial_subtree_entropy", "partial_complement_entropy"):
            assert col in header
        root = out.splitlines()[1].split("\t")
        assert float(root[header.index("partial_subtree_entropy")]) == \
            pytest.approx(0.412546575905, abs=1e-11)

    @pytest.mark.parametrize("instance", ["star", "random"])
    def test_tree_both_is_parent_and_children(self, capsys, tmp_path,
                                              model_file, tree_file, instance):
        if instance == "random":
            model, tree = random_tree_instance(10, poisson=True)
            model_file = tmp_path / "random.json"
            model_file.write_text(serialize_model(model))
            tree_file = tmp_path / "random.tree"
            tree_file.write_text(fileio.serialize_tree(tree))
        columns = {}
        for cond in ("both", "parent", "children"):
            code, out, err = run(capsys, "entropy", "--cond", cond,
                                 "--model", str(model_file),
                                 "--data", str(tree_file))
            assert code == 0 and err == ""
            columns[cond] = text_columns(out)
        # the same names, each column byte for byte
        assert columns["both"] == {**columns["parent"], **columns["children"]}

    def test_budget_exceeded_exit_4(self, capsys, model_file, tree_file):
        code, _, err = run(capsys, "entropy", "--model", model_file,
                           "--data", tree_file, "--cond", "children",
                           "--budget", "2")
        assert code == 4 and "budget" in err.lower()


class TestSimulate:
    def test_chain(self, capsys, model_file):
        code, out, _ = run(capsys, "simulate", "--model", model_file,
                           "--length", "6", "--seed", "3")
        assert code == 0
        assert len(out.split()) == 6

    def test_chain_deterministic(self, capsys, model_file):
        _, out1, _ = run(capsys, "simulate", "--model", model_file,
                         "--length", "10", "--seed", "5")
        _, out2, _ = run(capsys, "simulate", "--model", model_file,
                         "--length", "10", "--seed", "5")
        assert out1 == out2

    def test_tree(self, capsys, model_file, tree_file):
        code, out, _ = run(capsys, "simulate", "--model", model_file,
                           "--topology", tree_file, "--seed", "1")
        assert code == 0
        assert len(out.splitlines()) == 3

    def test_length_zero_exit_2(self, capsys, model_file):
        assert run(capsys, "simulate", "--model", model_file, "--length", "0",
                   "--seed", "1") == (2, "", "error: length must be >= 1\n")

    def test_requires_exactly_one_target(self, capsys, model_file, tree_file):
        code, _, _ = run(capsys, "simulate", "--model", model_file, "--seed", "1")
        assert code == 1
        code, _, _ = run(capsys, "simulate", "--model", model_file,
                         "--length", "3", "--topology", tree_file, "--seed", "1")
        assert code == 1


class TestCriteriaCommand:
    def test_chain(self, capsys, model_file, chain_file):
        code, out, _ = run(capsys, "criteria", "--model", model_file,
                           "--data", chain_file, "--baseline-loglik", "-2.0")
        assert code == 0
        table = dict(line.split("\t") for line in out.splitlines())
        ll = float(table["log_likelihood"])
        h = float(table["global_entropy"])
        assert ll == pytest.approx(math.log(0.322), abs=1e-10)
        assert h == pytest.approx(0.444643549929, abs=1e-10)
        assert float(table["free_params"]) == 5
        assert float(table["icl_bic"]) == pytest.approx(
            float(table["bic"]) - 2 * h, abs=1e-9)
        assert float(table["nec"]) == pytest.approx(h / (ll + 2.0), abs=1e-9)

    @pytest.mark.parametrize("baseline", ["nan", "inf", "-inf"])
    def test_non_finite_baseline_exit_2(self, capsys, model_file, chain_file,
                                        baseline):
        code, out, err = run(capsys, "criteria", "--model", model_file,
                             "--data", chain_file,
                             f"--baseline-loglik={baseline}")
        assert code == 2 and out == ""
        assert err == f"error: log_likelihood_1 must be finite, got {float(baseline)!r}\n"

    def test_tree_without_baseline(self, capsys, model_file, tree_file):
        code, out, _ = run(capsys, "criteria", "--model", model_file,
                           "--data", tree_file)
        assert code == 0
        assert "nec" not in out


class TestOracleCommand:
    def test_chain(self, capsys, model_file, chain_file):
        code, out, _ = run(capsys, "oracle", "--model", model_file,
                           "--data", chain_file)
        assert code == 0
        table = dict(line.split("\t") for line in out.splitlines())
        assert float(table["evidence"]) == pytest.approx(0.322, rel=1e-10)
        assert float(table["global_entropy"]) == pytest.approx(
            0.444643549929, abs=1e-10)

    def test_budget_exit_4(self, capsys, model_file, tmp_path):
        path = tmp_path / "long.txt"
        path.write_text(" ".join("0" * 1).join([" ".join(["0"] * 40)]) + "\n")
        code, _, err = run(capsys, "oracle", "--model", model_file,
                           "--data", str(path), "--budget", "100")
        assert code == 4


class TestSummaryCommand:
    def test_tree(self, capsys, model_file, tree_file):
        code, out, _ = run(capsys, "summary", "--model", model_file,
                           "--data", tree_file)
        assert code == 0
        table = dict(line.split("\t") for line in out.splitlines())
        g = float(table["g_parent_conditional_sum"])
        c = float(table["c_children_conditional_sum"])
        m = float(table["m_marginal_sum"])
        assert g == pytest.approx(0.412546575905, abs=1e-10)
        assert g <= c <= m
        assert float(table["ratio_cg"]) == pytest.approx((c - g) / g, rel=1e-9)

    def test_chain_global_entropy(self, capsys, model_file, chain_file):
        code, out, _ = run(capsys, "summary", "--model", model_file,
                           "--data", chain_file)
        assert code == 0
        table = dict(line.split("\t") for line in out.splitlines())
        assert float(table["global_entropy"]) == pytest.approx(
            0.444643549929, abs=1e-10)

    def test_rounding_below_zero_prints_zero(self, capsys, tmp_path):
        # the emissions reveal every state, so G = M = 0, but smoothed
        # entries round to 1 + 2.2e-16, whose entropy terms are -2.2e-16
        model, _ = random_chain_instance(537, max_states=4, max_length=12,
                                         zeros_prob=1.0)
        model_path = tmp_path / "m.json"
        model_path.write_text(serialize_model(model))
        data_path = tmp_path / "x.txt"
        data_path.write_text("1 0 0 0 0\n")
        for command, keys in (("summary", ("global_entropy", "m_marginal_sum")),
                              ("criteria", ("global_entropy",))):
            code, out, err = run(capsys, command, "--model", str(model_path),
                                 "--data", str(data_path))
            assert (code, err) == (0, "")
            table = dict(line.split("\t") for line in out.splitlines())
            assert [table[key] for key in keys] == ["0"] * len(keys)


def test_byte_order_mark_prints_the_same(capsys, tmp_path, model_file,
                                         chain_file, tree_file):
    """A UTF-8 byte-order mark opening a model, chain or tree file is not
    read as data: every command prints what the file without it prints."""
    plain = {"model": model_file, "chain": chain_file, "tree": tree_file}
    marked = {}
    for name, path in plain.items():
        marked[name] = str(tmp_path / f"bom_{name}")
        with open(path, "rb") as source, open(marked[name], "wb") as copy:
            copy.write(b"\xef\xbb\xbf" + source.read())
    for argv in (["validate", "--model", "{model}"],
                 ["entropy", "--model", "{model}", "--data", "{chain}"],
                 ["entropy", "--model", "{model}", "--data", "{tree}",
                  "--cond", "both"],
                 ["simulate", "--model", "{model}", "--topology", "{tree}",
                  "--seed", "1"]):
        want = run(capsys, *[arg.format(**plain) for arg in argv])
        assert want[0] == 0
        assert run(capsys, *[arg.format(**marked) for arg in argv]) == want


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        code, _, _ = run(capsys, "smooth", "--nonsense")
        assert code == 1

    def test_missing_file_is_1(self, capsys, model_file):
        code, _, _ = run(capsys, "smooth", "--model", model_file,
                         "--data", "/does/not/exist")
        assert code == 1

    def test_out_into_missing_directory_is_1(self, capsys, tmp_path,
                                             model_file, chain_file):
        """One i/o error line and no traceback."""
        out_path = tmp_path / "missing" / "x.tsv"
        code, out, err = run(capsys, "entropy", "--model", model_file,
                             "--data", chain_file, "--out", str(out_path))
        assert code == 1 and out == ""
        assert err == ("i/o error: [Errno 2] No such file or directory: "
                       f"{str(out_path)!r}\n")

    def test_data_error_is_2(self, capsys, model_file, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 x 1\n")
        code, _, err = run(capsys, "smooth", "--model", model_file,
                           "--data", str(path))
        assert code == 2 and "token" in err

    @pytest.mark.parametrize("text, where", [
        ("0 99999999999999999999 1\n", "line 1: error at token 2"),
        ("0 -1 0\n1 0 99999999999999999999\n", "line 2, variable 1"),
        ("0 -1 0\n1 99999999999999999999 0\n", "line 2, parent id"),
    ], ids=["sequence value", "tree value", "parent id"])
    def test_integer_beyond_int64_is_2(self, capsys, model_file, tmp_path,
                                       text, where):
        path = tmp_path / "big.txt"
        path.write_text(text)
        code, out, err = run(capsys, "smooth", "--model", model_file,
                             "--data", str(path))
        assert code == 2 and out == ""
        assert f"{where}: '99999999999999999999' is outside the int64" in err

    @pytest.mark.parametrize("text, message", [
        ("0 -1 0\n0 0 1\n", "duplicate"),
        ("0 -1 0\n1 -1 1\n", "multiple roots"),
        ("0 -1 0\n2 0 1\n", "missing"),
        ("0 -1 0\n1 0 x\n", "not an integer"),
    ])
    def test_malformed_tree_gets_tree_error(self, capsys, model_file, tmp_path,
                                            text, message):
        path = tmp_path / "bad_tree.txt"
        path.write_text(text)
        code, _, err = run(capsys, "smooth", "--model", model_file,
                           "--data", str(path))
        assert code == 2 and message in err

    def test_numerical_error_is_3(self, capsys, tmp_path):
        doc = {"num_states": 1, "initial": [1.0], "transition": [[1.0]],
               "emissions": [[{"type": "categorical", "probs": [1.0, 0.0]}]]}
        model_path = tmp_path / "m.json"
        model_path.write_text(json.dumps(doc))
        data_path = tmp_path / "d.txt"
        data_path.write_text("0 1 0\n")
        code, _, err = run(capsys, "smooth", "--model", str(model_path),
                           "--data", str(data_path))
        assert code == 3 and "position 1" in err

    @pytest.mark.parametrize("argv", [("smooth",), ("entropy",), ("criteria",),
                                      ("summary",), ("viterbi",)])
    def test_impossible_observation_names_sequence(self, capsys, tmp_path,
                                                   argv):
        # both states emit only 0: sequence 2 fails at position 0, but the
        # first failure in sequence order is sequence 1's, at position 2;
        # Viterbi names the sequence only, and prints no log joint
        model = HmmModel([0.5, 0.5], np.full((2, 2), 0.5),
                         [[Categorical([1.0, 0.0])]] * 2)
        model_path = tmp_path / "m.json"
        model_path.write_text(serialize_model(model))
        data_path = tmp_path / "d.txt"
        data_path.write_text("0 0 0\n0 0 1 0\n1 0\n")
        code, out, err = run(capsys, *argv, "--model", str(model_path),
                             "--data", str(data_path))
        assert code == 3 and out == ""
        if argv == ("viterbi",):
            assert err == ("numerical error: all state sequences are "
                           "impossible at sequence 1\n")
        else:
            assert "sequence 1, position 2" in err

    # Same leaves: the product of the 19,999 leaf messages of the root would
    # pass 1e308.  Alternating leaves: it would sink below the smallest
    # normal double.  Summed as logarithms, both are ordinary numbers.
    @pytest.mark.parametrize("argv", [("entropy", "--cond", "parent"),
                                      ("criteria",)])
    @pytest.mark.parametrize("n, period", [(20_000, 1), (4_001, 2)])
    def test_star_beyond_double_range_computes(self, capsys, tmp_path, argv,
                                               n, period):
        model = HmmModel([0.5, 0.5], [[0.99, 0.01], [0.01, 0.99]],
                         M1.emissions)
        model_path = tmp_path / "m.json"
        model_path.write_text(serialize_model(model))
        data_path = tmp_path / "star.txt"
        data_path.write_text(star_text(n, period))
        code, out, err = run(capsys, *argv, "--model", str(model_path),
                             "--data", str(data_path))
        assert code == 0 and err == ""
        if argv == ("criteria",):
            table = dict(line.split("\t") for line in out.splitlines())
            expected = log_space_tree(model,
                                      fileio.parse_tree(star_text(n, period)))[2]
            # within 1e-9 once the 12 printed digits are accounted for
            half_digit = 0.5 * 10.0 ** (math.floor(math.log10(-expected)) - 11)
            assert abs(float(table["log_likelihood"]) - expected) <= \
                half_digit + 1e-9
        else:
            assert len(out.splitlines()) == n + 1

    def test_wide_star_over_budget_is_4(self, capsys, tmp_path):
        model_path = tmp_path / "uniform.json"
        model_path.write_text(serialize_model(uniform_model(2)))
        data_path = tmp_path / "star.txt"
        data_path.write_text(star_text(15_001))
        code, _, err = run(capsys, "entropy", "--cond", "children",
                           "--model", str(model_path), "--data", str(data_path))
        assert code == 4
        assert "needs 0 + 2^15001 > 100000000 terms at vertex 0" in err

    def test_help_is_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "entropy" in out


# (data kind, command) of every command that reads data
COMMANDS = [
    ("tree", ("smooth",)), ("tree", ("viterbi",)),
    ("tree", ("viterbi-profiles",)),
    ("tree", ("entropy", "--cond", "parent")),
    ("tree", ("entropy", "--cond", "children")),
    ("tree", ("entropy", "--cond", "both")), ("tree", ("criteria",)),
    ("tree", ("oracle",)), ("tree", ("summary",)),
    ("chain", ("summary",)), ("chain", ("entropy", "--cond", "future")),
    ("chain", ("entropy", "--cond", "past")), ("chain", ("criteria",)),
    ("chain", ("smooth",)), ("chain", ("viterbi",)), ("chain", ("oracle",)),
]

# three states; one categorical and two Poisson variables
COUNT_MODEL = HmmModel(
    [0.5, 0.3, 0.2], [[0.8, 0.1, 0.1], [0.2, 0.7, 0.1], [0.3, 0.3, 0.4]],
    [[Categorical([0.6, 0.4]), Poisson(1.0), Poisson(0.5)],
     [Categorical([0.3, 0.7]), Poisson(4.0), Poisson(2.0)],
     [Categorical([0.5, 0.5]), Poisson(0.0), Poisson(6.0)]])
COUNT_CHAINS = "0,1,0;1,3,2;0,0,1\n1,5,4;1,2,0;0,0,3;1,4,6\n"
COUNT_TREE = ("0 -1 0,1,0\n1 0 1,3,2\n2 0 0,0,1\n3 1 1,5,4\n"
              "4 1 1,2,0\n5 2 0,0,3\n")


class TestOneRoutePerQuantity:
    """Commands compute each quantity by one route and parse data once; the
    second routes are references for the tests only, and the full tree
    profile is assembled for library callers only."""

    REFERENCES = ("subtree_entropies_approach2", "entropy_past_direct",
                  "entropy_future_direct", "hernando_table",
                  "tree_entropy_profile")
    PARSERS = ("parse_tree", "parse_sequence")

    @pytest.mark.parametrize("data, argv", COMMANDS)
    def test_references_unused_and_data_parsed_once(
            self, capsys, monkeypatch, model_file, tree_file, chain_file,
            data, argv):
        argv = argv + ("--model", model_file,
                       "--data", tree_file if data == "tree" else chain_file)
        expected = run(capsys, *argv)[:2]

        def forbidden(*args, **kwargs):
            raise AssertionError("a reference route ran on the command path")

        parses = []

        def counting(parse):
            def wrapper(text):
                parses.append(parse.__name__)
                return parse(text)
            return wrapper

        for name in self.REFERENCES:
            patch_everywhere(monkeypatch, name, forbidden)
        for name in self.PARSERS:
            patch_everywhere(monkeypatch, name, counting(getattr(fileio, name)))
        assert run(capsys, *argv)[:2] == (0, expected[1])
        assert parses == ["parse_tree" if data == "tree" else "parse_sequence"]

    @pytest.mark.parametrize("command, data", [
        pytest.param("summary", "tree", id="tree"),
        pytest.param("summary", "chain", id="chain"),
        pytest.param("criteria", "tree", id="criteria-tree"),
    ])
    def test_summary_computes_only_the_sums(self, capsys, monkeypatch,
                                            model_file, tree_file, chain_file,
                                            command, data):
        argv = (command, "--model", model_file,
                "--data", tree_file if data == "tree" else chain_file)
        expected = run(capsys, *argv)[:2]

        def forbidden(*args, **kwargs):
            raise AssertionError(f"{command} computed a partial entropy profile")

        for name in ("subtree_entropies_approach1", "tree_entropy_profile"):
            patch_everywhere(monkeypatch, name, forbidden)
        assert run(capsys, *argv)[:2] == (0, expected[1])

    def test_chain_summary_runs_no_tree_pass(self, capsys, monkeypatch,
                                             model_file, chain_file):
        argv = ("summary", "--model", model_file, "--data", chain_file)
        expected = run(capsys, *argv)[:2]

        def forbidden(*args, **kwargs):
            raise AssertionError("chain summary ran a tree pass")

        for name in ("TreeTopology", "smooth_tree", "upward_pass"):
            patch_everywhere(monkeypatch, name, forbidden)
        assert run(capsys, *argv)[:2] == (0, expected[1])

    @pytest.mark.parametrize("data, argv",
                             [case for case in COMMANDS if case[1] != ("oracle",)])
    def test_each_quantity_evaluated_once(self, capsys, monkeypatch, tmp_path,
                                          data, argv):
        """One emission matrix per command, log x! once per Poisson variable
        of it, the max-product recursion only through the public Viterbi
        routes, and one marginal-entropy table at most: none where no
        printed quantity needs it."""
        from hmmentropy import model as model_module, tree
        model_path = tmp_path / "model.json"
        model_path.write_text(serialize_model(COUNT_MODEL))
        data_path = tmp_path / "data.txt"
        data_path.write_text(COUNT_TREE if data == "tree" else COUNT_CHAINS)
        rows = 6 if data == "tree" else 7
        argv = argv + ("--model", str(model_path), "--data", str(data_path))
        calls = {"emission": 0, "log_factorial": 0, "max_product": 0, "marginal": 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def counting_entr(x, *args, **kwargs):
            if np.shape(x) == (rows, COUNT_MODEL.num_states):
                calls["marginal"] += 1
            return entr(x, *args, **kwargs)

        patch_everywhere(monkeypatch, "log_emission_matrix",
                         counting("emission", model_module.log_emission_matrix))
        patch_everywhere(monkeypatch, "log_factorial",
                         counting("log_factorial", model_module.log_factorial))
        patch_everywhere(monkeypatch, "entr", counting_entr)
        # in the tree module alone: commands reach it through its public routes
        monkeypatch.setattr(tree, "_max_product",
                            counting("max_product", tree._max_product))
        assert run(capsys, *argv)[0] == 0
        viterbi = argv[0] in ("viterbi", "viterbi-profiles") and data == "tree"
        # tree criteria needs only the parent-conditional profile
        no_marginal = (argv[0] in ("smooth", "viterbi", "viterbi-profiles")
                       or (argv[0], data) == ("criteria", "tree"))
        expected = {"emission": 1, "log_factorial": 2,
                    "max_product": 1 if viterbi else 0,
                    "marginal": 0 if no_marginal else 1}
        assert calls == expected

    def test_viterbi_profiles_runs_max_product_once(self, capsys, monkeypatch,
                                                    model_file, tree_file):
        from hmmentropy import tree
        max_product = tree._max_product
        calls = []

        def counting(*args):
            calls.append(args)
            return max_product(*args)

        patch_everywhere(monkeypatch, "_max_product", counting)
        code, _, _ = run(capsys, "viterbi-profiles", "--model", model_file,
                         "--data", tree_file)
        assert code == 0 and len(calls) == 1


def fresh_interpreter(code):
    """What a new Python process running code prints, with this checkout's
    package first on its path."""
    import os
    import subprocess
    from pathlib import Path
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.strip()


def test_fresh_import_loads_no_scipy():
    """scipy is a test dependency only: its import alone took most of a
    command's start-up."""
    code = ("import sys, hmmentropy.cli; print(sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))")
    assert fresh_interpreter(code) == "[]"


def test_fresh_import_loads_numpy_random_only_with_numpy():
    """numpy.random, with its hashlib and secrets imports, serves simulate
    alone: importing the command line loads it only where a bare import of
    numpy does (numpy 1.x imports it eagerly)."""
    code = "import sys, {}; print('numpy.random' in sys.modules)"
    assert (fresh_interpreter(code.format("hmmentropy.cli"))
            == fresh_interpreter(code.format("numpy")))


def test_cli_imports_no_private_name():
    """The command line uses the package's public interface only."""
    import ast
    from hmmentropy import cli
    with open(cli.__file__, encoding="utf-8") as source:
        module = ast.parse(source.read())
    private = [alias.name for node in ast.walk(module)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("hmmentropy"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
