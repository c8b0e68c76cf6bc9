"""File formats: round trips, malformed inputs, TSV rendering."""

import json
import math

import numpy as np
import pytest

from hmmentropy import (Categorical, DataFormatError, HmmModel, ObservedTree,
                        Poisson, ProfileTable, TreeTopology, ValidationError,
                        parse_model, parse_sequence, parse_tree, read_profile,
                        serialize_model, serialize_sequence, serialize_tree,
                        write_profile)
from hmmentropy.fileio import detect_data_kind

from conftest import M1, random_model

EARTHQUAKE_MODEL = {
    "num_states": 3,
    "initial": [1 / 3, 1 / 3, 1 / 3],
    "transition": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
    "emissions": [[{"type": "poisson", "rate": 13.1}],
                  [{"type": "poisson", "rate": 19.7}],
                  [{"type": "poisson", "rate": 29.7}]],
}


class TestModelFormat:
    def test_poisson_rates_parse(self):
        model = parse_model(json.dumps(EARTHQUAKE_MODEL))
        assert model.num_states == 3
        assert model.emissions[2][0] == Poisson(29.7)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            model = random_model(np.random.default_rng(seed), 3,
                                 num_variables=2, zeros=True, poisson=True)
            again = parse_model(serialize_model(model))
            assert again == model
        assert parse_model(serialize_model(M1)) == M1

    def test_row_sum_error_names_row(self):
        doc = {
            "num_states": 2, "initial": [0.5, 0.5],
            "transition": [[0.5, 0.6], [0.5, 0.5]],
            "emissions": [[{"type": "categorical", "probs": [1.0]}],
                          [{"type": "categorical", "probs": [1.0]}]],
        }
        with pytest.raises(ValidationError, match="row 0"):
            parse_model(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(DataFormatError, match="JSON"):
            parse_model("{not json")

    def test_missing_field(self):
        with pytest.raises(DataFormatError, match="transition"):
            parse_model(json.dumps({"num_states": 1, "initial": [1.0],
                                    "emissions": [[]]}))

    def test_unknown_emission_type(self):
        doc = dict(EARTHQUAKE_MODEL)
        doc["emissions"] = [[{"type": "gaussian", "mean": 0}]] * 3
        with pytest.raises(DataFormatError, match="gaussian"):
            parse_model(json.dumps(doc))


class TestSequenceFormat:
    def test_univariate(self):
        seqs = parse_sequence("0 1 1 0\n")
        assert len(seqs) == 1
        assert seqs[0].length == 4 and seqs[0].num_variables == 1

    def test_bivariate(self):
        seqs = parse_sequence("0,1;1,0\n")
        assert seqs[0].length == 2 and seqs[0].num_variables == 2
        np.testing.assert_array_equal(seqs[0].values, [[0, 1], [1, 0]])

    def test_bad_token_position(self):
        with pytest.raises(DataFormatError, match="token 2"):
            parse_sequence("0 x 1\n")

    def test_ragged_variables(self):
        with pytest.raises(DataFormatError, match="ragged"):
            parse_sequence("0,1;1\n")

    def test_multiple_sequences(self):
        seqs = parse_sequence("0 1\n1 0 1\n\n")
        assert [s.length for s in seqs] == [2, 3]

    def test_round_trip(self):
        text = "0 1 1 0\n1 1\n"
        assert serialize_sequence(parse_sequence(text)) == text
        multi = "0,1;1,0;2,2\n"
        assert serialize_sequence(parse_sequence(multi)) == multi

    def test_empty(self):
        with pytest.raises(DataFormatError, match="no sequences"):
            parse_sequence("\n\n")


class TestTreeFormat:
    def test_star(self):
        tree = parse_tree("0\t-1\t0\n1\t0\t0\n2\t0\t0\n")
        assert tree.num_vertices == 3
        np.testing.assert_array_equal(tree.topology.parent, [-1, 0, 0])

    def test_space_separated(self):
        tree = parse_tree("0 -1 0\n1 0 1\n")
        np.testing.assert_array_equal(tree.values[:, 0], [0, 1])

    def test_multivariate(self):
        tree = parse_tree("0 -1 0,2\n1 0 1,3\n")
        assert tree.num_variables == 2

    def test_multiple_roots(self):
        with pytest.raises(DataFormatError, match="multiple roots"):
            parse_tree("0 -1 0\n1 -1 0\n")

    def test_cycle(self):
        with pytest.raises(DataFormatError, match="cycle"):
            parse_tree("1 2 0\n2 1 0\n")

    def test_missing_id(self):
        with pytest.raises(DataFormatError, match="missing"):
            parse_tree("0 -1 0\n2 0 0\n")

    def test_round_trip(self):
        text = "0\t-1\t0,1\n1\t0\t1,0\n2\t0\t2,2\n3\t1\t0,0\n"
        tree = parse_tree(text)
        assert serialize_tree(tree) == text

    def test_detection(self):
        assert detect_data_kind("0 -1 0\n1 0 0\n") == "tree"
        assert detect_data_kind("0 1 1 0\n") == "chain"
        assert detect_data_kind("0,1;1,0\n") == "chain"
        # malformed trees are still trees, so the tree parser reports them
        for text in ("0 -1 0\n0 0 1\n", "0 -1 0\n1 -1 1\n",
                     "0 -1 0\n2 0 1\n", "0 -1 0\n1 0 x\n"):
            assert detect_data_kind(text) == "tree"


class TestWriteProfile:
    def test_single_row(self):
        table = ProfileTable()
        table.add("index", np.array([0]))
        table.add("value", np.array([0.5]))
        assert write_profile(table) == "index\tvalue\n0\t0.5\n"

    def test_base2_converts_entropy_columns_only(self):
        table = ProfileTable()
        table.add("index", np.array([0]))
        table.add("h", np.array([math.log(2.0)]), entropy=True)
        table.add("p", np.array([math.log(2.0)]))
        text = write_profile(table, log_base="2")
        rows = text.splitlines()[1].split("\t")
        assert float(rows[1]) == pytest.approx(1.0, rel=1e-12)
        assert float(rows[2]) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_twelve_significant_digits(self):
        table = ProfileTable()
        table.add("x", np.array([1.0 / 3.0]))
        assert write_profile(table) == "x\n0.333333333333\n"

    def test_deterministic(self):
        table = ProfileTable()
        table.add("vertex", np.arange(3))
        table.add("h", np.array([0.1, 0.2, 0.3]), entropy=True)
        assert write_profile(table, "2") == write_profile(table, "2")

    def test_length_mismatch(self):
        table = ProfileTable()
        table.add("a", np.array([1, 2]))
        with pytest.raises(ValueError, match="length"):
            table.add("b", np.array([1]))

    def test_round_trip(self):
        table = ProfileTable()
        table.add("index", np.arange(4))
        table.add("h", np.array([0.1, 1 / 3, 0.0, 2.5e-13]), entropy=True)
        table.add("p", np.array([0.25, 0.5, 1.0, 0.0]))
        text = write_profile(table)
        again = read_profile(text)
        assert write_profile(again) == text
        assert [name for name, _ in again.columns] == ["index", "h", "p"]
        assert again.columns[0][1].dtype.kind == "i"

    def test_read_rejects_ragged(self):
        with pytest.raises(DataFormatError, match="cells"):
            read_profile("a\tb\n1\n")
