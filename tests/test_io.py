"""Schema, CSV, and decision-list serialization round trips and diagnostics."""
from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from regimelist.domain import (
    BINARY,
    CATEGORICAL,
    REAL,
    CharacteristicSpec,
    DecisionList,
    Pattern,
    Predicate,
)
from regimelist.errors import ValidationError
from regimelist.io import (
    DataSchema,
    decision_list_from_dict,
    decision_list_to_dict,
    format_decision_list,
    read_dataset,
    read_json,
    read_schema,
    write_dataset_csv,
    write_json,
    write_schema,
)
from regimelist.synth import default_generator_spec

from conftest import random_dataset, random_decision_list


SPECS = (
    CharacteristicSpec("age", REAL, 2.0),
    CharacteristicSpec("smoker", BINARY, 1.0, ("no", "yes")),
)
SCHEMA = DataSchema(
    specs=SPECS,
    treatment_names=("a", "b"),
    treatment_costs=(5.0, 7.0),
)


class TestSchema:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "schema.json"
        write_schema(SCHEMA, path)
        back = read_schema(path)
        assert back == SCHEMA

    def test_duplicate_feature_names_rejected(self):
        with pytest.raises(ValidationError):
            DataSchema(
                specs=(SPECS[0], SPECS[0]),
                treatment_names=("a",),
                treatment_costs=(1.0,),
            )


    @pytest.mark.parametrize("change", [
        {"treatments": []},
        {"characteristics": [{"name": "age", "kind": "real", "cost": "abc"}]},
        {"characteristics": [{"name": "age", "kind": "real", "cost": float("inf")}]},
        {"treatments": {"a": float("inf"), "b": 7.0}},
        {"treatments": {"a": 5.0, "b": -1.0}},
        {"treatments": {"a": 5.0, "b": float("nan")}},
        {"characteristics": [{"name": "age", "kind": "real", "cost": 10 ** 400}]},
        {"treatments": {"a": 5.0, "b": 10 ** 400}},
    ])
    def test_malformed_schema_rejected(self, change):
        with pytest.raises(ValidationError,
                           match="malformed schema|cost of .* must be finite and >= 0"):
            DataSchema.from_dict({**SCHEMA.to_dict(), **change})


class TestDatasetCSV:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = random_dataset(rng, n_subjects=30)
        schema = DataSchema(
            specs=ds.specs,
            treatment_names=ds.treatment_names,
            treatment_costs=tuple(float(c) for c in ds.treatment_costs),
        )
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        back = read_dataset(path, schema)
        for a, b in zip(back.columns, ds.columns):
            assert np.array_equal(a, b)
        assert np.array_equal(back.treatments, ds.treatments)
        assert np.array_equal(back.outcomes, ds.outcomes)

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n_subjects=20)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset_csv(ds, p1)
        write_dataset_csv(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_field_count_diagnostic_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,smoker,treatment,outcome\n34.0,yes,a\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_dataset(path, SCHEMA)

    def test_unknown_level_diagnostic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "age,smoker,treatment,outcome\n"
            "34.0,yes,a,10.0\n"
            "50.0,maybe,b,20.0\n"
        )
        with pytest.raises(ValidationError) as exc:
            read_dataset(path, SCHEMA)
        msg = str(exc.value)
        assert "line 3" in msg and "smoker" in msg

    def test_non_numeric_outcome_diagnostic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,smoker,treatment,outcome\n34.0,yes,a,oops\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_dataset(path, SCHEMA)

    def test_level_cell_quoted_verbatim(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "age,smoker,treatment,outcome\n"
            "34.0,yes,a,10.0\n"
            "50.0,row 5,b,20.0\n"
        )
        with pytest.raises(ValidationError) as exc:
            read_dataset(path, SCHEMA)
        assert "line 3, column 'smoker': 'row 5' is not one of" in str(exc.value)

    @pytest.mark.parametrize("cell", ["inf", "-inf", "1e400", "nan", "NaN"])
    @pytest.mark.parametrize("column", ["age", "outcome"])
    def test_non_finite_number_rejected(self, tmp_path, column, cell):
        cells = {"age": "34.0", "smoker": "yes", "treatment": "a", "outcome": "10.0"}
        cells[column] = cell
        path = tmp_path / "bad.csv"
        path.write_text("age,smoker,treatment,outcome\n34.0,no,b,1.0\n"
                        + ",".join(cells.values()) + "\n")
        with pytest.raises(ValidationError) as exc:
            read_dataset(path, SCHEMA)
        assert f"line 3, column {column!r}: non-finite value {cell!r}" in str(exc.value)

    @pytest.mark.parametrize("last_record, problem", [
        ("30.0,maybe,a,t1,5.0", "line 4, column 'smoker': 'maybe'"),
        ("30.0,no,a,t1", "line 4: expected 5 cells, got 4"),
    ])
    def test_line_counts_newlines_in_quoted_cells(self, tmp_path, last_record,
                                                  problem):
        schema = DataSchema(
            specs=SPECS + (CharacteristicSpec("grp", CATEGORICAL, 1.0, ("a", "b")),),
            treatment_names=("t0", "t1"),
            treatment_costs=(5.0, 7.0),
        )
        path = tmp_path / "bad.csv"
        path.write_text("age,smoker,grp,treatment,outcome\n"
                        '"34.0\n",yes,a,t0,10.0\n' + last_record + "\n")
        with pytest.raises(ValidationError) as exc:
            read_dataset(path, schema)
        assert problem in str(exc.value)

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,smoker,arm,outcome\n34.0,yes,a,10.0\n")
        with pytest.raises(ValidationError):
            read_dataset(path, SCHEMA)

    @pytest.mark.parametrize("header, row, dup", [
        ("age,smoker,treatment,outcome,age", "34.0,yes,a,10.0,51.0", "age"),
        ("age,age,smoker,treatment,outcome", "34.0,51.0,yes,a,10.0", "age"),
        ("age,smoker,treatment,outcome,note,note", "34.0,yes,a,10.0,x,y", "note"),
    ])
    def test_duplicate_column_rejected(self, tmp_path, header, row, dup):
        # mapping names to columns with a dict would let the last repeat win
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n" + row + "\n")
        with pytest.raises(ValidationError, match=f"line 1: duplicate column '{dup}'"):
            read_dataset(path, SCHEMA)


class TestDecisionListSerialization:
    def test_round_trip_random_lists(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = random_dataset(rng, n_subjects=10)
            dl = random_decision_list(rng, ds)
            d = decision_list_to_dict(dl, ds.specs, ds.treatment_names)
            back = decision_list_from_dict(d, ds.specs, ds.treatment_names)
            assert back == dl

    def test_dict_uses_names_not_indices(self):
        dl = DecisionList(
            rules=((Pattern((Predicate(1, "=", "yes"),)), 0),),
            default_treatment=1,
        )
        d = decision_list_to_dict(dl, SPECS, ("a", "b"))
        assert d["rules"][0]["pattern"][0]["feature"] == "smoker"
        assert d["rules"][0]["treatment"] == "a"
        assert d["default_treatment"] == "b"

    def test_unknown_feature_name_rejected(self):
        d = {
            "rules": [
                {
                    "pattern": [{"feature": "height", "op": "=", "value": "yes"}],
                    "treatment": "a",
                }
            ],
            "default_treatment": "a",
        }
        with pytest.raises(ValidationError):
            decision_list_from_dict(d, SPECS, ("a", "b"))

    def test_pretty_print_shape(self):
        dl = DecisionList(
            rules=(
                (Pattern((Predicate(0, ">=", 40.0), Predicate(1, "=", "yes"))), 1),
            ),
            default_treatment=0,
        )
        text = format_decision_list(dl, SPECS, ("a", "b"))
        lines = text.splitlines()
        assert lines[0] == "if age >= 40 and smoker = yes then b"
        assert lines[1] == "else a"

    def test_pretty_print_empty_list(self):
        dl = DecisionList(rules=(), default_treatment=1)
        assert format_decision_list(dl, SPECS, ("a", "b")) == "always b"

    def test_readme_example_is_a_valid_list(self):
        # the regime at the top of the README: every "name op value"
        # condition must name a characteristic of the default generator and
        # pass validation, and the listing must print back unchanged
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = re.search(r"```\n(if .*?)\n```", readme, re.S).group(1)
        gspec = default_generator_spec()
        index = {s.name: f for f, s in enumerate(gspec.specs)}
        *rule_lines, default_line = block.splitlines()
        rules = []
        for j, line in enumerate(rule_lines):
            m = re.fullmatch(("if" if j == 0 else "else if") + r" (.+) then (\w+)", line)
            predicates = []
            for condition in m.group(1).split(" and "):
                name, op, value = condition.split(" ")
                if gspec.specs[index[name]].kind == REAL:
                    value = float(value)
                predicate = Predicate(index[name], op, value)
                predicate.validate(gspec.specs)
                predicates.append(predicate)
            rules.append((Pattern(tuple(predicates)),
                          gspec.treatment_names.index(m.group(2))))
        default = gspec.treatment_names.index(default_line.removeprefix("else "))
        dl = DecisionList(rules=tuple(rules), default_treatment=default)
        assert format_decision_list(dl, gspec.specs, gspec.treatment_names) == block


class TestJsonHelpers:
    def test_write_json_ends_with_newline(self, tmp_path):
        path = tmp_path / "x.json"
        write_json({"a": 1}, path)
        assert path.read_text().endswith("\n")
        assert read_json(path) == {"a": 1}

    def test_invalid_json_diagnostic(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="invalid JSON"):
            read_json(path)
