"""Schema, CSV, and decision-list serialization round trips and diagnostics."""
from __future__ import annotations

import csv
import dataclasses
import json
import re
import tracemalloc
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from regimelist.domain import (
    BINARY,
    CATEGORICAL,
    REAL,
    CharacteristicSpec,
    Dataset,
    DecisionList,
    Pattern,
    Predicate,
)
from regimelist import io
from regimelist.errors import ValidationError
from regimelist.estimation import DRScoreMatrix
from regimelist.io import (
    DataSchema,
    decision_list_from_dict,
    decision_list_to_dict,
    format_decision_list,
    read_dataset,
    read_json,
    read_schema,
    read_scores,
    write_dataset_csv,
    write_json,
    write_schema,
)
from regimelist.synth import default_generator_spec, generate

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
        {"characteristics": [{"name": "smoker", "kind": "binary", "cost": 1.0, "levels": "ab"}]},
        {"characteristics": [{"name": "age", "kind": "real", "cost": "1"}]},
        {"characteristics": [{"name": "age", "kind": "real", "cost": True}]},
        {"treatments": {"a": 5.0, "b": "2"}},
        {"characteristics": [{"name": "smoker", "kind": "binary", "cost": 1.0,
                              "levels": ["a", 2]}]},
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

    def test_write_matches_csv_writer_rows(self, tmp_path):
        # every name csv.writer must quote, or writes bare, and reals whose
        # repr is signed, exponent-form, subnormal or the largest double,
        # against the row-by-row csv.writer output
        names = ("a,b", 'say "x"', "cr\rhere", "lf\nhere", " lead", "", "plain")
        reals = np.array([-0.0, 1e-05, 5e-324, 1e16, 1.7976931348623157e308, 0.5, -2.25])
        specs = (CharacteristicSpec("x,1", REAL, 1.0),
                 CharacteristicSpec("level", CATEGORICAL, 1.0, names),
                 CharacteristicSpec(" y", BINARY, 1.0, ("", "no")))
        codes = np.arange(len(names))
        ds = Dataset(specs, names, np.ones(len(names)),
                     (reals, codes, codes % 2), codes[::-1].copy(), reals[::-1].copy())
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([s.name for s in specs] + ["treatment", "outcome"])
        for i in range(len(names)):
            writer.writerow([repr(float(reals[i])), names[codes[i]], ("", "no")[codes[i] % 2],
                             names[codes[::-1][i]], repr(float(reals[::-1][i]))])
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_write_in_blocks_matches_csv_writer_rows(self, tmp_path, extra):
        # rows around the CSV_BLOCK boundary: no row lost, doubled or joined
        rng = np.random.default_rng(3 + extra)
        ds = random_dataset(rng, n_subjects=io.CSV_BLOCK + extra)
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        buf = StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([s.name for s in ds.specs] + ["treatment", "outcome"])
        for i in range(ds.n_subjects):
            writer.writerow([repr(float(col[i])) if s.kind == REAL else s.levels[col[i]]
                             for s, col in zip(ds.specs, ds.columns)]
                            + [ds.treatment_names[ds.treatments[i]], repr(float(ds.outcomes[i]))])
        assert path.read_bytes() == buf.getvalue().encode("utf-8")

    def test_read_peak_does_not_grow_with_the_file(self, tmp_path):
        # the file is read a piece at a time straight into the dataset's
        # columns, so beyond them a read peaks at one piece, its parse and
        # the scan's temporaries whatever the file's size: holding the
        # file's bytes would add 8.4 MB more at 80,000 subjects than at
        # 20,000.  The previous piece's table is let go before the next piece
        # is read, which keeps the peak near 2.1 MiB with 1 MiB pieces;
        # keeping it until the next table is parsed made it 2.9 MiB
        path = tmp_path / "data.csv"
        extra = []
        for n in (20_000, 80_000):
            gspec = default_generator_spec(n_subjects=n, seed=0)
            ds, _ = generate(gspec)
            schema = DataSchema(gspec.specs, gspec.treatment_names,
                                tuple(float(c) for c in gspec.treatment_costs))
            write_dataset_csv(ds, path)
            tracemalloc.start()
            try:
                back = read_dataset(path, schema)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert_same_dataset(back, ds)
            extra.append(peak - sum(col.nbytes for col in (*back.columns, back.treatments,
                                                            back.outcomes)))
        assert extra[1] < 1.1 * extra[0]
        assert extra[1] < 2.5 * io.SCAN_BLOCK

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


# an unused column too, read by both paths only for its cell count
PLAIN = ("age,smoker,treatment,outcome,note\n"
         "34.0,yes,a,10.0,x\n"
         "50.5,no,b,-2.5,y\n")


def fast_path(path: Path, schema: DataSchema) -> Dataset | None:
    """What read_dataset's typed numpy passes alone make of a file: its
    dataset, or None where they decline or raise."""
    try:
        return io._read_plain(path, schema)
    except Exception:
        return None


def exact_path(path: Path, schema: DataSchema) -> Dataset | str:
    """The csv.reader path's dataset, or its error message."""
    try:
        return io._read_exact(path, schema)
    except ValidationError as e:
        return str(e)


def assert_same_dataset(a: Dataset, b: Dataset) -> None:
    for x, y in zip((*a.columns, a.treatments, a.outcomes),
                    (*b.columns, b.treatments, b.outcomes)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def assert_paths_agree(path: Path, schema: DataSchema) -> bool:
    """The fast path yields the exact path's dataset bitwise or declines,
    and read_dataset gives the exact path's dataset or message; returns
    whether the fast path took the file."""
    exact, fast = exact_path(path, schema), fast_path(path, schema)
    if isinstance(exact, str):
        assert fast is None, f"fast path accepts a file the exact path refuses: {exact}"
        with pytest.raises(ValidationError) as exc:
            read_dataset(path, schema)
        assert str(exc.value) == exact
    else:
        if fast is not None:
            assert_same_dataset(fast, exact)
        assert_same_dataset(read_dataset(path, schema), exact)
    return fast is not None


def edit_cell(text: str, row: int, column: str, cell: str) -> str:
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[lines[0].split(",").index(column)] = cell
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def random_datasets_agree(path: Path) -> None:
    """Random datasets of full-precision doubles across the exponent range,
    subnormals too, round-trip through the fast path bitwise."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        ds = random_dataset(rng, n_subjects=int(rng.integers(1, 60)))
        reals = [rng.normal(size=ds.n_subjects) * 10.0 ** rng.integers(-320, 300,
                                                                       ds.n_subjects)
                 for _ in ds.columns]
        ds = Dataset(ds.specs, ds.treatment_names, ds.treatment_costs,
                     tuple(r if s.kind == REAL else c
                           for s, c, r in zip(ds.specs, ds.columns, reals)),
                     ds.treatments, reals[0])
        schema = DataSchema(ds.specs, ds.treatment_names,
                            tuple(ds.treatment_costs.tolist()))
        write_dataset_csv(ds, path)
        assert assert_paths_agree(path, schema)
        assert_same_dataset(read_dataset(path, schema), ds)


def random_cell_edits_agree(path: Path) -> None:
    """One cell at a time replaced by a short string of characters each
    path treats in its own way; the fast path may decline, never differ."""
    alphabet = list("0123456789.eE+-_ #,abfinosy\"") + [
        "\n", "\r", "\t", "\x00", "\x0b", "\x1c", "\x85", "\xa0", "\u3000",
        "\u0661", "\u00e9", "yes", "no", "nan", "inf"]
    rng = np.random.default_rng(12)
    header = PLAIN.split("\n")[0].split(",")
    taken = 0
    for _ in range(300):
        cell = "".join(rng.choice(alphabet, size=int(rng.integers(0, 5))))
        column = header[int(rng.integers(len(header)))]
        path.write_bytes(edit_cell(PLAIN, int(rng.integers(1, 3)), column,
                                   cell).encode("utf-8"))
        taken += assert_paths_agree(path, SCHEMA)
    assert taken > 0


class TestFastPathAgreesWithExactPath:
    """read_dataset parses a plain file with one np.loadtxt call per piece
    and falls back to csv.reader for everything else; the two must never
    differ."""

    @pytest.mark.parametrize("column, cell, taken", [
        ("age", " 34.0 ", True),
        # float() strips the Unicode spaces; loadtxt fails on them, so the file is declined
        ("age", "\u30001.5\xa0", False),
        ("age", "1e-400", True),
        ("age", "-0.0", True),
        ("age", "nan", False),
        ("outcome", "inf", False),
        ("age", "1e400", False),
        ("age", "1_000", False),
        ("age", "0x1p3", False),
        ("age", "\u0661\u0662", False),
        ("age", "", False),
        ("outcome", "   ", False),
        ("age", "\t34.0", False),
        ("age", "\x1c34.0", False),
        ("age", "34.0#1", False),
        ("age", '"34.0"', False),
        ("age", '"34.0\n"', False),
        ("smoker", " yes", False),
        ("smoker", "yes ", False),
        ("smoker", "yes#", False),
        ("smoker", "maybe", False),
        ("smoker", "yesyes", False),
        # one byte longer than "yes" fills the 4-byte field, and matches nothing
        ("smoker", "yesx", False),
        ("treatment", "ab", False),
        ("smoker", "yes\x00", False),
        ("treatment", "b\x00", False),
        ("treatment", "c", False),
        ("note", "#x", True),
        ("note", "n\u00f8te \U0001f600", True),
        ("note", "a long unused cell", True),
        ("note", '"quoted, note"', False),
    ])
    def test_cell(self, tmp_path, column, cell, taken):
        path = tmp_path / "data.csv"
        path.write_bytes(edit_cell(PLAIN, 2, column, cell).encode("utf-8"))
        assert assert_paths_agree(path, SCHEMA) == taken

    @pytest.mark.parametrize("name, text, taken", [
        ("plain", PLAIN, True),
        ("no final newline", PLAIN[:-1], True),
        ("one record", PLAIN.split("\n", 2)[0] + "\n" + PLAIN.split("\n")[1], True),
        ("CRLF", PLAIN.replace("\n", "\r\n"), False),
        ("blank line", PLAIN.replace("x\n", "x\n\n"), False),
        ("blank last line", PLAIN + "\n", False),
        ("whitespace-only line", PLAIN + "   \n", False),
        ("ragged long row", PLAIN.replace(",x\n", ",x,z\n"), False),
        ("ragged short row", PLAIN.replace(",x\n", "\n"), False),
        ("header only", PLAIN.split("\n")[0] + "\n", False),
        ("empty file", "", False),
        ("BOM", "\ufeff" + PLAIN, False),
        ("duplicate column", PLAIN.replace(",note", ",age"), False),
        ("missing column", PLAIN.replace("treatment", "arm"), False),
        # loadtxt's default comments='#' would cut these rows short
        ("# in the last number", "age,smoker,treatment,outcome\n34.0,yes,a,10.0#1\n", False),
        ("# in the last level", "age,treatment,outcome,smoker\n34.0,a,1.0,yes#no\n", False),
        ("quoted comma for a missing cell",
         "age,smoker,treatment,outcome,note,more\n34.0,yes,a,10.0,\"x,\"\n", False),
    ])
    def test_layout(self, tmp_path, name, text, taken):
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        assert assert_paths_agree(path, SCHEMA) == taken

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(edit_cell(PLAIN, 1, "note", "caf\xe9").encode("latin-1"))
        assert not assert_paths_agree(path, SCHEMA)
        with pytest.raises(ValidationError, match="not UTF-8"):
            read_dataset(path, SCHEMA)

    def test_non_ascii_levels_and_treatments(self, tmp_path):
        schema = DataSchema(
            specs=(SPECS[0], CharacteristicSpec("smoker", BINARY, 1.0, ("nej", "j\u00e4"))),
            treatment_names=("\u00e5", "b\U0001f600"),
            treatment_costs=(5.0, 7.0),
        )
        path = tmp_path / "data.csv"
        path.write_text("age,smoker,treatment,outcome\n34.0,j\u00e4,b\U0001f600,1.0\n"
                        "35.0,nej,\u00e5,2.0\n", encoding="utf-8")
        assert assert_paths_agree(path, schema)
        assert read_dataset(path, schema).treatments.tolist() == [1, 0]

    def test_non_ascii_level_in_an_ascii_file(self, tmp_path):
        # an ASCII file's cells are bytes, compared with each name's UTF-8
        schema = DataSchema(
            specs=(SPECS[0], CharacteristicSpec("smoker", BINARY, 1.0, ("yes", "n\u00f6"))),
            treatment_names=("a", "b"),
            treatment_costs=(5.0, 7.0),
        )
        path = tmp_path / "data.csv"
        path.write_text(PLAIN.replace(",no,", ",yes,"))
        assert assert_paths_agree(path, schema)
        assert read_dataset(path, schema).columns[1].tolist() == [0, 0]
        path.write_text(PLAIN)
        assert not assert_paths_agree(path, schema)

    def test_non_ascii_file_peak_is_the_ascii_files(self, tmp_path):
        # a non-ASCII file's level and treatment cells are bytes fields, as
        # an ASCII file's are: decoding it whole and parsing 4-byte
        # characters peaked at 3.4 times its bytes, against 2.0 for ASCII
        gspec = default_generator_spec(n_subjects=20_000, seed=0)
        ds, _ = generate(gspec)

        def accented(name):
            return name.replace("e", "\u00e9", 1).replace("o", "\u00f6", 1)

        ratios = []
        for specs, names in [(ds.specs, ds.treatment_names),
                             (tuple(dataclasses.replace(s, levels=tuple(map(accented, s.levels)))
                                    for s in ds.specs),
                              tuple(map(accented, ds.treatment_names)))]:
            schema = DataSchema(specs, names, tuple(map(float, ds.treatment_costs)))
            path = tmp_path / "data.csv"
            write_dataset_csv(dataclasses.replace(ds, specs=specs, treatment_names=names), path)
            assert assert_paths_agree(path, schema)
            tracemalloc.start()
            try:
                read_dataset(path, schema)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            ratios.append(peak / path.stat().st_size)
        assert not path.read_bytes().isascii()
        assert ratios[1] <= 1.1 * ratios[0]

    @pytest.mark.parametrize("block", [4, 5, 7, 64])
    def test_utf8_check_by_pieces_agrees_with_decode(self, monkeypatch, block):
        # decoding by steps that may cut a character fails exactly when the whole does
        monkeypatch.setattr(io, "SCAN_BLOCK", block)
        rng = np.random.default_rng(block)
        chars = list("a,\n\u00e9\u0800\U0001f600")
        for _ in range(400):
            data = bytearray("".join(rng.choice(chars, size=int(rng.integers(0, 16))))
                             .encode("utf-8"))
            if data and rng.random() < 0.5:
                data[int(rng.integers(len(data)))] = int(rng.integers(256))
            data = bytes(data)
            try:
                data.decode("utf-8")
                valid = True
            except UnicodeDecodeError:
                valid = False
            try:
                io._check_utf8(data)
                checked = True
            except UnicodeDecodeError:
                checked = False
            assert checked == valid, data

    @pytest.mark.parametrize("cell, taken", [("bbb", True), ("bbbb", False), ("bb", False)])
    def test_treatment_name_at_the_field_width(self, tmp_path, cell, taken):
        # the treatment field is one byte wider than "bbb", the longest name
        schema = DataSchema(specs=SPECS, treatment_names=("a", "bbb"),
                            treatment_costs=(5.0, 7.0))
        path = tmp_path / "data.csv"
        path.write_text(edit_cell(PLAIN, 2, "treatment", cell))
        assert assert_paths_agree(path, schema) == taken
        if taken:
            assert read_dataset(path, schema).treatments.tolist() == [0, 1]

    def test_name_ending_in_nul(self, tmp_path):
        # numpy strings drop trailing NULs, so "b" would equal "b\x00"
        schema = DataSchema(specs=SPECS, treatment_names=("a", "b\x00"),
                            treatment_costs=(5.0, 7.0))
        path = tmp_path / "data.csv"
        path.write_text(PLAIN)
        assert not assert_paths_agree(path, schema)

    def test_numeric_cell_beyond_the_field_limit(self, tmp_path):
        # csv.reader refuses a field over 131,072 characters; loadtxt would
        # read this one as 1.0, so the fast path must decline the file
        path = tmp_path / "data.csv"
        path.write_text(edit_cell(PLAIN, 1, "age", "1." + "0" * 131_071))
        exact = exact_path(path, SCHEMA)
        assert isinstance(exact, str) and "field larger than field limit" in exact
        assert not assert_paths_agree(path, SCHEMA)

    def test_random_datasets_take_the_fast_path_bitwise(self, tmp_path):
        random_datasets_agree(tmp_path / "data.csv")

    def test_random_cell_edits(self, tmp_path):
        random_cell_edits_agree(tmp_path / "data.csv")

    @pytest.mark.parametrize("block", [7, 64, 1000])
    def test_random_datasets_in_pieces(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(io, "SCAN_BLOCK", block)
        random_datasets_agree(tmp_path / "data.csv")

    @pytest.mark.parametrize("block", [7, 64, 1000])
    def test_random_cell_edits_in_pieces(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(io, "SCAN_BLOCK", block)
        random_cell_edits_agree(tmp_path / "data.csv")

    @pytest.mark.parametrize("block", [7, 64])
    def test_line_longer_than_a_piece(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(io, "SCAN_BLOCK", block)
        path = tmp_path / "data.csv"
        for row in (1, 2):
            text = edit_cell(PLAIN, row, "note", "x" * (3 * block))
            for data in (text, text[:-1]):  # with and without a final LF
                path.write_text(data)
                assert assert_paths_agree(path, SCHEMA)

    @pytest.mark.parametrize("block", [7, 64])
    def test_multibyte_characters_next_to_a_cut(self, tmp_path, monkeypatch, block):
        # every offset of 2-, 3- and 4-byte characters from a block's end,
        # and lines that start with one right after a cut
        monkeypatch.setattr(io, "SCAN_BLOCK", block)
        path = tmp_path / "data.csv"
        for pad in range(block + 1):
            path.write_text("note,age,smoker,treatment,outcome\n"
                            f"{'p' * pad}\u00e9\u0800,34.0,yes,a,10.0\n"
                            "\U0001f600\u00e9,50.5,no,b,-2.5\n"
                            "\u0800x,1.0,no,a,3.0", encoding="utf-8")
            assert assert_paths_agree(path, SCHEMA)

    @pytest.mark.parametrize("block", [7, 64, 1000])
    @pytest.mark.parametrize("fault, problem", [
        ("blank", "line 101: expected 5 cells, got 0"),
        ("ragged", "line 101: expected 5 cells, got 6"),
        ("level", "line 101, column 'smoker': 'maybe' is not one of"),
    ])
    def test_fault_in_a_later_piece(self, tmp_path, monkeypatch, block, fault, problem):
        monkeypatch.setattr(io, "SCAN_BLOCK", block)
        header, *rows = PLAIN.rstrip("\n").split("\n")
        lines = [header] + rows * 60
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n")
        assert assert_paths_agree(path, SCHEMA)
        # file line 101 starts a few pieces after the first
        assert len("\n".join(lines[:100])) > 1.5 * block
        lines[100] = {"blank": "", "ragged": lines[100] + ",z",
                      "level": lines[100].replace(",no,", ",maybe,")}[fault]
        path.write_text("\n".join(lines) + "\n")
        assert not assert_paths_agree(path, SCHEMA)
        with pytest.raises(ValidationError) as exc:
            read_dataset(path, SCHEMA)
        assert problem in str(exc.value)

    def test_a_piece_of_blank_lines_warns_nothing(self, tmp_path, monkeypatch):
        # the records fill the first piece, so the second holds blank lines
        # alone, on which loadtxt would warn "input contained no data"
        monkeypatch.setattr(io, "SCAN_BLOCK", len(PLAIN) - PLAIN.index("\n") - 1)
        path = tmp_path / "data.csv"
        path.write_text(PLAIN + "\n\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match="line 4: expected 5 cells, got 0"):
                read_dataset(path, SCHEMA)
        assert caught == []

    def test_dataset_holds_no_view_of_the_parse(self, tmp_path):
        # a view of a parsed column would keep the whole parse alive
        path = tmp_path / "data.csv"
        path.write_text(PLAIN)
        ds = read_dataset(path, SCHEMA)
        for col in (*ds.columns, ds.treatments, ds.outcomes):
            assert col.base is None and col.flags.c_contiguous


class TestCompactCodes:
    def test_generate_and_both_paths_agree_on_dtypes_and_bytes(self, tmp_path):
        gspec = default_generator_spec(n_subjects=3000, seed=4)
        ds, _ = generate(gspec)
        schema = DataSchema(gspec.specs, gspec.treatment_names,
                            tuple(float(c) for c in gspec.treatment_costs))
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        fast, exact = fast_path(path, schema), exact_path(path, schema)
        assert fast is not None
        assert_same_dataset(fast, ds)
        assert_same_dataset(exact, ds)
        assert {col.dtype for s, col in zip(ds.specs, ds.columns)
                if s.kind != REAL} | {ds.treatments.dtype} == {np.dtype(np.uint8)}

    def test_300_levels_take_two_byte_codes_and_round_trip(self, tmp_path):
        levels = tuple(f"z{k}" for k in range(300))
        specs = (CharacteristicSpec("age", REAL, 1.0),
                 CharacteristicSpec("zone", CATEGORICAL, 1.0, levels))
        rng = np.random.default_rng(5)
        n = 2000
        zones = [levels[k] for k in rng.permutation(np.arange(n) % 300)]
        ds = Dataset.from_columns(specs, ("a", "b"), (1.0, 2.0),
                                  [rng.normal(size=n), zones],
                                  ["ab"[k] for k in rng.integers(0, 2, n)], rng.normal(size=n))
        assert ds.columns[1].dtype == np.uint16 and ds.columns[1].max() == 299
        assert ds.columns[1].tolist() == [levels.index(z) for z in zones]
        assert ds.treatments.dtype == np.uint8
        schema = DataSchema(specs, ("a", "b"), (1.0, 2.0))
        path = tmp_path / "data.csv"
        write_dataset_csv(ds, path)
        assert fast_path(path, schema) is not None
        assert_same_dataset(read_dataset(path, schema), ds)
        assert_same_dataset(exact_path(path, schema), ds)


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

    @pytest.mark.parametrize("threshold, text", [
        (36.99972112856195, "36.99972112856195"),
        (123456789.0, "123456789"),
    ])
    def test_pretty_print_real_threshold_exactly(self, threshold, text):
        dl = DecisionList(rules=((Pattern((Predicate(0, ">=", threshold),)), 1),),
                          default_treatment=0)
        line = format_decision_list(dl, SPECS, ("a", "b")).splitlines()[0]
        assert line == f"if age >= {text} then b"
        assert float(line.split()[3]) == threshold

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

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_score_matrix_bytes_match_json_dumps(self, tmp_path, m):
        rng = np.random.default_rng(m)
        special = [-0.0, 1e-05, 5e-324, 1e16, 1.7976931348623157e308, -1.5, 0.0]
        scores = rng.normal(size=(40, m)) * 10.0 ** rng.integers(-8, 9, size=(40, m))
        scores.flat[:len(special)] = special[:scores.size]
        obj = {"treatment_names": ["\u00e5rm", "b\U0001f600", "c\"\\"][:m],
               "scores": scores.tolist()}
        path = tmp_path / "scores.json"
        write_json(obj, path)
        assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("utf-8")

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [io.ROW_BLOCK - 1, io.ROW_BLOCK, io.ROW_BLOCK + 1])
    def test_score_array_bytes_match_json_dumps(self, tmp_path, n, m):
        # an ndarray is written a block of rows at a time, as json writes
        # its tolist(); special values at both ends, so in the last block too
        rng = np.random.default_rng(n * 4 + m)
        special = [-0.0, 5e-324, 1e16, 1.7976931348623157e308]
        scores = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 9, size=(n, m))
        scores.flat[:len(special)] = special
        scores.flat[-len(special):] = special
        obj = DRScoreMatrix(scores, ("\u00e5rm", "b\U0001f600", "c\"\\")[:m]).to_dict()
        path = tmp_path / "scores.json"
        write_json(obj, path)
        expected = json.dumps({**obj, "scores": scores.tolist()}, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("array", [
        np.array([[1.0, float("nan")], [float("inf"), 2.0]]), np.arange(6).reshape(2, 3),
        np.zeros((0, 2)), np.zeros((2, 0)), np.array([0.5, -0.0]), np.array(1.5),
        np.array([[0.1, 3e38]], dtype=np.float32), np.array([[True], [False]]),
    ])
    def test_other_arrays_bytes_match_json_dumps(self, tmp_path, array):
        path = tmp_path / "x.json"
        write_json({"a": array, "b": [1.5, {"c": None}]}, path)
        expected = json.dumps({"a": array.tolist(), "b": [1.5, {"c": None}]}, indent=2) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
        write_json(array, path)
        assert path.read_bytes() == (json.dumps(array.tolist(), indent=2) + "\n").encode("utf-8")

    @pytest.mark.parametrize("obj", [
        {"a": np.zeros((2, 2)), "b": [np.zeros((2, 2))]},
        {"a": {"b": np.zeros(2)}}, [np.zeros((2, 2))], {1: np.zeros(2)},
    ])
    def test_nested_array_raises_type_error(self, tmp_path, obj):
        # only an ndarray that is obj, or a value of a str-keyed obj, is laid out
        with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
            write_json(obj, tmp_path / "x.json")

    def test_score_matrix_write_holds_no_copy_of_it(self, tmp_path):
        # neither the matrix as Python floats nor the file's text is held
        # whole, so the write's peak stays below the matrix's own bytes
        scores = np.random.default_rng(4).normal(size=(40_000, 3))
        obj = DRScoreMatrix(scores, ("a", "b", "c")).to_dict()
        tracemalloc.start()
        try:
            write_json(obj, tmp_path / "scores.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < scores.nbytes
        assert np.array_equal(read_json(tmp_path / "scores.json")["scores"], scores)

    @pytest.mark.parametrize("obj", [
        {"a": [1.0, float("nan")], "b": [[float("inf"), 1.0]], "c": [[1.0], []]},
        {"n": None, "t": True, "i": [1, 2.0], "e": [], "d": {}, "s": "\u00fc"},
        {"tuple": (1.0, 2.0), "np": [np.float64(0.1)], "deep": [{"x": [[0.5]]}]},
        {1: 2.0, "k": 3}, [], {}, [[]], 1.5, float("-inf"), "text", None,
    ])
    def test_any_value_bytes_match_json_dumps(self, tmp_path, obj):
        path = tmp_path / "x.json"
        write_json(obj, path)
        assert path.read_bytes() == (json.dumps(obj, indent=2) + "\n").encode("utf-8")

    def test_invalid_json_diagnostic(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(ValidationError, match="invalid JSON"):
            read_json(path)


def json_scores(path: Path) -> DRScoreMatrix | str:
    """The read_json path's score matrix, or its error message."""
    try:
        return DRScoreMatrix.from_dict(read_json(path))
    except ValidationError as e:
        return str(e)


def chunked_scores(path: Path) -> DRScoreMatrix | None:
    """What read_scores' chunked pass alone makes of a file: its matrix, or
    None where it raises."""
    try:
        return DRScoreMatrix.from_dict(io._plain_scores(path.read_bytes()))
    except Exception:
        return None


def assert_same_scores(a: DRScoreMatrix, b: DRScoreMatrix) -> None:
    assert a.treatment_names == b.treatment_names
    assert a.scores.dtype == b.scores.dtype and a.scores.shape == b.scores.shape
    assert a.scores.tobytes() == b.scores.tobytes()


def assert_score_paths_agree(path: Path) -> bool:
    """The chunked pass yields the read_json path's matrix bitwise or
    declines, and read_scores gives that path's matrix or message; returns
    whether the chunked pass took the file."""
    want, chunked = json_scores(path), chunked_scores(path)
    if isinstance(want, str):
        assert chunked is None, f"chunked pass accepts a file read_json refuses: {want}"
        with pytest.raises(ValidationError) as exc:
            read_scores(path)
        assert str(exc.value) == want
    else:
        if chunked is not None:
            assert_same_scores(chunked, want)
        assert_same_scores(read_scores(path), want)
    return chunked is not None


def score_record(n: int, m: int = 2, names: tuple[str, ...] = ()) -> dict:
    rng = np.random.default_rng(n * 8 + m)
    scores = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 9, size=(n, m))
    scores.flat[:4] = [-0.0, 5e-324, 1e16, 1.7976931348623157e308][:scores.size]
    return {"treatment_names": list(names or (f"t{k}" for k in range(m))),
            "scores": scores.tolist()}


def rows_text(rows: list) -> str:
    return "[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"


B = io.ROW_BLOCK


def edited_rows(edit) -> str:
    """A file of B + 3 rows, after ``edit`` changed them in place."""
    record = score_record(B + 3)
    edit(record["scores"])
    return json.dumps(record, indent=2)


class TestScoresReaderAgreesWithJson:
    """read_scores parses the rows of a last "scores" key ROW_BLOCK at a
    time and falls back to read_json for everything else; the two must never
    differ, in the matrix's bits or in the error message."""

    @pytest.mark.parametrize("name, text, taken", [
        ("indent=2, as write_json writes it", json.dumps(score_record(B + 7), indent=2) + "\n",
         True),
        ("compact", json.dumps(score_record(50)), True),
        ("indent=4", json.dumps(score_record(50), indent=4), True),
        ("scores first", json.dumps(dict(reversed(score_record(50).items()))), False),
        ("duplicate key, last wins",
         '{"scores": 1, ' + json.dumps(score_record(50))[1:], True),
        ("duplicate key, first is the matrix",
         json.dumps(score_record(50))[:-1] + ', "scores": 1}', False),
        ("escaped key", json.dumps(score_record(5)).replace('"scores"', '"\\u0073cores"'),
         False),
        ("names holding [ ] , and the key",
         json.dumps(score_record(50, 4, ("[a", "b]", "c,d", '"scores": [')), indent=2), True),
        ("name ending in the key",
         json.dumps(score_record(50, 2, ('x"scores', "y")), indent=2), True),
        ("later key ending in the key",
         '{"treatment_names": ["a"], "scores": [[1]], "x\\"scores": [[2]]}', False),
        ("later key ending in the key, no matrix",
         '{"scores": [], "x\\"scores": [[2]], "treatment_names": ["a"]}', False),
        ("spaced key", json.dumps(score_record(50)).replace('"scores": ', '"scores" \r\n:\t'),
         True),
        ("CRLF", json.dumps(score_record(50), indent=1).replace("\n", "\r\n"), True),
        ("integer and exponent cells",
         '{"treatment_names": ["a", "b"], "scores": [[1, -0], [2e3, 1E-5], '
         '[12345678901234567890, 1.5e308], [true, 7]]}', True),
        ("string cell", '{"treatment_names": ["a"], "scores": [["1.5"], [2]]}', True),
        ("empty names and rows", '{"treatment_names": [], "scores": [[], []]}', True),
        ("one row", json.dumps(score_record(1)), True),
        (f"{B - 1} rows", json.dumps(score_record(B - 1), indent=2), True),
        (f"{B} rows", json.dumps(score_record(B), indent=2), True),
        (f"{B + 1} rows", json.dumps(score_record(B + 1), indent=2), True),
        # malformed files
        ("doubled comma at the block boundary",
         '{"treatment_names": ["a", "b"], "scores": '
         + rows_text(score_record(B + 1)["scores"]).replace("],\n", "],,\n").replace(
             "],,\n", "],\n", B - 1) + "}", False),
        ("missing comma at the block boundary",
         '{"treatment_names": ["a", "b"], "scores": '
         + rows_text(score_record(B + 1)["scores"]).replace("],\n", "] \n").replace(
             "] \n", "],\n", B - 1) + "}", False),
        ("trailing comma",
         json.dumps(score_record(5))[:-2] + ",]}", False),
        ("ragged row in the first block", edited_rows(lambda rows: rows[B - 5].pop()), False),
        ("ragged row after the block boundary",
         edited_rows(lambda rows: rows[B + 1].pop()), False),
        ("narrower rows after the block boundary",
         edited_rows(lambda rows: [row.pop() for row in rows[B:]]), False),
        ("nested row", '{"treatment_names": ["a", "b"], "scores": [[1, 2], [[3], [4]]]}', False),
        ("row holding ]", '{"treatment_names": ["a", "b"], "scores": [[1, 2], ["]", 4]]}',
         False),
        ("NaN", '{"treatment_names": ["a", "b"], "scores": [[1, 2], [NaN, 3]]}', False),
        ("400-digit integer",
         '{"treatment_names": ["a"], "scores": [[' + "9" * 400 + "]]}", False),
        ("5000-digit integer",
         '{"treatment_names": ["a"], "scores": [[' + "9" * 5000 + "]]}", False),
        ("no rows", '{"treatment_names": ["a"], "scores": []}', False),
        ("flat list", '{"treatment_names": ["a"], "scores": [1, 2]}', False),
        ("too few names", '{"treatment_names": ["a"], "scores": [[1, 2]]}', False),
        ("no names", '{"scores": [[1, 2]]}', False),
        ("text after the object", json.dumps(score_record(5)) + " x", False),
        ("unclosed object", json.dumps(score_record(5))[:-1], False),
        ("BOM", "\ufeff" + json.dumps(score_record(5)), False),
        ("top-level list", "[" + json.dumps(score_record(5)) + "]", False),
        ("deep names", '{"treatment_names": ' + "[" * 100_000 + "]" * 100_000
         + ', "scores": [[1]]}', False),
    ])
    def test_layout(self, tmp_path, name, text, taken):
        path = tmp_path / "scores.json"
        path.write_text(text, encoding="utf-8")
        assert assert_score_paths_agree(path) == taken

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "scores.json"
        for text in (b'{"treatment_names": ["caf\xe9"], "scores": [[1.0]]}',
                     b'{"treatment_names": ["a"], "scores": [[1.0], [\xe9]]}'):
            path.write_bytes(text)
            assert not assert_score_paths_agree(path)

    def test_random_matrices_round_trip_through_write_json(self, tmp_path):
        rng = np.random.default_rng(21)
        path = tmp_path / "scores.json"
        for n in (1, B // 2, 2 * B + 1, 3 * B):
            m = int(rng.integers(1, 5))
            scores = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-300, 300, size=(n, m))
            write_json(DRScoreMatrix(scores, tuple("abcd"[:m])).to_dict(), path)
            assert assert_score_paths_agree(path)
            assert read_scores(path).scores.tobytes() == scores.tobytes()

    def test_read_peak_is_the_file_and_the_matrix(self, tmp_path):
        # json.load would hold the text and a Python float per entry, about
        # seven matrices' worth at m = 3; the chunked pass holds the file's
        # bytes, the matrix, an index per row and one block of rows
        scores = np.random.default_rng(4).normal(size=(40_000, 3))
        path = tmp_path / "scores.json"
        write_json(DRScoreMatrix(scores, ("a", "b", "c")).to_dict(), path)
        tracemalloc.start()
        try:
            read = read_scores(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read.scores.tobytes() == scores.tobytes()
        assert peak < path.stat().st_size + 2 * scores.nbytes
