"""File formats: dataset CSV + schema JSON, decision-list JSON, score
matrix JSON, pretty print.

The dataset lives in two files: a CSV with a header row, and a companion
schema JSON describing each characteristic column (kind, levels,
assessment cost) and the treatment -> cost map.  The treatment and outcome
columns are always named ``treatment`` and ``outcome``.
"""

from __future__ import annotations

import codecs
import csv
import json
import math
import re
from dataclasses import dataclass
from io import BytesIO, StringIO
from pathlib import Path
from typing import Sequence

import numpy as np

from .domain import (
    OUTCOME,
    REAL,
    TREATMENT,
    CharacteristicSpec,
    Dataset,
    DecisionList,
    Pattern,
    Predicate,
)
from .errors import CellError, ValidationError, malformed
from .estimation import DRScoreMatrix

# bytes per piece of a dataset CSV that read_dataset reads, and per step of
# a scan for one byte value; rows per piece that write_json makes of a 2-D
# ndarray and read_scores parses, and that write_dataset_csv formats and writes
SCAN_BLOCK = 1 << 20
ROW_BLOCK = 1024
CSV_BLOCK = 8192

# json's whitespace, and the text around the rows of a last "scores" key
_WS = rb"[ \t\n\r]*"
_SCORES_KEY = re.compile(rb'"scores"' + _WS + rb":" + _WS + rb"\[")
_ROW_SEP = re.compile(_WS + rb",")
_SCORES_END = re.compile(_WS + rb"\]" + _WS + rb"\}" + _WS)

@dataclass(frozen=True)
class DataSchema:
    """Companion schema for a dataset CSV."""

    specs: tuple[CharacteristicSpec, ...]
    treatment_names: tuple[str, ...]
    treatment_costs: tuple[float, ...]

    def __post_init__(self) -> None:
        names = [s.name for s in self.specs]
        if len(names) != len(set(names)):
            raise ValidationError("duplicate characteristic names in schema")
        if len(self.treatment_names) != len(set(self.treatment_names)):
            raise ValidationError("duplicate treatment names in schema")
        if len(self.treatment_costs) != len(self.treatment_names):
            raise ValidationError("treatment costs must match treatment names")
        for name, cost in zip(self.treatment_names, self.treatment_costs):
            if not 0 <= cost < math.inf:
                raise ValidationError(
                    f"cost of treatment {name!r} must be finite and >= 0, got {cost}")
        if {TREATMENT, OUTCOME} & set(names):
            raise ValidationError(
                "characteristic names collide with the treatment/outcome columns"
            )

    def to_dict(self) -> dict:
        chars = []
        for s in self.specs:
            entry: dict = {"name": s.name, "kind": s.kind, "cost": s.cost}
            if s.kind != REAL:
                entry["levels"] = list(s.levels)
            chars.append(entry)
        return {
            "characteristics": chars,
            "treatments": {n: c for n, c in zip(self.treatment_names, self.treatment_costs)},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DataSchema":
        with malformed("schema"):
            specs = []
            for c in d["characteristics"]:
                name = _typed(c["name"], "string", "a characteristic's name")
                levels = _typed(c.get("levels", []), "array", f"levels of {name!r}")
                specs.append(CharacteristicSpec(
                    name, c["kind"], float(_typed(c["cost"], "number", f"cost of {name!r}")),
                    tuple(_typed(level, "string", f"a level of {name!r}") for level in levels)))
            treatments = d["treatments"]
            names = tuple(treatments.keys())
            costs = tuple(float(_typed(treatments[n], "number", f"cost of treatment {n!r}"))
                          for n in names)
            return cls(
                specs=tuple(specs),
                treatment_names=names,
                treatment_costs=costs,
            )


_JSON_TYPES = {"string": str, "array": list, "number": (int, float)}


def _typed(value, json_type: str, field: str):
    """value, when it has the JSON type json_type (a bool is no number);
    otherwise a malformed-schema ValidationError that names the field."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[json_type]):
        raise ValidationError(f"malformed schema: {field} must be a JSON {json_type}, "
                              f"got {value!r}")
    return value


def read_schema(path: str | Path) -> DataSchema:
    return DataSchema.from_dict(read_json(path))


def write_schema(schema: DataSchema, path: str | Path) -> None:
    write_json(schema.to_dict(), path)


def read_dataset(csv_path: str | Path, schema: DataSchema) -> Dataset:
    """Load a dataset CSV and check it against its schema.

    A plain file (see ``_read_plain``) is parsed in typed numpy passes over
    pieces of about SCAN_BLOCK bytes, so neither its bytes nor its parse is
    ever held whole.  Any other file, and any file those passes or the cell
    checks refuse, is read again from the start by ``csv.reader``, which
    alone writes the diagnostics: they name the 1-based file line where the
    record starts (quoted cells may hold newlines) and the column, and quote
    the cell as written.
    """
    try:
        return _read_plain(csv_path, schema)
    except MemoryError:
        raise
    except Exception:  # the exact path below says what is wrong, if anything
        pass
    return _read_exact(csv_path, schema)


class _NotPlain(Exception):
    """Raised where a fast reader finds a file that it does not take."""


def _read_plain(csv_path: str | Path, schema: DataSchema) -> Dataset:
    """The dataset of a plain CSV file.  Any other file raises: _NotPlain
    where this pass finds it not plain, or what else refused it, such as a
    parse, a cell's conversion or a missing column's KeyError.

    Plain means: UTF-8 text with no quote and no control byte but LF, so no
    CR, no NUL (numpy strings drop trailing NULs) and none of the separators
    that loadtxt, unlike float(), strips as whitespace; no blank line and no
    line longer than csv's field limit; a header holding each column once
    and every needed one; and one record per line after it.

    The records are read twice: once SCAN_BLOCK bytes at a time by
    ``_cut``, which counts them and cuts them into pieces of whole lines,
    and once piece by piece.  Each piece is checked (``_check_piece``) and
    parsed by one ``np.loadtxt`` call, whose columns ``Dataset.from_blocks``
    converts into the dataset's own.  Real columns and the outcome parse as
    float64, every other column as a bytes (``S``) field one byte wider
    than its longest name's UTF-8, so a longer cell matches no name.
    loadtxt reads a piece as latin-1, so each cell keeps its UTF-8 bytes
    for ``_column`` to compare; a number cell holding non-ASCII text then
    holds a latin-1 letter and fails to parse.  loadtxt raises on a ragged
    row, and each piece must parse to one record per line.
    """
    limit = csv.field_size_limit()
    needed = _needed_columns(schema)
    names = {s.name: s.levels for s in schema.specs if s.kind != REAL}
    names[TREATMENT] = schema.treatment_names
    with open(csv_path, "rb") as fh:
        header = fh.readline(limit + 2)
        _check_piece(header, limit)
        cuts, n_records = _cut(fh, limit)
        header = header.decode("utf-8").removesuffix("\n").split(",")
        col_of = {name: k for k, name in enumerate(header)}
        if len(col_of) < len(header) \
                or any("\x00" in name for levels in names.values() for name in levels):
            raise _NotPlain
        formats = [f"S{max(len(name.encode()) for name in names[h]) + 1}" if h in names
                   else "f8" if h in needed else "S1" for h in header]
        dtype = {"names": [f"c{k}" for k in range(len(header))], "formats": formats}

        def block(piece: bytes):
            n_lines = _check_piece(piece, limit)
            table = _parse(piece, dtype)
            if table.shape != (n_lines,):
                raise _NotPlain
            *cells, treatments, outcomes = (table[f"c{col_of[name]}"] for name in needed)
            return cells, treatments, outcomes

        fh.seek(cuts[0])
        return Dataset.from_blocks(
            schema.specs, schema.treatment_names, schema.treatment_costs, n_records,
            (block(fh.read(stop - start)) for start, stop in zip(cuts, cuts[1:])))


def _cut(fh, limit: int) -> tuple[list[int], int]:
    """The offsets that cut the rest of a binary file into pieces of whole
    lines, and its number of lines.

    Read SCAN_BLOCK bytes at a time, a piece ends after the last LF of a
    block, or at the file's end, so it also holds whole UTF-8 characters.
    Only a line longer than a block makes a piece longer than one, so a
    piece longer than SCAN_BLOCK + limit starts with a line of more than
    limit bytes, and raises _NotPlain before any piece is read."""
    cuts = [pos := fh.tell()]
    n_lf, last = 0, ord("\n")
    buf = bytearray(SCAN_BLOCK)
    while size := fh.readinto(buf):
        n_lf += np.count_nonzero(np.frombuffer(buf, np.uint8, size) == ord("\n"))
        if cut := buf.rfind(b"\n", 0, size) + 1:
            cuts.append(pos + cut)
        pos, last = pos + size, buf[size - 1]
    if pos > cuts[-1]:
        cuts.append(pos)
    if max(np.diff(cuts), default=0) > SCAN_BLOCK + limit:
        raise _NotPlain
    return cuts, n_lf + (last != ord("\n"))


def _check_piece(piece: bytes, limit: int) -> int:
    """The number of lines in a piece of whole lines, once its bytes are
    plain (see ``_read_plain``): no quote, no control byte but LF, no blank
    line (loadtxt would warn on a piece of blank lines), no line longer than
    limit, and UTF-8."""
    u8 = np.frombuffer(piece, dtype=np.uint8)
    ends = np.flatnonzero(u8 < 0x20)  # all LFs, in a plain piece
    # the lines its LFs end, then what follows the last LF: a last line or b""
    lengths = np.diff(ends, prepend=-1, append=len(piece)) - 1
    if b'"' in piece or (u8[ends] != ord("\n")).any() \
            or lengths[:-1].min(initial=1) == 0 or lengths.max() > limit:
        raise _NotPlain
    if not piece.isascii():
        _check_utf8(piece)
    return ends.size + (lengths[-1] > 0)


def _parse(piece: bytes, dtype: dict) -> np.ndarray:
    """One np.loadtxt call on a piece of a plain file."""
    return np.loadtxt(BytesIO(piece), encoding="latin-1", ndmin=1, dtype=dtype,
                      delimiter=",", comments=None, quotechar=None)


def _check_utf8(data: bytes) -> None:
    """Raise UnicodeDecodeError unless data is UTF-8, decoding it a quarter
    of SCAN_BLOCK bytes at a time: a decode's text and buffers take up to
    twice the bytes it decodes."""
    decoder, view = codecs.getincrementaldecoder("utf-8")(), memoryview(data)
    step = max(1, SCAN_BLOCK // 4)
    for start in range(0, len(data), step):
        decoder.decode(view[start:start + step])
    decoder.decode(b"", final=True)


def _positions(u8: np.ndarray, byte: int) -> np.ndarray:
    """The indices of every ``byte`` in u8, found SCAN_BLOCK bytes at a time
    so the temporaries do not grow with u8."""
    return np.concatenate([np.empty(0, dtype=np.intp)] + [
        np.flatnonzero(u8[i:i + SCAN_BLOCK] == byte) + i
        for i in range(0, len(u8), SCAN_BLOCK)])


def _needed_columns(schema: DataSchema) -> list[str]:
    """The columns a dataset is built from, in ``Dataset.from_columns`` order."""
    return [s.name for s in schema.specs] + [TREATMENT, OUTCOME]


def _read_exact(csv_path: str | Path, schema: DataSchema) -> Dataset:
    """``read_dataset`` by ``csv.reader``: any CSV, with exact diagnostics."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{csv_path}: empty file")
            col_of = {name: k for k, name in enumerate(header)}
            if len(col_of) < len(header):
                dup = next(name for k, name in enumerate(header) if col_of[name] != k)
                raise ValidationError(f"{csv_path}: line 1: duplicate column {dup!r}")
            needed = _needed_columns(schema)
            for name in needed:
                if name not in col_of:
                    raise ValidationError(f"{csv_path}: line 1: missing column {name!r}")
            rows, first_lines = [], [reader.line_num + 1]
            for cells in reader:
                if len(cells) != len(header):
                    raise ValidationError(f"{csv_path}: line {first_lines[-1]}: "
                                          f"expected {len(header)} cells, got {len(cells)}")
                rows.append(cells)
                first_lines.append(reader.line_num + 1)
        except UnicodeDecodeError as e:
            raise ValidationError(
                f"{csv_path}: not UTF-8 text after line {reader.line_num} ({e.reason})"
            ) from None
        except csv.Error as e:
            raise ValidationError(f"{csv_path}: line {reader.line_num}: {e}") from None
    columns = list(zip(*rows)) if rows else [()] * len(header)
    *cells, treatments, outcomes = (columns[col_of[name]] for name in needed)
    try:
        return Dataset.from_columns(schema.specs, schema.treatment_names,
                                    schema.treatment_costs, cells, treatments, outcomes)
    except CellError as e:
        raise ValidationError(
            f"{csv_path}: line {first_lines[e.row]}, column {needed[e.column]!r}: {e.problem}"
        ) from None
    except ValidationError as e:
        raise ValidationError(f"{csv_path}: {e}") from None


def write_dataset_csv(ds: Dataset, path: str | Path) -> None:
    """Write a dataset CSV; reals use repr() so output is byte-reproducible.

    The bytes are csv.writer's, but each level and treatment name is quoted
    once, inside a row of two fields (alone, an empty field is written as
    ``""``), and the rows are joined directly, CSV_BLOCK at a time."""
    def quoted(names: Sequence[str]) -> np.ndarray:
        out = np.empty(len(names), dtype=object)
        for i, name in enumerate(names):
            buf = StringIO()
            csv.writer(buf, lineterminator="\n").writerow((name, ""))
            out[i] = buf.getvalue()[:-2]
        return out

    columns = [(col, None if s.kind == REAL else quoted(s.levels))
               for s, col in zip(ds.specs, ds.columns)]
    columns += [(ds.treatments, quoted(ds.treatment_names)), (ds.outcomes, None)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(
            [s.name for s in ds.specs] + [TREATMENT, OUTCOME])
        for i in range(0, ds.n_subjects, CSV_BLOCK):
            cells = [map(repr, col[i:i + CSV_BLOCK].tolist()) if names is None
                     else names[col[i:i + CSV_BLOCK]].tolist() for col, names in columns]
            fh.write("\n".join(map(",".join, zip(*cells))))
            fh.write("\n")


def pattern_to_list(pattern: Pattern, specs: Sequence[CharacteristicSpec]) -> list[dict]:
    """A pattern as the predicate records regime and candidate files hold."""
    return [{"feature": specs[p.feature].name, "op": p.op, "value": p.value}
            for p in pattern.predicates]


def pattern_from_list(records: list, specs: Sequence[CharacteristicSpec]) -> Pattern:
    """Inverse of pattern_to_list; run it under ``errors.malformed``."""
    index = {s.name: i for i, s in enumerate(specs)}
    return Pattern(tuple(Predicate(index[p["feature"]], p["op"], p["value"])
                         for p in records))


def decision_list_to_dict(
    dl: DecisionList,
    specs: Sequence[CharacteristicSpec],
    treatment_names: Sequence[str],
) -> dict:
    return {
        "rules": [
            {"pattern": pattern_to_list(pattern, specs), "treatment": treatment_names[t]}
            for pattern, t in dl.rules
        ],
        "default_treatment": treatment_names[dl.default_treatment],
    }


def decision_list_from_dict(
    d: dict,
    specs: Sequence[CharacteristicSpec],
    treatment_names: Sequence[str],
) -> DecisionList:
    treat_to_code = {n: k for k, n in enumerate(treatment_names)}
    with malformed("decision list"):
        return DecisionList(
            rules=tuple((pattern_from_list(r["pattern"], specs), treat_to_code[r["treatment"]])
                        for r in d["rules"]),
            default_treatment=treat_to_code[d["default_treatment"]],
        )


def format_decision_list(
    dl: DecisionList,
    specs: Sequence[CharacteristicSpec],
    treatment_names: Sequence[str],
) -> str:
    """Human-readable if / else-if / else rendering of a decision list."""
    def fmt_value(p: Predicate) -> str:
        if specs[p.feature].kind == REAL:  # the shortest text float() reads back exactly
            return repr(float(p.value)).removesuffix(".0")
        return str(p.value)

    def fmt_pattern(pattern: Pattern) -> str:
        return " and ".join(
            f"{specs[p.feature].name} {p.op} {fmt_value(p)}" for p in pattern.predicates
        )

    if not dl.rules:
        return f"always {treatment_names[dl.default_treatment]}"
    lines = []
    for j, (pattern, t) in enumerate(dl.rules):
        kw = "if" if j == 0 else "else if"
        lines.append(f"{kw} {fmt_pattern(pattern)} then {treatment_names[t]}")
    lines.append(f"else {treatment_names[dl.default_treatment]}")
    return "\n".join(lines)


def write_json(obj, path: str | Path) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, in those bytes,
    piece by piece.

    ``obj`` may be an ndarray, or a dict with str keys some of whose values
    are ndarrays, where json takes only their ``tolist()``; an ndarray
    nested any deeper gets json's TypeError.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(obj, dict) and all(isinstance(k, str) for k in obj) \
                and any(isinstance(v, np.ndarray) for v in obj.values()):
            for i, (k, v) in enumerate(obj.items()):
                fh.write(f"{',' if i else '{'}\n  {json.dumps(k)}: ")
                fh.writelines(_indented(v, "  "))
            fh.write("\n}")
        else:
            fh.writelines(_indented(obj, ""))
        fh.write("\n")


def _indented(obj, pad: str):
    """The pieces of ``json.dumps(obj, indent=2)``, every line after the
    first indented by ``pad`` more.

    A finite 2-D float ndarray is laid out here ROW_BLOCK rows at a time,
    one ``float.__repr__`` per entry as json writes them, so neither the
    file's text nor the array's Python floats are ever held whole.  (json
    runs its C encoder only without indent, and its Python encoder is slow
    on a large score matrix.)  Any other value is left to json's encoder,
    an ndarray as its ``tolist()``.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.size \
            and obj.dtype.kind == "f" and np.isfinite(obj).all():
        row_sep = sep + "  "
        for i in range(0, len(obj), ROW_BLOCK):
            yield (sep if i else "[\n" + inner) + sep.join(
                [f"[\n{inner}  {row_sep.join(map(float.__repr__, row))}\n{inner}]"
                 for row in obj[i:i + ROW_BLOCK].tolist()])
        yield f"\n{pad}]"
        return
    for piece in json.JSONEncoder(indent=2).iterencode(
            obj.tolist() if isinstance(obj, np.ndarray) else obj):
        yield piece.replace("\n", "\n" + pad)


def read_json(path: str | Path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # bad syntax, bytes that are not UTF-8, ints too long for int(), deep nesting
        except (ValueError, RecursionError) as e:
            raise ValidationError(f"{path}: invalid JSON ({e})") from None


def read_scores(path: str | Path) -> DRScoreMatrix:
    """Load a score matrix file: ``DRScoreMatrix.to_dict`` as JSON, in any
    layout.

    When ``"scores"`` is the file's last key (as ``write_json`` lays it
    out), its rows are parsed by ``json.loads`` ROW_BLOCK at a time, each
    piece written straight into one (n, m) float64 array, so the file never
    becomes one Python float per entry (see ``_plain_scores``).  Any other
    file, and any file that pass refuses, is read by ``read_json``, which
    alone writes the diagnostics.
    """
    try:
        with open(path, "rb") as fh:  # the file's bytes live only in the pass
            return DRScoreMatrix.from_dict(_plain_scores(fh.read()))
    except MemoryError:
        raise
    except Exception:  # the json path below says what is wrong, if anything
        pass
    return DRScoreMatrix.from_dict(read_json(path))


def _plain_scores(data: bytes) -> dict:
    """``json.loads(data)`` with its ``"scores"`` rows as a float64 ndarray,
    as ``np.asarray(rows, dtype=float)`` gives it; raises _NotPlain when
    "scores" is not the last key or its value is not rows of m entries.

    The text before the last ``"scores"`` is parsed with ``"scores": []}``
    appended.  When that object's own last pair is ("scores", []), the key
    starts there (had that ``"`` been inside a string, the pair's key would
    be longer).  Every ``]`` after the key's ``[`` but the last ends a row,
    and only whitespace and the closing ``}`` may follow the last.  A piece
    of rows of another shape, or separated from the next piece by more
    than a comma, refuses the file, as does a row holding a ``]`` itself.
    """
    key = data.rfind(b'"scores"')
    opener = _SCORES_KEY.match(data, key) if key >= 0 else None
    if opener is None:
        raise _NotPlain
    objects = []  # every object's pairs, in the order the objects close
    record = json.loads(data[:key].decode("utf-8") + '"scores": []}',
                        object_pairs_hook=lambda pairs: objects.append(pairs) or dict(pairs))
    if objects[-1][-1] != ("scores", []):
        raise _NotPlain
    start = opener.end()
    row_ends = _positions(np.frombuffer(data, dtype=np.uint8)[start:], ord("]"))[:-1] + start
    n = len(row_ends)
    if n == 0 or not _SCORES_END.fullmatch(data, row_ends[-1] + 1):
        raise _NotPlain
    scores = None
    for i in range(0, n, ROW_BLOCK):
        k = min(ROW_BLOCK, n - i)
        stop = row_ends[i + k - 1] + 1
        rows = np.asarray(json.loads("[" + data[start:stop].decode("utf-8") + "]"),
                          dtype=float)
        if scores is None:
            scores = np.empty((n, rows.shape[-1]))
        if rows.shape != (k, scores.shape[1]):
            raise _NotPlain
        scores[i:i + k] = rows
        if i + k < n:
            separator = _ROW_SEP.match(data, stop)
            if separator is None:
                raise _NotPlain
            start = separator.end()
    record["scores"] = scores
    return record


def write_jsonl(records: Sequence[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec))
            fh.write("\n")
