"""CSV ingestion and export for teams (RFC-4180-style, UTF-8, header row)."""

from __future__ import annotations

import csv
import itertools
from pathlib import Path
from typing import IO, Union

from ._value import Value, _set
from .errors import ParseError, SchemaError
from .team import Schema, Team

Source = Union[str, Path, IO[str]]


class LoadedTeam(Value):
    """A parsed team plus how many duplicate data rows were collapsed."""

    _fields = ("team", "duplicate_rows")
    team: Team
    duplicate_rows: int

    def __init__(self, team: Team, duplicate_rows: int) -> None:
        _set(self, "team", team)
        _set(self, "duplicate_rows", duplicate_rows)


def read_team_csv(source: Source) -> LoadedTeam:
    """Read a team from a CSV file or stream.

    The first record is the header of distinct attribute names; duplicate
    data rows collapse (the count is reported), ragged rows are parse
    errors with their line number, and a file without a header is a
    schema error.  A file or stream may start with a byte-order mark, which
    is not part of the first name.  Equal values share one ``str`` object.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8-sig") as handle:
            return _read(handle)
    return _read(source)


class _Interned(dict):
    """Maps each value seen to the first equal ``str`` object read."""

    __slots__ = ()

    def __missing__(self, value: str) -> str:
        self[value] = value
        return value


def _read(handle: IO[str]) -> LoadedTeam:
    # a leading byte-order mark is not part of the first name; a path's
    # decoder has already dropped it, a stream's text may still hold it
    first = handle.readline().removeprefix("\ufeff")
    reader = csv.reader(itertools.chain((first,) if first else (), handle))
    # one str object per distinct value: census columns repeat heavily, and
    # a shared value is stored once and hashes once when rows are grouped;
    # a one-argument lookup lets ``map`` walk the record alone
    intern = _Interned().__getitem__
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty CSV input: missing header row")
        schema = Schema(tuple(header))
        width = len(schema)
        rows = []
        append = rows.append
        for record in reader:
            # before the width test: over an empty header a blank line would
            # pass it as a row of no values
            if not record:
                continue  # blank line
            if len(record) != width:
                raise ParseError(
                    f"expected {width} fields, got {len(record)}", line=reader.line_num
                )
            append(tuple(map(intern, record)))
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from exc
    # the reader yields only strings, and every width is checked above
    team = Team._trusted(schema, frozenset(rows))
    return LoadedTeam(team, len(rows) - len(team))


def write_team_csv(team: Team, destination: Source) -> None:
    """Write the team with a header row; rows in canonical sorted order."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", newline="", encoding="utf-8") as handle:
            _write(team, handle)
    else:
        _write(team, destination)


def _write(team: Team, handle: IO[str]) -> None:
    writer = csv.writer(handle)
    writer.writerow(team.schema.attributes)
    writer.writerows(team.sorted_rows())
