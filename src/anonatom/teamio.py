"""CSV ingestion and export for teams (RFC-4180-style, UTF-8, header row)."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

from .errors import ParseError, SchemaError
from .inference import AtomSet
from .syntax import parse_sigma
from .team import Schema, Team

Source = Union[str, Path, IO[str]]


@dataclass(frozen=True)
class LoadedTeam:
    """A parsed team plus how many duplicate data rows were collapsed."""

    team: Team
    duplicate_rows: int


def read_team_csv(source: Source) -> LoadedTeam:
    """Read a team from a CSV file or stream.

    The first record is the header of distinct attribute names; duplicate
    data rows collapse (the count is reported), ragged rows are parse
    errors with their line number, and a file without a header is a
    schema error.
    """
    if isinstance(source, (str, Path)):
        with open(source, newline="", encoding="utf-8") as handle:
            return _read(handle)
    return _read(source)


def _read(handle: IO[str]) -> LoadedTeam:
    reader = csv.reader(handle)
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError("empty CSV input: missing header row")
        schema = Schema(tuple(header))
        width = len(schema)
        rows = []
        for record in reader:
            if not record:
                continue  # blank line
            if len(record) != width:
                raise ParseError(
                    f"expected {width} fields, got {len(record)}", line=reader.line_num
                )
            rows.append(tuple(record))
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


def team_to_csv_text(team: Team) -> str:
    buffer = io.StringIO()
    _write(team, buffer)
    return buffer.getvalue()


def load_sigma_file(path: str | Path) -> AtomSet:
    """Read a hypothesis file: one atom per line, ``#`` comments allowed."""
    return parse_sigma(Path(path).read_text(encoding="utf-8"))
