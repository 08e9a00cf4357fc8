"""Schemas, rows, and teams: the data model every checker runs on.

A team is a finite *set* of assignments over a fixed attribute schema.
Rows are stored as tuples of opaque string values aligned with the
schema's attribute order; duplicate rows collapse on construction, and
values are compared by equality only.  Everything here is immutable, so
teams can be shared freely between concurrent checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import SchemaError

Row = tuple[str, ...]

# An attribute name has to survive the textual grammars unquoted: no
# whitespace, none of the punctuation the formula language uses, not the
# atom separator ("Y" or "Y<digits>"), and not a formula keyword.
_FORBIDDEN_CHARS = frozenset(' \t\n\r\x0b\x0c"#();,&')
_SEPARATOR_SHAPE = re.compile(r"Y[0-9]*\Z")
_KEYWORDS = frozenset({"dep", "inc", "ind", "anon", "exists"})


def is_valid_attribute_name(name: object) -> bool:
    """True iff ``name`` may be used as an attribute name."""
    if not isinstance(name, str) or not name:
        return False
    if any(c in _FORBIDDEN_CHARS for c in name) or "->" in name:
        return False
    if _SEPARATOR_SHAPE.match(name) or name in _KEYWORDS:
        return False
    return True


def _checked_name(name: object) -> str:
    if not is_valid_attribute_name(name):
        raise SchemaError(f"invalid attribute name: {name!r}")
    return name  # type: ignore[return-value]


@dataclass(frozen=True)
class Schema:
    """An ordered sequence of distinct attribute names."""

    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        attrs = tuple(_checked_name(a) for a in self.attributes)
        object.__setattr__(self, "attributes", attrs)
        seen: set[str] = set()
        for a in attrs:
            if a in seen:
                raise SchemaError(f"duplicate attribute name: {a!r}")
            seen.add(a)
        object.__setattr__(self, "_index", {a: i for i, a in enumerate(attrs)})

    def index(self, name: str) -> int:
        """Position of ``name`` in the schema; SchemaError names the offender."""
        try:
            return self._index[name]  # type: ignore[attr-defined]
        except KeyError:
            raise SchemaError(f"unknown attribute: {name!r}") from None

    def indexes(self, attrs: Sequence[str]) -> tuple[int, ...]:
        return tuple(self.index(a) for a in attrs)

    def __iter__(self):
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._index  # type: ignore[attr-defined]


@dataclass(frozen=True)
class Team:
    """A finite set of rows over one schema.

    ``rows`` is a frozenset of value tuples in schema attribute order;
    constructing a team from a multiset of records therefore keeps at
    most one copy of each record.
    """

    schema: Schema
    rows: frozenset[Row]

    def __post_init__(self) -> None:
        rows = frozenset(tuple(r) for r in self.rows)
        width = len(self.schema)
        for row in rows:
            if len(row) != width:
                raise SchemaError(
                    f"row {row!r} has {len(row)} values but the schema has {width} attributes"
                )
            for value in row:
                if not isinstance(value, str):
                    raise SchemaError(f"non-string value {value!r} in row {row!r}")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, schema: Schema, rows: frozenset[Row]) -> "Team":
        """A team over rows that are already known to be valid, without
        checking them again.

        Precondition: ``rows`` is a frozenset of tuples of ``str``, each as
        wide as ``schema``.  Only callers whose rows come from a checked
        team, from the CSV reader after its width check, or from the
        package's own string tokens may use it.
        """
        team = object.__new__(cls)
        object.__setattr__(team, "schema", schema)
        object.__setattr__(team, "rows", rows)
        return team

    @classmethod
    def of(cls, attributes: Sequence[str], rows: Iterable[Sequence[str]]) -> "Team":
        """Build a team from attribute names and an iterable of row tuples."""
        return cls(Schema(tuple(attributes)), frozenset(tuple(r) for r in rows))

    @classmethod
    def from_records(
        cls, attributes: Sequence[str], records: Iterable[Mapping[str, str]]
    ) -> "Team":
        """Build a team from dict-like records.

        Each record must bind exactly the schema's attribute set.
        """
        schema = Schema(tuple(attributes))
        wanted = set(schema.attributes)
        rows = []
        for record in records:
            got = set(record)
            if got != wanted:
                missing = sorted(wanted - got)
                extra = sorted(got - wanted)
                parts = []
                if missing:
                    parts.append(f"missing {missing}")
                if extra:
                    parts.append(f"unexpected {extra}")
                raise SchemaError("record does not match schema: " + ", ".join(parts))
            rows.append(tuple(record[a] for a in schema.attributes))
        return cls(schema, frozenset(rows))

    @property
    def is_empty(self) -> bool:
        return not self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.sorted_rows())

    def sorted_rows(self) -> list[Row]:
        """Rows in lexicographic order; the canonical enumeration order."""
        return sorted(self.rows)

    def union(self, other: "Team") -> "Team":
        if other.schema != self.schema:
            raise SchemaError("cannot union teams over different schemas")
        return Team._trusted(self.schema, self.rows | other.rows)


def project(team: Team, attrs: Sequence[str]) -> list[Row]:
    """The value tuple over ``attrs`` for each row, in sorted row order.

    Empty ``attrs`` yields the empty tuple for every row.
    """
    idx = team.schema.indexes(attrs)
    return [tuple(row[i] for i in idx) for row in team.sorted_rows()]


def group_by(team: Team, attrs: Sequence[str]) -> dict[Row, list[Row]]:
    """Partition rows by their ``attrs`` tuple.

    The groups cover the team exactly: they are pairwise disjoint and
    their union is the row set.  Group members keep sorted order.
    """
    idx = team.schema.indexes(attrs)
    groups: dict[Row, list[Row]] = {}
    for row in team.sorted_rows():
        groups.setdefault(tuple(row[i] for i in idx), []).append(row)
    return groups
