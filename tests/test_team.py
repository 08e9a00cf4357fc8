import random

import pytest

from anonatom import Schema, SchemaError, Team, extend, group_by
from conftest import grid_rows, random_small_team


class TestSchema:
    def test_duplicate_attribute_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema(("a", "b", "a"))

    @pytest.mark.parametrize(
        "bad", ["", "two words", "Y", "Y3", "dep", "exists", 'qu"ote', "a->b", "with;semi"]
    )
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(SchemaError):
            Schema((bad,))

    def test_name_lookups_are_case_sensitive(self):
        schema = Schema(("Home", "home"))
        assert schema.index("Home") == 0
        assert schema.index("home") == 1

    def test_unknown_attribute_names_offender(self):
        with pytest.raises(SchemaError, match="'salary'"):
            Schema(("a", "b")).index("salary")

    def test_names_that_merely_start_with_Y_are_fine(self):
        schema = Schema(("Yes", "Year2"))
        assert "Yes" in schema and "Year2" in schema


class TestTeamConstruction:
    def test_duplicates_collapse(self):
        team = Team.of(("a", "b"), [("0", "1"), ("0", "1"), ("1", "1")])
        assert len(team) == 2

    def test_row_count_bounded_by_input_count(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [
                tuple(rng.choice("01") for _ in range(2)) for _ in range(rng.randint(0, 8))
            ]
            team = Team.of(("a", "b"), rows)
            assert len(team) <= len(rows)
            assert (len(team) == len(rows)) == (len(set(rows)) == len(rows))

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaError, match="2 values"):
            Team.of(("a", "b", "c"), [("0", "1")])

    def test_non_string_value_rejected(self):
        with pytest.raises(SchemaError, match="non-string"):
            Team.of(("a",), [(1,)])

    def test_from_records_checks_domain(self):
        with pytest.raises(SchemaError, match="missing"):
            Team.from_records(("a", "b"), [{"a": "0"}])
        with pytest.raises(SchemaError, match="unexpected"):
            Team.from_records(("a",), [{"a": "0", "b": "1"}])
        team = Team.from_records(("a", "b"), [{"b": "1", "a": "0"}])
        assert team.sorted_rows() == [("0", "1")]

    def test_union_requires_same_schema(self):
        left = Team.of(("a",), [("0",)])
        right = Team.of(("b",), [("0",)])
        with pytest.raises(SchemaError):
            left.union(right)
        merged = left.union(Team.of(("a",), [("1",)]))
        assert len(merged) == 2
        assert merged == Team.of(("a",), [("0",), ("1",)])


class TestRowsFromCallersAreChecked:
    """Every constructor whose rows come from its caller still checks them
    (``Team.of``: ``TestTeamConstruction``)."""

    def test_constructor(self):
        with pytest.raises(SchemaError, match="1 values"):
            Team(Schema(("a", "b")), frozenset({("1",)}))
        with pytest.raises(SchemaError, match="non-string"):
            Team(Schema(("a",)), frozenset({(1,)}))

    def test_from_records(self):
        with pytest.raises(SchemaError, match="non-string"):
            Team.from_records(("a", "b"), [{"a": "0", "b": 1}])

    def test_extend(self):
        team = Team.of(("a",), [("0",)])
        with pytest.raises(SchemaError, match="non-string"):
            extend(team, "v", {("0",): {1}})

    def test_trusted_team_equals_checked_team(self):
        rows = frozenset({("0", "1"), ("1", "1")})
        trusted = Team._trusted(Schema(("a", "b")), rows)
        assert trusted == Team.of(("a", "b"), rows)
        assert hash(trusted) == hash(Team.of(("a", "b"), rows))


class TestGroupBy:
    def test_census_pairs(self, census_team):
        groups = group_by(census_team, ("hometown", "salary"))
        assert len(groups) == 3
        assert all(len(rows) == 2 for rows in groups.values())

    def test_empty_team(self):
        assert group_by(Team.of(("a",), []), ("a",)) == {}

    def test_transitivity_by_x(self, transitivity_team):
        groups = group_by(transitivity_team, ("x",))
        assert len(groups) == 2
        assert all(len(rows) == 2 for rows in groups.values())

    def test_partition_property(self):
        rng = random.Random(13)
        for _ in range(100):
            team = random_small_team(rng, ("a", "b", "c"), "012", 9)
            groups = group_by(team, ("a", "b"))
            assert sum(len(rows) for rows in groups.values()) == len(team)
            flattened = [row for rows in groups.values() for row in rows]
            assert len(flattened) == len(set(flattened))
            assert set(flattened) == team.rows

    def test_grouping_by_everything_gives_singletons(self):
        rows = grid_rows(("a", "b"), "01")
        team = Team.of(("a", "b"), rows)
        groups = group_by(team, ("a", "b"))
        assert all(len(members) == 1 for members in groups.values())
