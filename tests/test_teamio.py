import csv
import io
import random
import tracemalloc

import pytest

from anonatom import ParseError, SchemaError, Team, check_anonymity, read_team_csv, write_team_csv
from conftest import CENSUS_ATTRS, CENSUS_ROWS

CENSUS_CSV = (
    "surname,hometown,salary\n"
    'Balbuk,Watarru,"70,000"\n'
    'Barambah,Amata,"90,000"\n'
    'Jones,Finke,"100,000"\n'
    'Smith,Watarru,"70,000"\n'
    'Williams,Amata,"90,000"\n'
    'Yunipingu,Finke,"100,000"\n'
)


class TestReadTeamCsv:
    def test_census(self):
        loaded = read_team_csv(io.StringIO(CENSUS_CSV))
        assert loaded.team == Team.of(CENSUS_ATTRS, CENSUS_ROWS)
        assert loaded.duplicate_rows == 0
        # the quoted comma survived as one field
        assert ("Balbuk", "Watarru", "70,000") in loaded.team.rows

    def test_header_only_is_empty_team(self):
        loaded = read_team_csv(io.StringIO("a,b\n"))
        assert loaded.team.is_empty
        assert loaded.team.schema.attributes == ("a", "b")

    @pytest.mark.parametrize("text", ["\n\n\n", "\r\n\r\n"])
    def test_blank_lines_alone_are_an_empty_team_over_no_attributes(self, text):
        """The blank first line is an empty header, and the blank lines
        after it are no rows, not rows of no values."""
        loaded = read_team_csv(io.StringIO(text, newline=""))
        assert loaded.team.schema.attributes == ()
        assert len(loaded.team) == 0
        assert loaded.duplicate_rows == 0

    def test_blank_lines_between_rows_are_skipped(self):
        loaded = read_team_csv(io.StringIO("a,b\n\n0,1\r\n\r\n\n1,1\n\n", newline=""))
        assert loaded.team == Team.of(("a", "b"), [("0", "1"), ("1", "1")])
        assert loaded.duplicate_rows == 0

    def test_empty_file(self):
        with pytest.raises(SchemaError, match="header"):
            read_team_csv(io.StringIO(""))

    def test_duplicate_header(self):
        with pytest.raises(SchemaError, match="duplicate"):
            read_team_csv(io.StringIO("a,a\n0,1\n"))

    def test_ragged_row_carries_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            read_team_csv(io.StringIO("a,b\n0,1\n0\n"))

    def test_ragged_row_after_quoted_newlines_carries_its_line(self):
        with pytest.raises(ParseError, match="expected 2 fields, got 3 \\(line 4\\)"):
            read_team_csv(io.StringIO('a,b\n"x\ny",1\n0,1,2\n'))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reader_rows_equal_checked_rows(self, seed):
        """Quoted commas and quotes, embedded newlines, blank lines and
        duplicates: the team equals ``Team.of`` over the same records."""
        rng = random.Random(seed)
        values = ("0", "1", "a,b", 'say "hi"', "two\nlines", "", " ", "\r")
        header = ("x", "y", "z")
        records = [tuple(rng.choice(values) for _ in header) for _ in range(60)]
        records += rng.sample(records, 15)
        rng.shuffle(records)
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(header)
        for record in records:
            if rng.random() < 0.2:
                text.write("\r\n")  # a blank line
            writer.writerow(record)
        loaded = read_team_csv(io.StringIO(text.getvalue(), newline=""))
        assert loaded.team == Team.of(header, records)
        assert loaded.duplicate_rows == len(records) - len(set(records))
        assert loaded.duplicate_rows > 0

    def test_duplicate_rows_collapse_with_count(self):
        loaded = read_team_csv(io.StringIO("a,b\n0,1\n0,1\n1,1\n"))
        assert len(loaded.team) == 2
        assert loaded.duplicate_rows == 1

    def test_from_path(self, tmp_path):
        path = tmp_path / "team.csv"
        path.write_text(CENSUS_CSV, encoding="utf-8")
        assert read_team_csv(path).team == Team.of(CENSUS_ATTRS, CENSUS_ROWS)


    @pytest.mark.parametrize("text", ["\ufeffname,town\nA,x\n", '\ufeff"name",town\nA,x\n'])
    def test_byte_order_mark_on_a_stream_is_not_part_of_the_first_name(self, text):
        team = read_team_csv(io.StringIO(text)).team
        assert team.schema.attributes == ("name", "town")
        assert not check_anonymity(team, ["town"], ["name"])

    def test_byte_order_mark_alone_is_empty_input(self):
        with pytest.raises(SchemaError, match="header"):
            read_team_csv(io.StringIO("\ufeff"))


class TestReaderMemory:
    """Census-like columns repeat heavily, so the reader stores each
    distinct value once."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        rng = random.Random(13)
        path = tmp_path_factory.mktemp("census") / "census.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("surname", "hometown", "zip", "age", "sex", "salary", "diagnosis"))
            for _ in range(20_000):
                town = rng.randrange(300)
                writer.writerow((
                    f"S{rng.randrange(2000):04d}", f"T{town:03d}", str(20000 + 4 * town + rng.randrange(4)),
                    str(rng.randrange(18, 91)), rng.choice(("F", "M")), f"{rng.randrange(20, 200)},000",
                    f"D{rng.randrange(12):02d}",
                ))
        return path

    def test_equal_values_are_one_object(self, path):
        rows = read_team_csv(path).team.rows
        assert len({id(v) for r in rows for v in r}) == len({v for r in rows for v in r})

    def test_peak_is_well_below_a_naive_read(self, path):
        def naive():
            with open(path, newline="", encoding="utf-8") as handle:
                return frozenset(map(tuple, csv.reader(handle)))

        def traced_peak(read):
            tracemalloc.start()
            try:
                read()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        read_team_csv(path)  # the first call's one-off allocations are not the reader's
        assert traced_peak(lambda: read_team_csv(path)) <= 0.6 * traced_peak(naive)


class TestWriteTeamCsv:
    def test_round_trip(self, tmp_path):
        team = Team.of(CENSUS_ATTRS, CENSUS_ROWS)
        path = tmp_path / "out.csv"
        write_team_csv(team, path)
        assert read_team_csv(path).team == team

    def test_tricky_values_round_trip(self, tmp_path):
        team = Team.of(
            ("a", "b"),
            [("with,comma", 'with"quote'), ("with\nnewline", "plain")],
        )
        path = tmp_path / "tricky.csv"
        write_team_csv(team, path)
        assert read_team_csv(path).team == team

    def test_rows_written_in_canonical_order(self):
        team = Team.of(("a",), [("2",), ("0",), ("1",)])
        buffer = io.StringIO()
        write_team_csv(team, buffer)
        assert buffer.getvalue().splitlines() == ["a", "0", "1", "2"]
