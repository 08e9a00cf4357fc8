"""Tests of the benchmark's reference checker on the paper's two small teams.

    python3 -m pytest perfbench/test_reference.py
"""

import reference as ref

# The six-row census team: every (hometown, salary) pair is shared by two
# surnames, while a surname pins down everything else.
CENSUS_ATTRS = ("surname", "hometown", "salary")
CENSUS = [
    ("Balbuk", "Watarru", "70,000"),
    ("Barambah", "Amata", "90,000"),
    ("Jones", "Finke", "100,000"),
    ("Smith", "Watarru", "70,000"),
    ("Williams", "Amata", "90,000"),
    ("Yunipingu", "Finke", "100,000"),
]

# The four-row transitivity witness: x Y y and y Y z hold, x Y z fails.
XYZ = ("x", "y", "z")
TRANSITIVITY = [("0", "0", "0"), ("0", "1", "0"), ("1", "0", "1"), ("1", "1", "1")]


def test_census_groups_and_degrees():
    counts = ref.group_counts(CENSUS_ATTRS, CENSUS + CENSUS[:2], ("hometown", "salary"), ("surname",))
    assert counts == {
        ("Watarru", "70,000"): [2, 2],
        ("Amata", "90,000"): [2, 2],
        ("Finke", "100,000"): [2, 2],
    }
    assert ref.degree(CENSUS_ATTRS, CENSUS, ("hometown", "salary"), ("surname",)) == 2
    assert ref.degree(CENSUS_ATTRS, CENSUS, ("surname",), ("hometown",)) == 1
    assert ref.degree(CENSUS_ATTRS, [], ("surname",), ("hometown",)) is None
    assert ref.holds(CENSUS_ATTRS, CENSUS, (("hometown", "salary"), ("surname",), 2))
    assert not ref.holds(CENSUS_ATTRS, CENSUS, (("hometown", "salary"), ("surname",), 3))
    assert not ref.holds(CENSUS_ATTRS, CENSUS, (("surname",), ("hometown",), 2))
    assert ref.holds(CENSUS_ATTRS, CENSUS, (("surname",), ("hometown",), 1))


def test_empty_protected_side_holds_only_on_the_empty_team():
    assert not ref.holds(CENSUS_ATTRS, CENSUS, (("surname",), (), 2))
    assert ref.holds(CENSUS_ATTRS, [], (("surname",), (), 2))


def test_transitivity_witness_refutes_the_chain():
    xy, yz, xz = (("x",), ("y",), 2), (("y",), ("z",), 2), (("x",), ("z",), 2)
    assert ref.holds(XYZ, TRANSITIVITY, xy) and ref.holds(XYZ, TRANSITIVITY, yz)
    assert not ref.holds(XYZ, TRANSITIVITY, xz)
    assert ref.refutes(XYZ, TRANSITIVITY, [xy, yz], xz)
    assert not ref.follows([xy, yz], xz)


def test_subsumption():
    goal = (("x",), ("z",), 2)
    assert ref.follows([(("x", "y"), ("z",), 2)], goal)  # drop a published attribute
    assert ref.follows([(("x",), ("x", "z"), 2)], goal)  # cancel a published one
    assert ref.follows([(("x",), ("z",), 2)], (("x",), ("y", "z"), 2))  # grow the protected side
    assert not ref.follows([(("x",), ("y", "z"), 2)], goal)
    assert ref.follows([(("y",), ("y",), 2)], goal)  # only the empty team satisfies it
    assert not ref.follows([(("x",), ("z",), 2)], (("x",), ("x",), 2))
    assert ref.follows([(("x",), ("z",), 3)], goal)
    assert not ref.follows([(("x",), ("z",), 2)], (("x",), ("z",), 3))
    assert ref.follows([], (("x",), ("z",), 1))


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
    print("reference checker: all tests passed")
