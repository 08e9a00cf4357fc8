import itertools
import random

import pytest

from anonatom import (
    AndNode,
    Atom,
    AtomSet,
    AtomNode,
    DependenceAtom,
    ExistsNode,
    ImplNode,
    InclusionAtom,
    IndependenceAtom,
    LiteralNode,
    Team,
)
from anonatom.inference import _Query

# Six-row census-style team: each (hometown, salary) pair is shared by two
# surnames, while a surname pins down everything else.
CENSUS_ATTRS = ("surname", "hometown", "salary")
CENSUS_ROWS = [
    ("Balbuk", "Watarru", "70,000"),
    ("Barambah", "Amata", "90,000"),
    ("Jones", "Finke", "100,000"),
    ("Smith", "Watarru", "70,000"),
    ("Williams", "Amata", "90,000"),
    ("Yunipingu", "Finke", "100,000"),
]

# Four-row team where x and z coincide: x Y y and y Y z hold but x Y z fails,
# the classic witness that anonymity does not chain.
TRANSITIVITY_ATTRS = ("x", "y", "z")
TRANSITIVITY_ROWS = [
    ("0", "0", "0"),
    ("0", "1", "0"),
    ("1", "0", "1"),
    ("1", "1", "1"),
]


@pytest.fixture
def census_team() -> Team:
    return Team.of(CENSUS_ATTRS, CENSUS_ROWS)


@pytest.fixture
def transitivity_team() -> Team:
    return Team.of(TRANSITIVITY_ATTRS, TRANSITIVITY_ROWS)


def make_team(attrs, rows) -> Team:
    return Team.of(attrs, rows)


def grid_rows(attrs, domain):
    return [tuple(cells) for cells in itertools.product(domain, repeat=len(attrs))]


def all_teams(attrs, domain, max_rows=None):
    """Every team over the full assignment grid, optionally capped in size."""
    grid = grid_rows(attrs, domain)
    sizes = range(len(grid) + 1) if max_rows is None else range(min(max_rows, len(grid)) + 1)
    for size in sizes:
        for combo in itertools.combinations(grid, size):
            yield Team.of(attrs, combo)


def anonymity_scan(team, published, protected) -> bool:
    """Literal forall/exists double loop; the quadratic reference checker."""
    rows = team.sorted_rows()
    pub = team.schema.indexes(published)
    prot = team.schema.indexes(protected)
    key = lambda row, idx: tuple(row[i] for i in idx)
    for s in rows:
        if not any(
            key(s2, pub) == key(s, pub) and key(s2, prot) != key(s, prot) for s2 in rows
        ):
            return False
    return True


def random_small_team(rng: random.Random, attrs, domain, max_rows) -> Team:
    count = rng.randint(0, max_rows)
    rows = {tuple(rng.choice(domain) for _ in attrs) for _ in range(count)}
    return Team.of(attrs, rows)


def random_side(rng: random.Random, attrs, max_len, allow_empty=True):
    low = 0 if allow_empty else 1
    return tuple(rng.choice(attrs) for _ in range(rng.randint(low, max_len)))


def random_plain_atom(rng: random.Random, attrs, max_len=2) -> Atom:
    return Atom(random_side(rng, attrs, max_len), random_side(rng, attrs, max_len), 2)


def all_normal_shapes(attrs):
    """Every (published, protected) pair of disjoint subsets, as sorted tuples."""
    shapes = []
    for mask in range(3 ** len(attrs)):
        pub, prot = [], []
        m = mask
        for name in attrs:
            m, r = divmod(m, 3)
            if r == 1:
                pub.append(name)
            elif r == 2:
                prot.append(name)
        shapes.append((tuple(pub), tuple(prot)))
    return shapes


def form(a, attrs):
    """The form of atom ``a`` over the sorted universe ``attrs``."""
    return _Query(AtomSet.of(extra_attributes=attrs), a).goal_form


def random_formula(rng: random.Random, names, values, depth=0):
    """Random formula AST in the shape the printer canonicalizes to."""
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        if rng.random() < 0.5:
            target_is_attr = rng.random() < 0.4
            target = rng.choice(names) if target_is_attr else rng.choice(values)
            return LiteralNode(
                rng.choice(names), target, negated=rng.random() < 0.5,
                target_is_attribute=target_is_attr,
            )
        kind = rng.randrange(4)
        left = tuple(rng.choice(names) for _ in range(rng.randint(1, 2)))
        if kind == 0:
            return AtomNode(Atom(left, (rng.choice(names),), rng.randint(1, 4)))
        if kind == 1:
            return AtomNode(DependenceAtom(left, (rng.choice(names),)))
        if kind == 2:
            right = tuple(rng.choice(names) for _ in range(len(left)))
            return AtomNode(InclusionAtom(left, right))
        return AtomNode(IndependenceAtom(left, (rng.choice(names),)))
    if roll < 0.6:
        parts = []
        for _ in range(rng.randint(2, 3)):
            part = random_formula(rng, names, values, depth + 1)
            if isinstance(part, AndNode):
                parts.extend(part.parts)
            else:
                parts.append(part)
        return AndNode(tuple(parts))
    if roll < 0.8:
        guard = tuple(
            LiteralNode(rng.choice(names), rng.choice(values), negated=rng.random() < 0.5)
            for _ in range(rng.randint(1, 2))
        )
        return ImplNode(guard, random_formula(rng, names, values, depth + 1))
    return ExistsNode(rng.choice(("v", "w")), random_formula(rng, names, values, depth + 1))
