"""Seeded inputs for the benchmark: the census CSV and the entailment instances.

Every function takes a ``random.Random`` (or a seed) and nothing else that
varies, so the same seed always gives the same inputs.  Atoms are
``(published, protected, k)`` triples of attribute-name tuples, the shape
the reference checker reads.
"""

import csv
import itertools
import random

CENSUS_ATTRS = ("surname", "hometown", "zip", "age", "sex", "salary", "diagnosis")
SALARIES = tuple(f"{30 + 5 * i},000" for i in range(20))


def census_rows(seed, rows, duplicates):
    """``rows`` distinct census-shaped records plus exactly ``duplicates``
    repeated ones, shuffled together.

    Hometown sizes follow a Zipf-like law over 300 towns, so published groups
    range from a few rows to thousands; each town owns four zip codes.
    """
    rng = random.Random(seed)
    towns = [f"T{i:03d}" for i in range(300)]
    weights = list(itertools.accumulate(1 / (i + 1) ** 0.8 for i in range(300)))
    surnames = [f"S{i:04d}" for i in range(2000)]
    distinct = set()
    while len(distinct) < rows:
        n = rows - len(distinct)
        town = rng.choices(range(300), cum_weights=weights, k=n)
        distinct.update(zip(
            rng.choices(surnames, k=n),
            (towns[t] for t in town),
            (f"{20000 + 4 * t + rng.randrange(4)}" for t in town),
            (str(a) for a in rng.choices(range(18, 91), k=n)),
            rng.choices(("F", "M"), k=n),
            rng.choices(SALARIES, k=n),
            rng.choices([f"D{i:02d}" for i in range(12)], k=n),
        ))
    records = sorted(distinct)
    records += rng.sample(records, duplicates)
    rng.shuffle(records)
    return records


def write_csv(path, attrs, records):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(attrs)
        writer.writerows(records)


def plain_shapes(attrs):
    """Every (published, protected) pair of disjoint subsets of ``attrs``,
    in the order of the acceptance sweep."""
    shapes = []
    for mask in range(3 ** len(attrs)):
        pub, prot = [], []
        for name in attrs:
            mask, r = divmod(mask, 3)
            (pub if r == 1 else prot if r == 2 else []).append(name)
        shapes.append((tuple(pub), tuple(prot), 2))
    return shapes


def plain_sweep(attrs=("a", "b", "c")):
    """All plain-fragment instances with up to three hypotheses over
    ``attrs``: 89,208 of them at three attributes."""
    shapes = plain_shapes(attrs)
    sigmas = [combo for size in range(4) for combo in itertools.combinations(shapes, size)]
    return sigmas, shapes


def _side(rng, names, low, high):
    return tuple(rng.sample(names, rng.randint(low, min(high, len(names)))))


def general_instance(rng, n_attrs, variant):
    """A k-atom instance over exactly ``n_attrs`` attributes.

    The seed picks the attributes; ``variant`` fixes the shape, so instances
    of one size cost about the same whatever the seed.  Every hypothesis
    publishes two attributes and protects two, with multiplicity 2 or 3;
    the goal's multiplicity is at least the largest of them.  Even variants
    weaken a planted two-link chain, so saturation has to compose to reach
    the goal; odd variants draw the goal at random.
    """
    names = [f"a{i}" for i in range(n_attrs)]
    hyps = []
    for j in range(4):
        picked = rng.sample(names, 4)
        hyps.append((tuple(picked[:2]), tuple(picked[2:]), 2 + j % 2))
    if variant % 2 == 0:
        (p1, q1, k1), rest = hyps[0], [a for a in names if a not in hyps[0][0] + hyps[0][1]]
        q2 = tuple(rng.sample(rest, min(2, len(rest))))
        hyps[1] = (p1 + q1, q2, 2)
        goal = (p1[:1], q1 + q2, 2 * k1 if variant % 4 == 0 else 3)
    else:
        picked = rng.sample(names, 4)
        goal = (tuple(picked[:2]), tuple(picked[2:]), 3 + variant // 2 % 2)
    return hyps, goal, names


def simple_instance(rng, n_attrs, n_hyps=3):
    """Single protected attribute everywhere, multiplicities 2 to 3."""
    names = [f"s{i}" for i in range(n_attrs)]
    hyps = []
    for _ in range(n_hyps):
        y = rng.choice(names)
        hyps.append((_side(rng, [a for a in names if a != y], 1, 2), (y,), rng.randint(2, 3)))
    y = rng.choice(names)
    return hyps, (_side(rng, [a for a in names if a != y], 1, 2), (y,), rng.randint(2, 3)), names


def atom_text(atom):
    """The atom in the CLI's grammar (needs a published attribute)."""
    published, protected, k = atom
    return " ".join((*published, "Y" if k == 2 else f"Y{k}", *protected))


def _normal(atom):
    return frozenset(atom[0]), frozenset(atom[1]) - frozenset(atom[0]), atom[2]


def _covers(names, hyps, goal):
    atoms = [*hyps, goal]
    mentioned = {a for atom in atoms for side in atom[:2] for a in side}
    return mentioned == set(names) and len({_normal(a) for a in atoms}) == len(atoms)


def oracle_entailed(rng, n_attrs):
    """Two plain hypotheses over ``n_attrs`` attributes and a goal that weakens
    the first: the oracle must answer Entailed.  The three atoms have distinct
    normal forms, so every instance costs the same number of bitmaps."""
    names = [chr(ord("a") + i) for i in range(n_attrs)]
    while True:
        hyps = []
        for _ in range(2):
            pub = _side(rng, names, 1, 2)
            hyps.append((pub, _side(rng, [a for a in names if a not in pub], 1, 2), 2))
        pub, prot, _ = hyps[0]
        goal = (_side(rng, list(pub), 1, len(pub)), prot + _side(rng, [a for a in names if a not in pub + prot], 0, 2), 2)
        if _covers(names, hyps, goal):
            return hyps, goal, names

