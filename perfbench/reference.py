"""Reference checker: the benchmark's independent reading of the definitions.

Imports nothing from ``anonatom``.  A team is ``(attributes, rows)`` with
rows as value tuples (duplicates collapse); an atom is a
``(published, protected, k)`` triple of attribute-name tuples and an int.
"""


def group_counts(attrs, rows, published, protected):
    """Published key -> [distinct rows in the group, distinct protected tuples]."""
    pub = [attrs.index(a) for a in published]
    prot = [attrs.index(a) for a in protected]
    seen = {}
    for row in set(map(tuple, rows)):
        seen.setdefault(tuple(row[i] for i in pub), []).append(tuple(row[i] for i in prot))
    return {key: [len(values), len(set(values))] for key, values in seen.items()}


def degree(attrs, rows, published, protected):
    """Least distinct-protected count over the groups; None for the empty team."""
    return min((d for _, d in group_counts(attrs, rows, published, protected).values()), default=None)


def holds(attrs, rows, atom):
    d = degree(attrs, rows, atom[0], atom[1])
    return d is None or d >= atom[2]


def refutes(attrs, rows, sigma, goal):
    """Every hypothesis holds on the team and the goal fails."""
    return all(holds(attrs, rows, h) for h in sigma) and not holds(attrs, rows, goal)


def follows(sigma, goal):
    """Subsumption: the goal is trivial (k = 1), or some hypothesis cancels to an
    empty protected side, or some hypothesis publishes at least the goal's
    attributes, protects (after cancellation) no more than the goal does and asks
    at least the goal's k.  Complete on the plain fragment (every k = 2) and on
    single protected attributes; sound everywhere."""
    gp, gq, gk = set(goal[0]), set(goal[1]) - set(goal[0]), goal[2]
    for hp, hq, hk in sigma:
        hq = set(hq) - set(hp)
        if (hk >= 2 and not hq) or (gp <= set(hp) and hq <= gq and hk >= gk):
            return True
    return gk == 1
