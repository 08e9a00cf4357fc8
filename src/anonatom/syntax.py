"""The atom grammar and hypothesis files, with round-tripping printers.

Atoms::

    atom  ::= attrs SEP attrs?          # published SEP protected
    SEP   ::= "Y" | "Y" INT             # INT >= 1 is the multiplicity; bare Y means 2
    INT   ::= [0-9]+                    # ASCII digits, as in the formula grammar
    attrs ::= name+                     # whitespace separated

Hypothesis files hold one atom per line; ``#`` starts a comment.  The
formula grammar lives in ``teamlogic``, beside the nodes it builds.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING

from .atoms import Atom
from .errors import ParseError
from .team import is_valid_attribute_name

# The hypothesis grammar imports ``query`` (for ``AtomSet``) when it runs, so
# that parsing one atom does not load it.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from .query import AtomSet

_SEPARATOR = re.compile(r"Y([0-9]+)?\Z")  # multiplicities: ASCII digits only


def parse_atom(text: str, *, line: int | None = None) -> Atom:
    tokens = text.split()
    if not tokens:
        raise ParseError("empty atom", line=line)
    positions = [i for i, tok in enumerate(tokens) if _SEPARATOR.match(tok)]
    if not positions:
        raise ParseError(f"missing 'Y' separator in {text.strip()!r}", line=line)
    if len(positions) > 1:
        raise ParseError(f"more than one 'Y' separator in {text.strip()!r}", line=line)
    at = positions[0]
    digits = _SEPARATOR.match(tokens[at]).group(1)  # type: ignore[union-attr]
    try:
        k = 2 if digits is None else int(digits)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"multiplicity has too many digits ({len(digits)})", line=line) from None
    if k < 1:
        raise ParseError("multiplicity must be at least 1", line=line)
    published = tokens[:at]
    protected = tokens[at + 1 :]
    if not published:
        raise ParseError("an atom needs at least one published attribute", line=line)
    for name in (*published, *protected):
        if not is_valid_attribute_name(name):
            raise ParseError(f"invalid attribute name {name!r}", line=line)
    return Atom(tuple(published), tuple(protected), k)


def format_atom(atom: Atom) -> str:
    if not atom.published:
        raise ValueError("the atom grammar requires at least one published attribute")
    for name in (*atom.published, *atom.protected):
        if not is_valid_attribute_name(name):
            raise ValueError(f"attribute name {name!r} is not expressible in the grammar")
    separator = "Y" if atom.k == 2 else f"Y{atom.k}"
    return " ".join((*atom.published, separator, *atom.protected))


def parse_sigma(text: str) -> AtomSet:
    """Parse a hypothesis file: one atom per line, ``#`` comments allowed."""
    from .query import AtomSet

    atoms = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        atoms.append(parse_atom(line, line=number))
    return AtomSet.of(*atoms)


def format_sigma(sigma: AtomSet) -> str:
    return "".join(format_atom(atom) + "\n" for atom in sigma.atoms)


def load_sigma_file(path: str | Path) -> AtomSet:
    """Read a hypothesis file: one atom per line, ``#`` comments allowed, and
    an optional UTF-8 byte-order mark first."""
    return parse_sigma(Path(path).read_text(encoding="utf-8-sig"))
