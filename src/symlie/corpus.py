"""Built-in example algebras used by the tests, the audit, and the CLI.

The two-parameter family j2(a, b) is the 2-dimensional unital algebra with
u*u = a e + b u.  The spin factor and the commutative non-Jordan control
are included because the family alone cannot separate the audited claims:
the spin factor satisfies the cubic identity but not the operator identity,
and the control satisfies neither.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .algebra import Algebra, algebra_from_entries, algebra_to_json_dict
from .exactla import Record


def make_j2(a, b) -> Algebra:
    """dim 2, unit e, u*u = a e + b u."""
    a, b = Fraction(a), Fraction(b)
    return algebra_from_entries(2, ("e", "u"), [
        (0, 0, 0, 1),
        (0, 1, 1, 1),
        (1, 0, 1, 1),
        (1, 1, 0, a),
        (1, 1, 1, b),
    ])


def make_spin(q) -> Algebra:
    """Spin factor: e unit, v_i * v_j = delta_ij q_i e."""
    q = [Fraction(x) for x in q]
    if not q:
        raise ValueError("spin factor needs at least one diagonal entry")
    d = 1 + len(q)
    labels = ("e",) + tuple(f"v{i}" for i in range(1, d))
    entries = []
    for j in range(d):
        entries.append((0, j, j, 1))
        if j:
            entries.append((j, 0, j, 1))
    for i in range(1, d):
        entries.append((i, i, 0, q[i - 1]))
    return algebra_from_entries(d, labels, entries)


def make_non_jordan() -> Algebra:
    """Commutative, non-unital, fails the cubic identity:
    v*v = w, w*w = v, v*w = 0."""
    return algebra_from_entries(2, ("v", "w"), [
        (0, 0, 1, 1),
        (1, 1, 0, 1),
    ])


def make_field() -> Algebra:
    """dim 1, e*e = e."""
    return algebra_from_entries(1, ("e",), [(0, 0, 0, 1)])


class CorpusEntry(Record):
    __slots__ = _fields = ("name", "algebra", "expected")

    def __init__(self, name: str, algebra: Algebra, expected: dict | None = None):
        self.name, self.algebra, self.expected = name, algebra, {} if expected is None else expected


def corpus_entries() -> list[CorpusEntry]:
    """Fixed deterministic order; `expected` holds asserted checker verdicts."""
    return [
        CorpusEntry("j2_1_0", make_j2(1, 0),
                    {"cubic": "holds", "six_term": "holds", "operator": "holds"}),
        CorpusEntry("j2_0_0", make_j2(0, 0),
                    {"cubic": "holds", "six_term": "holds", "operator": "holds"}),
        CorpusEntry("j2_m1_2", make_j2(-1, 2),
                    {"cubic": "holds", "six_term": "holds", "operator": "holds"}),
        CorpusEntry("spin_1_1", make_spin((1, 1)),
                    {"cubic": "holds", "six_term": "holds", "operator": "fails"}),
        CorpusEntry("non_jordan", make_non_jordan(),
                    {"cubic": "fails", "six_term": "holds", "operator": "fails"}),
        CorpusEntry("field", make_field(),
                    {"cubic": "holds", "six_term": "holds", "operator": "holds"}),
    ]


def write_corpus(dirpath) -> list[Path]:
    """Write every entry as a JSON file; byte-stable output."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in corpus_entries():
        path = dirpath / f"{entry.name}.json"
        doc = json.dumps(algebra_to_json_dict(entry.algebra), indent=2, sort_keys=True)
        path.write_text(doc + "\n", encoding="utf-8")
        written.append(path)
    return written
