"""The loaders take JSON integers as they are and labels as distinct strings:
a float, a boolean or a string where an index belongs is an error (a
ValueError in the library, exit 2 from the CLI), never a truncated index."""

import json

import pytest

from symlie import SymCochain, algebra_from_json_dict
from symlie.cli import run
from symlie.deformation import series_from_json_list

ALGEBRA = {"dim": 2, "labels": ["e", "u"],
           "sc": [{"i": 0, "j": 0, "k": 0, "c": "1"}, {"i": 0, "j": 1, "k": 1, "c": "1"},
                  {"i": 1, "j": 0, "k": 1, "c": "1"}]}
COCHAIN = {"n": 2, "dim": 2, "coeffs": [{"multiset": [0, 1], "k": 1, "c": "1/2"}]}
SERIES = [{"n": 1, "dim": 2, "coeffs": [{"multiset": [1], "k": 0, "c": "1"}], "order": 1}]


def _entry(doc, **changes):
    return dict(doc, sc=[dict(doc["sc"][0], **changes)] + doc["sc"][1:])


def _coeff(doc, **changes):
    return dict(doc, coeffs=[dict(doc["coeffs"][0], **changes)])


LOADERS = {
    "algebra": algebra_from_json_dict,
    "cochain": SymCochain.from_json_dict,
    "series": lambda doc: series_from_json_list(doc, arity=1),
}

# (loader, field the error names, document)
LOOSE = [
    ("algebra", "dim", dict(ALGEBRA, dim=2.7)),
    ("algebra", "dim", dict(ALGEBRA, dim=True)),
    ("algebra", "i", _entry(ALGEBRA, i=0.9)),
    ("algebra", "j", _entry(ALGEBRA, j="0")),
    ("algebra", "k", _entry(ALGEBRA, k=False)),
    ("algebra", "labels", dict(ALGEBRA, labels=["e", "e"])),
    ("algebra", "labels", dict(ALGEBRA, labels=["e", 1])),
    ("cochain", "n", dict(COCHAIN, n=2.0)),
    ("cochain", "n", {"n": 1.5, "dim": 2, "coeffs": [{"multiset": [1], "k": 0, "c": "1"}]}),
    ("cochain", "dim", dict(COCHAIN, dim=True)),
    ("cochain", "k", _coeff(COCHAIN, k=False)),
    ("cochain", "multiset entry", _coeff(COCHAIN, multiset=[0, 1.0])),
    ("series", "order", [dict(SERIES[0], order=1.7)]),
    ("series", "order", [dict(SERIES[0], order=True)]),
    ("series", "k", [dict(SERIES[0], coeffs=[dict(SERIES[0]["coeffs"][0], k=0.0)])]),
]
IDS = [f"{loader}-{field.split()[0]}-{i}" for i, (loader, field, _) in enumerate(LOOSE)]


@pytest.mark.parametrize("loader", ["algebra", "cochain", "series"])
def test_well_formed_documents_load(loader):
    doc = {"algebra": ALGEBRA, "cochain": COCHAIN, "series": SERIES}[loader]
    LOADERS[loader](json.loads(json.dumps(doc)))


@pytest.mark.parametrize("loader, field, doc", LOOSE, ids=IDS)
def test_library_rejects_loose_field(loader, field, doc):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        LOADERS[loader](doc)


@pytest.mark.parametrize("loader, field, doc", LOOSE, ids=IDS)
def test_cli_rejects_loose_field(loader, field, doc, tmp_path, capsys, corpus_dir):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = {"algebra": ["check", str(bad)],
            "cochain": ["bracket", str(bad), str(bad)],
            "series": ["gauge", "--series", str(bad), "--order", "1",
                       str(corpus_dir / "j2_1_0.json")]}[loader]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ") and f": {field} must be" in captured.err
