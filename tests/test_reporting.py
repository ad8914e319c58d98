"""Serialization-layer checks.

Frozen strings here are the contract: reports must not drift between
runs or versions without a deliberate change landing in this file too.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from abset.reporting import (
    VERSION,
    canonical_json,
    cell,
    jsonable,
    write_csv,
    write_json,
)
from abset.words import parse_word


def test_version_string():
    assert VERSION == "abset 0.1.0"


def test_fraction_payload_fields():
    assert jsonable(Fraction(1, 3)) == {
        "num": "1",
        "den": "3",
        "dec": "3.33333333333e-01",
    }
    assert jsonable(Fraction(-22, 7)) == {
        "num": "-22",
        "den": "7",
        "dec": "-3.14285714286e+00",
    }


def test_fraction_payload_zero():
    assert jsonable(Fraction(0))["dec"] == "0"
    assert jsonable(Fraction(0))["num"] == "0"


def test_jsonable_renders_each_integer_once_per_call():
    # a shared big denominator is made decimal once in a call, and the
    # memo does not outlive the call
    big = 3 ** 5000
    first = jsonable([Fraction(1, big), Fraction(2, big)])
    assert first[0]["den"] is first[1]["den"] and first[0]["den"] == str(big)
    assert jsonable([Fraction(1, big)])[0]["den"] is not first[0]["den"]


def test_jsonable_passthrough():
    assert jsonable(True) is True
    assert jsonable(None) is None
    assert jsonable(17) == 17
    assert jsonable(1.5) == 1.5
    assert jsonable("s") == "s"


def test_jsonable_containers():
    assert jsonable((True, None, 1.5)) == [True, None, 1.5]
    assert jsonable(frozenset({3, 1, 2})) == [1, 2, 3]
    assert jsonable({2: "b", 1: "a"}) == {"2": "b", "1": "a"}


def test_jsonable_dataclass():
    @dataclass
    class Row:
        x: int
        y: Fraction

    assert jsonable(Row(1, Fraction(1, 4))) == {
        "x": 1,
        "y": {"num": "1", "den": "4", "dec": "2.50000000000e-01"},
    }


def test_jsonable_word_uses_compact_form():
    assert jsonable(parse_word("( ( x y ) ^ 3 )")) == "((x y) ^ 3)"


def test_canonical_json_sorted_and_terminated():
    text = canonical_json({"b": 1, "a": Fraction(1, 2)})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    # round-trips as plain JSON with the fraction expanded
    back = json.loads(text)
    assert back == {"a": {"num": "1", "den": "2", "dec": "5.00000000000e-01"}, "b": 1}


def test_canonical_json_stable():
    payload = {"z": [Fraction(3, 7), {"k": frozenset({2, 1})}], "a": None}
    assert canonical_json(payload) == canonical_json(payload)


def test_canonical_json_ascii_only():
    text = canonical_json({"k": "café"})
    assert text == text.encode("ascii", "strict").decode("ascii")
    assert "\\u00e9" in text


def test_write_json_round_trip(tmp_path):
    path = tmp_path / "r.json"
    write_json(path, {"n": Fraction(5, 8)})
    raw = path.read_bytes()
    assert raw == canonical_json({"n": Fraction(5, 8)}).encode()


def test_write_json_byte_identical_across_calls(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    payload = {"rows": [Fraction(1, 3), 2, None], "flag": True}
    write_json(a, payload)
    write_json(b, payload)
    assert a.read_bytes() == b.read_bytes()


def test_cell_rendering():
    assert cell(Fraction(3, 8)) == "3/8"
    assert cell(None) == ""
    assert cell(7) == "7"
    assert cell("x") == "x"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [[Fraction(1, 2), None], [3, "z"]])
    assert path.read_text() == "a,b\n1/2,\n3,z\n"
