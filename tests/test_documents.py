"""Instance document schema: round trips and error paths."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcpkit import (
    ParseError,
    parse_instance,
    parse_instance_document,
    random_instance,
    report_document,
    serialize_instance,
)

HYPERBOLA_DOC = {
    "schema_version": 1,
    "n": 2,
    "f": [
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [0, 1]},
        ],
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [1, 1]},
        ],
    ],
    "g": [
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [0, 1]},
        ],
        [
            {"coefficient": "-1.0", "exponents": [0, 0]},
            {"coefficient": "1.0", "exponents": [1, 1]},
        ],
    ],
}


class TestParse:
    def test_degrees_from_exponents(self):
        inst = parse_instance(json.dumps(HYPERBOLA_DOC))
        assert inst.n == 2
        assert inst.degree_f == 2
        assert inst.degree_g == 2

    def test_exponent_length_mismatch(self):
        bad = json.loads(json.dumps(HYPERBOLA_DOC))
        bad["f"][0][0]["exponents"] = [0, 0, 0]
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps(bad))
        assert info.value.path == "$.f[0][0].exponents"

    def test_numeric_coefficient_rejected(self):
        bad = json.loads(json.dumps(HYPERBOLA_DOC))
        bad["f"][0][0]["coefficient"] = -1.0
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps(bad))
        assert "coefficient" in info.value.path

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_coefficient_rejected(self, raw):
        # float() parses these; a NaN or infinite coefficient would certify nothing
        bad = json.loads(json.dumps(HYPERBOLA_DOC))
        bad["f"][0][0]["coefficient"] = raw
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps(bad))
        assert info.value.path == "$.f[0][0].coefficient"

    def test_duplicate_exponents_rejected(self):
        bad = json.loads(json.dumps(HYPERBOLA_DOC))
        bad["f"][0].append({"coefficient": "2.0", "exponents": [0, 0]})
        with pytest.raises(ParseError):
            parse_instance(json.dumps(bad))

    def test_wrong_component_count(self):
        bad = json.loads(json.dumps(HYPERBOLA_DOC))
        bad["f"] = bad["f"][:1]
        with pytest.raises(ParseError) as info:
            parse_instance(json.dumps(bad))
        assert info.value.path == "$.f"

    def test_unknown_keys_rejected(self):
        bad = json.loads(json.dumps(HYPERBOLA_DOC))
        bad["extra"] = 1
        with pytest.raises(ParseError):
            parse_instance(json.dumps(bad))

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_instance("{not json")

    def test_metadata_passthrough(self):
        doc = json.loads(json.dumps(HYPERBOLA_DOC))
        doc["metadata"] = {"name": "hyperbola"}
        parsed = parse_instance_document(json.dumps(doc))
        assert parsed.metadata == {"name": "hyperbola"}


class TestRoundTrip:
    def test_canonical_fixed_point(self):
        text = serialize_instance(parse_instance(json.dumps(HYPERBOLA_DOC)))
        again = serialize_instance(parse_instance(text))
        assert text == again

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_instances_round_trip(self, seed):
        inst = random_instance(2, (2, 1), (1, 2), seed)
        text = serialize_instance(inst)
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text

    def test_full_precision_coefficients(self):
        inst = random_instance(1, (3,), (2,), seed=77)
        recovered = parse_instance(serialize_instance(inst))
        for original, parsed in zip(
            inst.f.components + inst.g.components,
            recovered.f.components + recovered.g.components,
        ):
            assert original.terms == parsed.terms  # bit-for-bit equality


class TestReportDocument:
    def test_shape(self):
        text = report_document("solve", {"seed": 0}, {"count": 1})
        document = json.loads(text)
        assert document["command"] == "solve"
        assert document["config"] == {"seed": 0}
        assert document["payload"] == {"count": 1}
        assert document["schema_version"] == 1

    def test_floats_round_trip_precision(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        text = report_document("residual", {}, {"value": value})
        assert json.loads(text)["payload"]["value"] == value
