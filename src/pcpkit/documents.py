"""Instance and report file formats.

An instance document is UTF-8 JSON:

    {
      "schema_version": 1,
      "n": 2,
      "f": [ [ {"coefficient": "-1.0", "exponents": [0, 0]},
               {"coefficient": "1.0",  "exponents": [0, 1]} ],
             ... one list of terms per component ... ],
      "g": [ ... ],
      "metadata": {"name": "..."}          // optional
    }

Coefficients travel as decimal strings so the float grammar never
depends on the consumer's JSON parser.  Serialization is canonical:
terms in graded lexicographic order, coefficients in shortest
round-trip decimal form; parse followed by serialize is the identity on
canonical documents.

A report document wraps any payload with the command name and a full
config echo, so every report can be reproduced from its own header.
A record (a certificate, checkpoint, trace, trial, summary, probe report
or Lemke result) becomes its payload by one rule, :func:`record_dict`:
its fields in order, so a record's field order is its report's key order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .exceptions import InputError, ParseError
from .polynomials import PolyMap, Polynomial
from .residuals import PcpInstance

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class InstanceDocument:
    instance: PcpInstance
    metadata: dict | None = None


def _expect(condition: bool, message: str, path: str):
    if not condition:
        raise ParseError(message, path)


def _parse_component(entry: Any, n: int, path: str) -> Polynomial:
    _expect(isinstance(entry, list), "component must be a list of terms", path)
    terms: dict[tuple[int, ...], float] = {}
    for k, term in enumerate(entry):
        term_path = f"{path}[{k}]"
        _expect(isinstance(term, dict), "term must be an object", term_path)
        unknown = set(term) - {"coefficient", "exponents"}
        _expect(not unknown, f"unknown keys {sorted(unknown)}", term_path)
        _expect("coefficient" in term, "missing 'coefficient'", term_path)
        _expect("exponents" in term, "missing 'exponents'", term_path)
        raw = term["coefficient"]
        _expect(isinstance(raw, str), "coefficient must be a decimal string", f"{term_path}.coefficient")
        try:
            coefficient = float(raw)
        except ValueError:
            raise ParseError(f"unparsable coefficient {raw!r}", f"{term_path}.coefficient")
        _expect(math.isfinite(coefficient), f"coefficient {raw!r} is not finite",
                f"{term_path}.coefficient")
        exponents = term["exponents"]
        _expect(
            isinstance(exponents, list)
            and all(isinstance(e, int) and not isinstance(e, bool) for e in exponents),
            "exponents must be a list of integers",
            f"{term_path}.exponents",
        )
        _expect(
            len(exponents) == n,
            f"exponent vector has length {len(exponents)}, expected {n}",
            f"{term_path}.exponents",
        )
        _expect(all(e >= 0 for e in exponents), "exponents must be >= 0", f"{term_path}.exponents")
        key = tuple(exponents)
        _expect(key not in terms, f"duplicate exponent vector {list(key)}", f"{term_path}.exponents")
        if coefficient != 0.0:
            terms[key] = coefficient
    try:
        return Polynomial(n, terms)
    except Exception as error:  # coefficient floor and friends
        raise ParseError(str(error), path)


def _parse_map(entry: Any, n: int, path: str) -> PolyMap:
    _expect(isinstance(entry, list), "map must be a list of components", path)
    _expect(len(entry) == n, f"map has {len(entry)} components, expected {n}", path)
    components = tuple(
        _parse_component(component, n, f"{path}[{i}]") for i, component in enumerate(entry)
    )
    return PolyMap(components)


def parse_instance_document(text: str) -> InstanceDocument:
    """Parse and validate an instance document; errors carry a JSON path."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise ParseError(f"invalid JSON: {error}", "$")
    _expect(isinstance(document, dict), "top level must be an object", "$")
    unknown = set(document) - {"schema_version", "n", "f", "g", "metadata"}
    _expect(not unknown, f"unknown keys {sorted(unknown)}", "$")
    for key in ("schema_version", "n", "f", "g"):
        _expect(key in document, f"missing '{key}'", "$")
    _expect(
        document["schema_version"] == SCHEMA_VERSION,
        f"unsupported schema_version {document['schema_version']!r}",
        "$.schema_version",
    )
    n = document["n"]
    _expect(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "n must be an integer >= 1", "$.n")
    metadata = document.get("metadata")
    if metadata is not None:
        _expect(isinstance(metadata, dict), "metadata must be an object", "$.metadata")
    f = _parse_map(document["f"], n, "$.f")
    g = _parse_map(document["g"], n, "$.g")
    try:
        instance = PcpInstance(f, g)
    except Exception as error:
        raise ParseError(str(error), "$")
    return InstanceDocument(instance=instance, metadata=metadata)


def parse_instance(text: str) -> PcpInstance:
    return parse_instance_document(text).instance


def _serialize_component(component: Polynomial) -> list[dict]:
    # term dicts are stored in graded lexicographic order already
    return [
        {"coefficient": repr(coefficient), "exponents": list(key)}
        for key, coefficient in component.terms.items()
    ]


def serialize_instance(inst: PcpInstance, metadata: dict | None = None) -> str:
    """Canonical JSON text for an instance (terms in graded-lex order)."""
    document: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "n": inst.n,
        "f": [_serialize_component(c) for c in inst.f.components],
        "g": [_serialize_component(c) for c in inst.g.components],
    }
    if metadata is not None:
        document["metadata"] = metadata
    return json.dumps(document, indent=2) + "\n"


def _json_fields(fields: list[tuple[str, Any]]) -> dict:
    return {name: value.tolist() if isinstance(value, np.ndarray)
            else list(value) if isinstance(value, tuple) else value
            for name, value in fields}


def record_dict(record) -> dict:
    """A dataclass record as a report dict, one key per field in field order.

    Nested records become dicts, and arrays and tuples become lists.
    """
    return asdict(record, dict_factory=_json_fields)


def report_document(command: str, config: dict, payload: dict) -> str:
    """Report JSON with a config echo; floats keep shortest round-trip form.

    NaN and infinite values (an overflowed residual) raise InputError.
    """
    document = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "payload": payload,
    }
    try:
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    except ValueError as error:
        raise InputError(f"report holds a non-finite number: {error}") from None
