"""SARIF 2.1.0 reporter: structural contract and schema validation.

The full OASIS schema is not vendored (no network in CI), so the test
embeds the subset of sarif-schema-2.1.0 covering everything our
reporter emits — required top-level properties, the run/tool/driver
shape, reportingDescriptors, results with physicalLocations — with
the spec's enums and required lists intact.  When ``jsonschema`` is
importable the document is validated against it; the structural
assertions run either way.
"""

import json
import pathlib

import pytest

from repro import cli
from repro.analyzer import (
    analyze_paths,
    default_rules,
    diff_baseline,
    render_sarif,
)
from repro.analyzer.sarif import FINGERPRINT_KEY, SARIF_VERSION

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The emitted subset of sarif-schema-2.1.0 (required/enums faithful).
SARIF_SCHEMA_SUBSET = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "name": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "fullDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {
                                                            "enum": [
                                                                "none",
                                                                "note",
                                                                "warning",
                                                                "error",
                                                            ]
                                                        }
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "columnKind": {
                        "enum": [
                            "utf16CodeUnits",
                            "unicodeCodePoints",
                        ]
                    },
                    "originalUriBaseIds": {"type": "object"},
                    "properties": {"type": "object"},
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer",
                                    "minimum": 0,
                                },
                                "level": {
                                    "enum": [
                                        "none",
                                        "note",
                                        "warning",
                                        "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type": (
                                                                    "string"
                                                                )
                                                            }
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": (
                                                                    "integer"
                                                                ),
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": (
                                                                    "integer"
                                                                ),
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                                "partialFingerprints": {
                                    "type": "object",
                                    "additionalProperties": {
                                        "type": "string"
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def bad_tree_log(tmp_path, monkeypatch):
    """A SARIF log with real findings, rendered from a bad file."""
    bad = tmp_path / "bad.py"
    marker = "TO" + "DO"  # split so this file carries no marker itself
    bad.write_text(
        "import random\n"
        "\n"
        "\n"
        "def f(items):\n"
        "    # %s: thread the seeded RNG through\n"
        "    random.shuffle(items)\n" % marker,
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    rules = default_rules()
    result = analyze_paths([str(bad)], rules)
    new, stale = diff_baseline(result.findings, {})
    return json.loads(render_sarif(result, new, stale, rules))


def test_sarif_log_matches_the_2_1_0_schema(tmp_path, monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    log = bad_tree_log(tmp_path, monkeypatch)
    jsonschema.validate(log, SARIF_SCHEMA_SUBSET)


def test_sarif_results_carry_locations_and_fingerprints(
    tmp_path, monkeypatch
):
    log = bad_tree_log(tmp_path, monkeypatch)
    assert log["version"] == SARIF_VERSION
    run = log["runs"][0]
    results = run["results"]
    assert results, "expected findings from the bad fixture"
    descriptors = run["tool"]["driver"]["rules"]
    ids = [d["id"] for d in descriptors]
    assert ids == sorted(ids)
    # The call-graph rules ship in the catalogue; their retired twins
    # do not.
    for code in ("RC101", "RC102"):
        assert code in ids
    for code in ("RC113", "RC114", "RC115", "RC116"):
        assert code not in ids
    for entry in results:
        assert descriptors[entry["ruleIndex"]]["id"] == entry["ruleId"]
        region = entry["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert FINGERPRINT_KEY in entry["partialFingerprints"]
        assert entry["level"] in ("note", "error")


def test_sarif_levels_track_rule_severity(tmp_path, monkeypatch):
    log = bad_tree_log(tmp_path, monkeypatch)
    by_rule = {}
    for entry in log["runs"][0]["results"]:
        by_rule.setdefault(entry["ruleId"], set()).add(entry["level"])
    # RC102 (global RNG) gates; RC110 to-do markers stay notes.
    assert by_rule.get("RC102") == {"error"}
    assert by_rule.get("RC110") == {"note"}
    for code, levels in by_rule.items():
        assert levels <= {"note", "error"}, code


def test_cli_emits_parseable_sarif_for_the_live_tree(
    monkeypatch, capsys
):
    monkeypatch.chdir(ROOT)
    code = cli.main(
        ["lint", "src/repro", "--baseline", "lint-baseline.json",
         "--format", "sarif"]
    )
    log = json.loads(capsys.readouterr().out)
    assert code == 0
    assert log["version"] == "2.1.0"
    # Clean tree: no results above the baseline.
    assert log["runs"][0]["results"] == []
    assert log["runs"][0]["properties"]["files"] > 90
