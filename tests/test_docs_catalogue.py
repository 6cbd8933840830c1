"""The docs name only catalogue series, and DESIGN.md tables all of them.

DESIGN.md §6 carries the one prose copy of the metric catalogue: a row
per series with its kind, labels and owning view.  These tests check it
row for row against :data:`repro.telemetry.instruments.CATALOGUE`, and
check that every backticked ``*_total`` name in README.md and DESIGN.md
is a catalogue series.
"""

import pathlib
import re

import pytest

from repro.telemetry.instruments import CATALOGUE

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADER = "| series | kind | labels | view |"


def design_table():
    """``(name, kind, labels, view)`` cells of the DESIGN.md table."""
    lines = (ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER)
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, kind, labels, view = [cell.strip() for cell in line.strip("|").split("|")]
        rows.append((name.strip("`"), kind, labels, view))
    return rows


def test_design_tables_the_catalogue_row_for_row():
    want = [
        (row.name, row.kind, ", ".join(row.labels) or "—", row.view or "—")
        for row in CATALOGUE
    ]
    assert design_table() == want


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_docs_name_only_catalogue_series(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    named = {
        word
        for span in re.findall(r"`([^`\n]+)`", text)
        for word in re.findall(r"\b\w+_total\b", span)
    }
    assert named, "%s names no series" % doc
    unknown = sorted(named - {row.name for row in CATALOGUE})
    assert not unknown, "%s names series outside the catalogue: %s" % (doc, unknown)
