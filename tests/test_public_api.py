"""The README's export list names exactly what ``feedsel`` exports."""

import re
from pathlib import Path

import feedsel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_export_paragraph_names_exactly_the_public_api():
    text = README.read_text()
    start = text.index("The top-level `feedsel` package exports")
    paragraph = text[start:text.index("\n\n", start)]
    named = re.findall(r"`([^`]+)`", paragraph.split("exports", 1)[1])
    assert len(named) == len(set(named))
    assert set(named) == set(feedsel.__all__)
    for name in named:
        assert getattr(feedsel, name) is not None
