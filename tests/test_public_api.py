"""The README's export list names exactly what ``feedsel`` exports, and its
graph-helpers paragraph names only what exists."""

import re
from functools import reduce
from pathlib import Path

import feedsel
from feedsel import graphs, sfm

README = Path(__file__).resolve().parents[1] / "README.md"


def _paragraph(start_text: str) -> str:
    text = README.read_text()
    start = text.index(start_text)
    return text[start:text.index("\n\n", start)]


def test_readme_export_paragraph_names_exactly_the_public_api():
    paragraph = _paragraph("The top-level `feedsel` package exports")
    named = re.findall(r"`([^`]+)`", paragraph.split("exports", 1)[1])
    assert len(named) == len(set(named))
    assert set(named) == set(feedsel.__all__)
    for name in named:
        assert getattr(feedsel, name) is not None


def _resolve(name: str):
    """``name`` looked up in ``feedsel.graphs`` or ``feedsel.sfm``, or as a dotted path."""
    head, *rest = name.split(".")
    roots = {"feedsel": feedsel, **vars(sfm), **vars(graphs)}
    assert head in roots, f"{name} names nothing in feedsel.graphs or feedsel.sfm"
    return reduce(getattr, rest, roots[head])


def test_readme_graph_helpers_paragraph_names_only_existing_helpers():
    named = re.findall(r"`([^`]+)`", _paragraph("Graph helpers such as"))
    assert named
    for name in named:
        assert _resolve(name) is not None, name


def test_readme_python_block_runs_as_the_reference_example():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
