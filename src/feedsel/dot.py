"""Graphviz DOT export with deterministic node naming and ordering.

State nodes are circles named x1..xn, inputs are boxes u1..um, outputs are
diamonds y1..yp; feedback edges are dashed. Output is sorted throughout so
two exports of the same graph are byte-identical and diffable.
"""

from __future__ import annotations

from .graphs import ClosedLoopIndex, Condensation
from .model import FeedbackPattern, StructuredSystem

SHAPES = {"x": "circle", "u": "box", "y": "diamond"}


def system_to_dot(system: StructuredSystem, pattern: FeedbackPattern) -> str:
    """The closed-loop digraph of ``system`` with the feedback edges of ``pattern``."""
    index = ClosedLoopIndex(system)
    feedback = index.feedback_edges(index.check_links(pattern.links))
    kinds = (("x", system.n), ("u", system.m), ("y", system.p))  # in id order, from id 1
    label = ["", *(f"{kind}{k}" for kind, count in kinds for k in range(1, count + 1))]
    lines = ["digraph system {", "  rankdir=LR;"]
    lines += [f"  {v} [shape={SHAPES[v[0]]}];" for v in label[1:]]
    lines += [f"  {label[tail]} -> {label[head]};" for tail, head in sorted(index.edges())]
    lines += [f"  {label[t]} -> {label[h]} [style=dashed];" for t, h in sorted(feedback)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def condensation_to_dot(condensation: Condensation) -> str:
    lines = ["digraph condensation {", "  rankdir=LR;"]
    for k in range(1, condensation.scc_count + 1):
        states = ",".join(f"x{s}" for s in sorted(condensation.sccs[k - 1]))
        inputs = ",".join(f"u{i}" for i in sorted(condensation.input_incidence[k - 1]))
        outputs = ",".join(f"y{j}" for j in sorted(condensation.output_incidence[k - 1]))
        label = f"C{k}: {{{states}}}"
        if inputs:
            label += f"\\nin: {inputs}"
        if outputs:
            label += f"\\nout: {outputs}"
        lines.append(f'  C{k} [shape=box, label="{label}"];')
    for a, b in sorted(condensation.dag_edges):
        lines.append(f"  C{a} -> C{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
