"""SWC morphology parsing (standard 7-column neuron trace format)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import CycleError, DanglingParentError, DuplicateNodeError, SwcFormatError


@dataclass(frozen=True)
class SwcNode:
    id: int
    type_code: int
    x: float
    y: float
    z: float
    radius: float
    parent_id: int  # -1 for roots


@dataclass
class SwcMorphology:
    nodes: list

    def __post_init__(self):
        by_id = {}
        for node in self.nodes:
            if node.id in by_id:
                raise DuplicateNodeError(f"duplicate node id {node.id}")
            by_id[node.id] = node
        for node in self.nodes:
            if node.parent_id != -1 and node.parent_id not in by_id:
                raise DanglingParentError(
                    f"node {node.id} references missing parent id {node.parent_id}")
        self._check_acyclic(by_id)
        self.by_id = by_id

    @staticmethod
    def _check_acyclic(by_id):
        state = {}  # 0 visiting, 1 done
        for start in by_id:
            if start in state:
                continue
            chain = []
            nid = start
            while nid != -1 and nid not in state:
                state[nid] = 0
                chain.append(nid)
                nid = by_id[nid].parent_id
            if nid != -1 and state.get(nid) == 0:
                raise CycleError(f"parent cycle through node id {nid}")
            for c in chain:
                state[c] = 1

    def __len__(self):
        return len(self.nodes)

    def roots(self):
        return [n for n in self.nodes if n.parent_id == -1]

    def children_count(self):
        counts = {n.id: 0 for n in self.nodes}
        for n in self.nodes:
            if n.parent_id != -1:
                counts[n.parent_id] += 1
        return counts

    def segments(self):
        """All (parent, child) node pairs."""
        return [(self.by_id[n.parent_id], n) for n in self.nodes if n.parent_id != -1]


def _geometry_problem(node: SwcNode) -> str | None:
    """Why `node` cannot be drawn (coordinates and radius finite, radius > 0)."""
    if not all(map(math.isfinite, (node.x, node.y, node.z, node.radius))):
        return "coordinates and radius must be finite"
    return f"radius must be > 0, got {node.radius}" if node.radius <= 0 else None


def parse_swc(text: str) -> SwcMorphology:
    """Parse SWC text: '#' comments and 7-field records
    (id type x y z radius parent), with finite coordinates and a finite
    radius > 0; `SwcFormatError` names the first line that breaks this."""
    nodes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 7:
            raise SwcFormatError(
                f"line {lineno}: expected 7 fields, got {len(fields)}: {raw!r}")
        try:
            node = SwcNode(
                id=int(fields[0]),
                type_code=int(fields[1]),
                x=float(fields[2]),
                y=float(fields[3]),
                z=float(fields[4]),
                radius=float(fields[5]),
                parent_id=int(fields[6]),
            )
        except ValueError as exc:
            raise SwcFormatError(f"line {lineno}: {exc}: {raw!r}") from None
        if problem := _geometry_problem(node):
            raise SwcFormatError(f"line {lineno}: {problem}: {raw!r}")
        nodes.append(node)
    return SwcMorphology(nodes)


def serialize_swc(m: SwcMorphology) -> str:
    # repr() keeps full float precision so parse -> serialize -> parse is identity
    lines = ["# generated by wavecube"]
    for n in m.nodes:
        lines.append(f"{n.id} {n.type_code} {n.x!r} {n.y!r} {n.z!r} "
                     f"{n.radius!r} {n.parent_id}")
    return "\n".join(lines) + "\n"
