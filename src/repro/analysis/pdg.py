"""The Program Dependence Graph (high-level representation).

Nodes are statements, predicate expressions (loop headers, ``if``
conditions) and region nodes; edges are control dependences (region →
member, predicate → its regions) and the data dependences computed by
:mod:`repro.analysis.depend`.  Annotated with transformation history this
becomes the paper's **APDG** (see :mod:`repro.repr2.apdg`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.control_dep import ControlDepTree, build_control_dep_tree
from repro.analysis.depend import Dependence, DependenceGraph, analyze_dependences
from repro.lang.ast_nodes import IfStmt, Loop, Program


@dataclass(frozen=True)
class PDGNode:
    """One PDG node: ``("stmt", sid)`` or ``("region", rid)``."""

    kind: str
    ident: int

    def __str__(self) -> str:  # pragma: no cover - display aid
        return f"{'S' if self.kind == 'stmt' else 'R'}{self.ident}"


@dataclass(frozen=True)
class PDGEdge:
    """One PDG edge."""

    src: PDGNode
    dst: PDGNode
    #: ``"control"`` or a data-dependence kind (``flow``/``anti``/…).
    kind: str
    dep: Optional[Dependence] = None


class PDG:
    """Program dependence graph over one program snapshot."""

    def __init__(self, program: Program, tree: ControlDepTree,
                 dgraph: DependenceGraph):
        self.program = program
        self.tree = tree
        self.dgraph = dgraph
        self.nodes: List[PDGNode] = []
        self.edges: List[PDGEdge] = []
        self._build()

    def _build(self) -> None:
        for rid in self.tree.regions:
            self.nodes.append(PDGNode("region", rid))
        for s in self.program.walk():
            self.nodes.append(PDGNode("stmt", s.sid))
        # control dependence edges
        for rid, region in self.tree.regions.items():
            rnode = PDGNode("region", rid)
            if region.owner_sid >= 0:
                self.edges.append(PDGEdge(PDGNode("stmt", region.owner_sid),
                                          rnode, "control"))
            for sid in region.members:
                self.edges.append(PDGEdge(rnode, PDGNode("stmt", sid), "control"))
        # data dependence edges
        for d in self.dgraph.deps:
            self.edges.append(PDGEdge(PDGNode("stmt", d.src),
                                      PDGNode("stmt", d.dst), d.kind, d))

    # -- queries --------------------------------------------------------------

    def data_edges(self) -> List[PDGEdge]:
        """All non-control (data/I-O dependence) edges."""
        return [e for e in self.edges if e.kind != "control"]

    def dependent_regions(self, rid: int) -> List[int]:
        """Regions holding statements that depend on code in region ``rid``.

        Used by the affected-region computation: a change inside ``rid``
        can invalidate transformations wherever its values flow.
        """
        inside = set(self.tree.stmts_under(rid))
        out = set()
        for d in self.dgraph.deps:
            if d.src in inside and d.dst not in inside:
                out.add(self.tree.region_of.get(d.dst, 0))
        return sorted(out)


def build_pdg(program: Program,
              tree: Optional[ControlDepTree] = None,
              dgraph: Optional[DependenceGraph] = None) -> PDG:
    """Construct the PDG (building the CDT and dependence graph if needed)."""
    if tree is None:
        tree = build_control_dep_tree(program)
    if dgraph is None:
        dgraph = analyze_dependences(program)
    return PDG(program, tree, dgraph)
