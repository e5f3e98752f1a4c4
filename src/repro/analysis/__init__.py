"""Program analyses: the compiler substrate the undo technique needs.

The paper's technique sits on top of a conventional optimizing /
parallelizing compiler analysis stack; this package provides it:

* :mod:`repro.analysis.cfg` — basic blocks, control-flow graph, dominators
  (the low-level backbone).
* :mod:`repro.analysis.dataflow` — reaching definitions, liveness,
  available expressions (iterative bit-vector style, re-solved only
  where a change reaches).
* :mod:`repro.analysis.dag` — value-numbering DAG per basic block (the
  paper's low-level representation; becomes the ADAG when annotated).
* :mod:`repro.analysis.depend` — data-dependence analysis with subscript
  tests (ZIV/SIV/GCD) and direction vectors; I/O ordering dependences.
* :mod:`repro.analysis.control_dep` — control-dependence tree with region
  nodes for structured programs.
* :mod:`repro.analysis.pdg` — the Program Dependence Graph (high level).
* :mod:`repro.analysis.summaries` — Figure 3's data-dependence summaries
  on least-common-region nodes.
* :mod:`repro.analysis.incremental` — an instrumented analysis cache with
  event-driven, region-scoped invalidation.
"""

from repro.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.analysis.dataflow import DataflowResult, analyze_dataflow
from repro.analysis.dag import BlockDAG, build_block_dag
from repro.analysis.depend import Dependence, DependenceGraph, analyze_dependences
from repro.analysis.control_dep import ControlDepTree, build_control_dep_tree
from repro.analysis.pdg import PDG, build_pdg
from repro.analysis.summaries import RegionSummaries, build_summaries
from repro.analysis.incremental import AnalysisCache

__all__ = [
    "CFG",
    "BasicBlock",
    "build_cfg",
    "DataflowResult",
    "analyze_dataflow",
    "BlockDAG",
    "build_block_dag",
    "Dependence",
    "DependenceGraph",
    "analyze_dependences",
    "ControlDepTree",
    "build_control_dep_tree",
    "PDG",
    "build_pdg",
    "RegionSummaries",
    "build_summaries",
    "AnalysisCache",
]
