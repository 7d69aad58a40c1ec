"""Gate-level netlist substrate.

This subpackage provides the structural representation every other layer
builds on: combinational cell kinds and their logic functions
(:mod:`~repro.netlist.cells`), a synthetic 180 nm standard-cell library
(:mod:`~repro.netlist.library`), the :class:`~repro.netlist.netlist.Netlist`
container, levelisation, placement-derived parasitics and a structural
Verilog writer/parser.  Structural linting lives in :mod:`repro.drc`
(:func:`~repro.drc.check_netlist_drc`).
"""

from .cells import (
    CELL_ARITY,
    CELL_FUNCTIONS,
    SEQUENTIAL_KINDS,
    evaluate_kind,
    is_combinational_kind,
)
from .library import CellSpec, Library, default_library
from .netlist import Gate, FlipFlop, Netlist
from .buffering import fanout_violations, insert_fanout_buffers
from .levelize import levelize
from .parasitics import ParasiticModel, extract_net_caps
from .verilog import parse_verilog, write_verilog

__all__ = [
    "CELL_ARITY",
    "CELL_FUNCTIONS",
    "SEQUENTIAL_KINDS",
    "CellSpec",
    "FlipFlop",
    "Gate",
    "Library",
    "Netlist",
    "ParasiticModel",
    "default_library",
    "evaluate_kind",
    "extract_net_caps",
    "fanout_violations",
    "insert_fanout_buffers",
    "is_combinational_kind",
    "levelize",
    "parse_verilog",
    "write_verilog",
]
