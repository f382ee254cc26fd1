"""Dynamic backward slicing and the slice tree."""

from repro.slicing.slice_tree import (
    SliceNode,
    SliceTree,
    build_slice_trees,
    build_slice_trees_for_roots,
)
from repro.slicing.slicer import DynamicSlice, Slicer

__all__ = [
    "DynamicSlice",
    "SliceNode",
    "SliceTree",
    "Slicer",
    "build_slice_trees",
    "build_slice_trees_for_roots",
]
