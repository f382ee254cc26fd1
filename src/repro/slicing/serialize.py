"""A slice tree as a canonical JSON-compatible dict.

The fuzz oracle compares trees built two ways (derived from a widened
slice table and built fresh) by this form: every node annotation, with
children in PC order.
"""

from __future__ import annotations

from repro.slicing.slice_tree import SliceNode, SliceTree


def _node_to_dict(node: SliceNode) -> dict:
    return {
        "pc": node.pc,
        "visits": node.visits,
        "dist_sum": node.dist_sum,
        "dep_depths": list(node.dep_depths),
        "truncated": node.truncated,
        "children": [
            _node_to_dict(child)
            for child in sorted(node.children.values(), key=lambda c: c.pc)
        ],
    }


def tree_to_dict(tree: SliceTree) -> dict:
    """Serialize one tree to a JSON-compatible dict."""
    return {
        "load_pc": tree.load_pc,
        "slices_inserted": tree.slices_inserted,
        "root": _node_to_dict(tree.root),
    }
