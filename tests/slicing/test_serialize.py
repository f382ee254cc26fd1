"""Tests for the canonical dict form of a slice tree (the fuzz oracle's
``slice_prefix`` comparison)."""

import pytest

from repro.slicing.serialize import tree_to_dict
from repro.slicing.slice_tree import build_slice_trees


@pytest.fixture(scope="module")
def pharmacy_trees(pharmacy_small_run):
    return build_slice_trees(pharmacy_small_run.trace, scope=512, max_length=24)


class TestRoundTrip:
    def test_node_annotations_preserved(self, pharmacy_trees):
        """Every node appears once, with every annotation, and children
        in PC order."""
        for tree in pharmacy_trees.values():
            record = tree_to_dict(tree)
            assert record["load_pc"] == tree.load_pc
            assert record["slices_inserted"] == tree.slices_inserted
            pending = [(record["root"], tree.root)]
            seen = 0
            while pending:
                data, node = pending.pop()
                seen += 1
                assert data["pc"] == node.pc
                assert data["visits"] == node.visits
                assert data["dist_sum"] == node.dist_sum
                assert data["dep_depths"] == list(node.dep_depths)
                assert data["truncated"] == node.truncated
                children = sorted(node.children.values(), key=lambda c: c.pc)
                assert [c["pc"] for c in data["children"]] == [
                    c.pc for c in children
                ]
                pending.extend(zip(data["children"], children))
            assert seen == tree.num_nodes()
