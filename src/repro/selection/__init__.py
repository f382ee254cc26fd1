"""P-thread selection: per-tree solver and whole-program drivers."""

from repro.selection.branch_selection import (
    BranchProfile,
    problem_branches,
    profile_branches,
    select_branch_pthreads,
)
from repro.selection.program_selector import (
    ProgramPrediction,
    ProgramSelection,
    select_pthreads,
)
from repro.selection.selector import (
    TreeCandidate,
    TreeSelection,
    enumerate_candidates,
    is_strict_ancestor,
    select_from_tree,
)

__all__ = [
    "BranchProfile",
    "ProgramPrediction",
    "ProgramSelection",
    "TreeCandidate",
    "TreeSelection",
    "enumerate_candidates",
    "is_strict_ancestor",
    "problem_branches",
    "profile_branches",
    "select_branch_pthreads",
    "select_from_tree",
    "select_pthreads",
]
