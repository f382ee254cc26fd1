"""Parameters of the analytical pre-execution model.

The paper stresses that the framework is "intuitively parameterized to
model the salient microarchitecture features"; this module is that
parameter set.  Everything the aggregate-advantage formula needs to
know about the machine and the pre-execution implementation lives here:

* ``bw_seq`` — processor sequencing (fetch/rename) width, ``BWseq``.
* ``unassisted_ipc`` — measured IPC of the unassisted program, used to
  derive the main thread's expected sequencing rate ``BWseq-mt`` as the
  2:1 IPC-weighted average of IPC and ``BWseq`` (the paper's heuristic
  accounting for speculative execution).
* ``bw_seq_pt`` — sequencing bandwidth granted to a p-thread,
  ``BWseq-pt``; the paper pins this to 1 because a p-thread is a serial
  computation.
* ``mem_latency`` — ``Lmem``, the miss latency there is to tolerate.
* ``load_latency`` — execution latency assumed for loads *inside* a
  computation when estimating SCDH (the paper's working example uses
  unit latency; against the timing model the L1 hit time is the better
  estimate).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ModelParams:
    """Inputs to the aggregate-advantage model."""

    bw_seq: int = 8
    unassisted_ipc: float = 1.0
    bw_seq_pt: float = 1.0
    mem_latency: int = 70
    load_latency: int = 2

    def __post_init__(self) -> None:
        if self.bw_seq < 1:
            raise ValueError("bw_seq must be >= 1")
        if self.bw_seq_pt <= 0:
            raise ValueError("bw_seq_pt must be positive")
        if self.mem_latency < 1:
            raise ValueError("mem_latency must be >= 1")
        if self.unassisted_ipc <= 0:
            raise ValueError("unassisted_ipc must be positive")
        if self.load_latency < 1:
            raise ValueError("load_latency must be >= 1")

    @property
    def bw_seq_mt(self) -> float:
        """Expected main-thread sequencing rate ``BWseq-mt``.

        The paper: "we heuristically calculate BWseq-mt as the average
        of the unassisted main thread IPC and the sequencing width of
        the processor (BWseq), weighted 2-to-1 in favor of the IPC."
        """
        return (2.0 * self.unassisted_ipc + self.bw_seq) / 3.0

    def overhead_per_instruction(self) -> float:
        """Overhead cycles charged per sequenced p-thread instruction.

        Equation 4 of the paper: a p-thread occupies ``SIZE / BWseq``
        sequencing cycles, discounted by the main thread's expected
        utilization ``BWseq-mt / BWseq`` (opportunity cost — slots the
        main thread would not have used are free).
        """
        return self.bw_seq_mt / (self.bw_seq * self.bw_seq)

    def with_mem_latency(self, latency: int) -> "ModelParams":
        """Copy with a different ``Lmem`` (Figure 8 sweeps)."""
        return replace(self, mem_latency=latency)


@dataclass(frozen=True)
class SelectionConstraints:
    """P-thread construction constraints (paper §4.1 defaults).

    Attributes:
        scope: maximum slicing scope in dynamic instructions.
        max_pthread_length: maximum p-thread body size, applied *after*
            optimization (the paper reports post-optimization lengths).
        optimize: enable p-thread optimization (store-load pair
            elimination, constant folding, register-move elimination).
        merge: enable merging of p-threads with matching dataflow
            prefixes.
    """

    scope: int = 1024
    max_pthread_length: int = 32
    optimize: bool = True
    merge: bool = True
    #: Minimum dynamic-miss support (``DCpt-cm``) for a candidate: a
    #: *static* p-thread is one launched repeatedly, so single-instance
    #: slices are statistical noise, not candidates.
    min_support: int = 2

    def __post_init__(self) -> None:
        if self.scope < 1:
            raise ValueError("scope must be >= 1")
        if self.max_pthread_length < 1:
            raise ValueError("max_pthread_length must be >= 1")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")
