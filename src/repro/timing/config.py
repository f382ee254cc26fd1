"""Timing-model configuration and simulation modes.

The machine defaults follow the paper's base configuration: an 8-wide
dynamically-scheduled processor, 14-stage pipeline, 128 instructions in
flight, three extra thread contexts for p-threads, and bursty p-thread
injection of 8 instructions every 8 cycles per active p-thread.

:class:`SimMode` captures the paper's validation methodology as flag
combinations — the *overhead-only* implementations (execute-but-don't-
fill and sequence-only), the *latency-tolerance-only* implementation
(p-threads ride free), and the perfect-L2 limit used in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineConfig:
    """Processor core parameters for the timing model.

    Attributes:
        bw_seq: sequencing (fetch/rename) width in instructions/cycle.
        window: maximum instructions in flight.
        dispatch_latency: cycles from fetch to rename/dispatch.
        mispredict_penalty: fetch-redirect penalty after a resolved
            branch misprediction (front-end refill).
        store_forward_latency: store-queue forwarding latency.
        pthread_contexts: thread contexts available to p-threads.
        pthread_burst: p-thread instructions injected per burst.
        pthread_burst_period: cycles between bursts per active p-thread.
        stride_prefetch: enable the conventional PC-indexed stride
            prefetcher (the comparator of the paper's opening claim;
            prefetches fill the L2 only, like p-thread loads).
        stride_degree: lines prefetched ahead when confident.
    """

    bw_seq: int = 8
    window: int = 128
    dispatch_latency: int = 2
    mispredict_penalty: int = 10
    store_forward_latency: int = 2
    pthread_contexts: int = 3
    pthread_burst: int = 8
    pthread_burst_period: int = 8
    stride_prefetch: bool = False
    stride_degree: int = 2

    def __post_init__(self) -> None:
        if self.bw_seq < 1:
            raise ValueError("bw_seq must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.pthread_contexts < 0:
            raise ValueError("pthread_contexts must be >= 0")
        if self.pthread_burst < 1 or self.pthread_burst_period < 1:
            raise ValueError("p-thread burst parameters must be >= 1")
        for name in (
            "dispatch_latency",
            "mispredict_penalty",
            "store_forward_latency",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.stride_degree < 1:
            raise ValueError("stride_degree must be >= 1")


@dataclass(frozen=True)
class SimMode:
    """What the p-thread machinery is allowed to do in a run.

    Attributes:
        name: label used in reports.
        launch: p-threads are launched at triggers.
        execute: p-thread bodies execute (compute addresses, time their
            loads); with ``execute=False`` injected instructions are
            discarded immediately after consuming sequencing slots.
        steal: p-thread injection consumes main-thread sequencing slots.
        prefetch: p-thread loads fill the L2 (the pre-execution effect);
            with ``prefetch=False`` loads are timed against a phantom
            lookup and leave no state behind.
        perfect_l2: main-thread L2 misses are charged an L2 hit time
            (the perfect-L2 limit; implies no p-threads).
    """

    name: str
    launch: bool
    execute: bool
    steal: bool
    prefetch: bool
    perfect_l2: bool = False


#: No p-threads: the unassisted program.
BASELINE = SimMode("baseline", launch=False, execute=False, steal=False, prefetch=False)
#: Full pre-execution.
PRE_EXECUTION = SimMode("pre-exec", launch=True, execute=True, steal=True, prefetch=True)
#: Overhead only, execute flavour: p-threads run but never fill caches.
OVERHEAD_EXECUTE = SimMode(
    "overhead-execute", launch=True, execute=True, steal=True, prefetch=False
)
#: Overhead only, sequence flavour: slots are stolen, instructions discarded.
OVERHEAD_SEQUENCE = SimMode(
    "overhead-sequence", launch=True, execute=False, steal=True, prefetch=False
)
#: Latency tolerance only: p-threads prefetch but ride free.
LATENCY_ONLY = SimMode(
    "latency-only", launch=True, execute=True, steal=False, prefetch=True
)
#: Perfect L2: every main-thread L2 miss becomes an L2 hit.
PERFECT_L2 = SimMode(
    "perfect-l2", launch=False, execute=False, steal=False, prefetch=False,
    perfect_l2=True,
)
