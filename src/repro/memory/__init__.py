"""Memory system: main memory, caches, MSHRs, busses, hierarchies."""

from repro.memory.bus import Bus
from repro.memory.cache import Cache, CacheConfig
from repro.memory.hierarchy import (
    FunctionalHierarchy,
    HierarchyConfig,
    MemoryLevel,
    TimedHierarchy,
)
from repro.memory.main_memory import MainMemory, MemoryAlignmentError
from repro.memory.mshr import MshrFile
from repro.memory.prefetcher import StridePrefetcher

__all__ = [
    "Bus",
    "Cache",
    "CacheConfig",
    "FunctionalHierarchy",
    "HierarchyConfig",
    "MainMemory",
    "MemoryAlignmentError",
    "MemoryLevel",
    "MshrFile",
    "StridePrefetcher",
    "TimedHierarchy",
]
