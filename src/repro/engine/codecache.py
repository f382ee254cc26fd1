"""Persistent cache for generated engine source text.

Code generation is deterministic: for a given program content digest,
variant flags, and codegen schema version, ``compile_functional`` /
``compile_timing`` always emit the same module source.  That makes the
emitted text a content-addressed artifact like any other, so it rides
in the harness :class:`~repro.harness.artifacts.ArtifactCache` under a
dedicated ``codegen`` kind.  On a warm cache the compilers skip block
discovery and source emission entirely and go straight to
``compile()`` + ``exec()`` of the stored source — the dominant cold
cost of a tier-up.

Translation-validation results ride alongside: when ``REPRO_VERIFY=1``
proves a compilation clean, the entry is re-stored with
``validated: true`` and later loads skip re-validation of the same
bytes.

Invalidation is by key, never in place: ``CODEGEN_SCHEMA_VERSION`` is
part of every key and must be bumped whenever the emitted source shape
or the payload layout changes, and the package version plus the
program content digest are hashed in by ``stable_key`` /
``program_digest``.

This module keeps its imports lazy (`repro.harness.artifacts` imports
into the harness package, which transitively imports the engine) and
deals only in payload dicts — it never imports the compiler.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

#: Bump whenever the emitted source shape or payload layout changes;
#: part of every codegen cache key.
CODEGEN_SCHEMA_VERSION = 1

#: Payload keys every cached codegen entry must carry.
_REQUIRED_FIELDS = (
    "source",
    "starts",
    "lengths",
    "loads",
    "stores",
    "branches",
    "validated",
)


class CodeCache:
    """Load/store generated module source through the artifact cache.

    Counts its hits and misses in the metrics registry under
    ``engine.codegen.*``.
    """

    def __init__(self, artifacts: Any) -> None:
        self.artifacts = artifacts

    def key(
        self,
        program: Any,
        target: str,
        variant: Dict[str, Any],
        only_blocks: Optional[Sequence[int]] = None,
    ) -> str:
        """Stable key for one (program, target, variant) compilation."""
        from repro.harness.artifacts import program_digest

        return self.artifacts.key(
            "codegen",
            program=program_digest(program),
            codegen_schema=CODEGEN_SCHEMA_VERSION,
            target=target,
            variant=variant,
            only_blocks=(
                sorted(only_blocks) if only_blocks is not None else None
            ),
        )

    def load(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the cached codegen payload for ``key`` or ``None``.

        Counts a hit or miss on the ``engine.codegen.cache_hits`` /
        ``cache_misses`` registry counters (both registered on every
        consult so snapshots always carry the pair).  Structurally incomplete payloads — corrupt or
        written by other tooling — count as misses.
        """
        from repro.obs import get_registry

        registry = get_registry()
        hits = registry.counter("engine.codegen.cache_hits")
        misses = registry.counter("engine.codegen.cache_misses")
        payload = self.artifacts.load("codegen", key)
        if isinstance(payload, dict) and all(
            field in payload for field in _REQUIRED_FIELDS
        ):
            hits.inc()
            return payload
        misses.inc()
        return None

    def store(
        self,
        key: str,
        source: str,
        starts: Sequence[int],
        lengths: Sequence[int],
        loads: Sequence[int],
        stores: Sequence[int],
        branches: Sequence[int],
        validated: bool = False,
    ) -> None:
        """Persist one generated module under ``key``."""
        self.artifacts.store(
            "codegen",
            key,
            {
                "source": source,
                "starts": list(starts),
                "lengths": list(lengths),
                "loads": list(loads),
                "stores": list(stores),
                "branches": list(branches),
                "validated": bool(validated),
            },
        )

    def mark_validated(self, compiled: Any) -> None:
        """Re-store ``compiled``'s entry with the validated flag set.

        Called after a clean translation-validation pass so warm loads
        of the same bytes skip re-validation.  A compilation that never
        went through the cache (no ``cache_key``) is left alone.
        """
        key = getattr(compiled, "cache_key", None)
        if key is None:
            return
        compiled.validated = True
        self.store(
            key,
            compiled.source,
            compiled.starts,
            compiled.lengths,
            compiled.loads,
            compiled.stores,
            compiled.branches,
            validated=True,
        )


_SINGLETON: List[Any] = []


def get_code_cache() -> Optional[CodeCache]:
    """The process-wide code cache, or ``None`` when disabled.

    Built once from ``ArtifactCache.from_env()`` (honouring
    ``REPRO_CACHE_DIR``, including the ``off`` values); tests switch
    cache roots by calling :func:`reset_code_cache` after changing the
    environment.
    """
    if not _SINGLETON:
        from repro.harness.artifacts import ArtifactCache

        artifacts = ArtifactCache.from_env()
        _SINGLETON.append(
            CodeCache(artifacts) if artifacts is not None else None
        )
    return _SINGLETON[0]


def reset_code_cache() -> None:
    """Drop the singleton so the next consult re-reads the environment.

    Also clears the compiler's in-process memo: callers reset to get a
    genuinely cold compilation path (tests, cold benchmarks), and a
    warm memo would otherwise serve compilations from before the
    reset.
    """
    _SINGLETON.clear()
    from repro.engine.compiler import clear_compile_memo

    clear_compile_memo()
