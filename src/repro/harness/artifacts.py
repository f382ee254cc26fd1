"""Persistent, content-addressed artifact cache for the harness.

Every evaluation artifact (Tables 1/2, Figures 4-8, the ablations) fans
out over 10 workloads x many knob settings, but the expensive stages —
functional tracing, baseline timing, p-thread selection — depend only
on a small key: (program content, hierarchy, machine, constraints,
source tree).  :class:`ArtifactCache` stores those stage outputs on
disk under a stable hash of that key, so repeated bench sessions (and
the worker processes of a parallel sweep) reuse each other's work
instead of re-simulating from scratch.

Layout: ``<root>/<kind>/<aa>/<key>.<ext>`` where ``<aa>`` is the first
two hex digits of the key (keeps directories small), ``kind`` is one of
``trace`` / ``baseline`` / ``perfect_l2`` / ``selection``, and the
extension is ``.json`` for the dict-codec kinds or ``.pkl`` for
selections (whose p-thread bodies are instruction graphs; pickle is the
pragmatic codec).  Every key holds :func:`source_digest`, a hash of
the package's own source, so an entry is only ever read by a tree
whose every module is byte-identical to the one that wrote it: an edit
to a codec, a simulator or the selector can never replay an older
tree's answer.  Each edit therefore starts a cold store; old entries
stay on disk until ``repro cache clear``.

The root is ``$REPRO_CACHE_DIR`` when set, else ``~/.cache/repro``;
setting ``REPRO_CACHE_DIR`` to ``off`` / ``0`` / the empty string
disables persistence (see :meth:`ArtifactCache.from_env`).

How often each stage was served from memory, served from this store or
computed is counted by the runner in the metrics registry
(``harness.cache.*``); the store's own size is published by
:func:`publish_cache_gauges` when a snapshot is taken.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import pickle
import threading
from pathlib import Path
from typing import Dict, Optional, Union

from repro.isa.program import Program
from repro.obs import get_registry

#: Cache kinds and their storage codec.
_KIND_CODECS = {
    "trace": "json",
    "baseline": "json",
    "perfect_l2": "json",
    "selection": "pickle",
}

_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}


def _json_default(obj):
    """Canonicalize dataclasses (and tuples of them) and enums for key
    hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        encoded = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        encoded["__type__"] = type(obj).__name__
        return encoded
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for cache key")


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """sha256 over the relative path and bytes of every ``*.py`` file of
    the imported ``repro`` package, computed once per process.

    It is the code identity in every :func:`stable_key`.  The whole
    tree is hashed, not each kind's import closure: a per-module digest
    would keep more hits, but a producer left out of a closure would
    replay stale artifacts, and a whole-tree digest cannot leave one
    out.
    """
    root = Path(__file__).resolve().parents[1]
    hasher = hashlib.sha256()
    names = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py"))
    for name in names:
        data = (root / name).read_bytes()
        hasher.update(f"{name}\0{len(data)}\0".encode("utf-8"))
        hasher.update(data)
    return hasher.hexdigest()


def stable_key(kind: str, **parts) -> str:
    """A stable hex digest of a cache key description.

    The digest covers the artifact kind, :func:`source_digest` and
    every keyword part (dataclasses are canonicalized field by field,
    enums by name), so a change to any source file, configuration or
    workload content lands in a different cache slot.
    """
    payload = {"kind": kind, "source": source_digest(), **parts}
    blob = json.dumps(payload, sort_keys=True, default=_json_default)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def program_digest(program: Program) -> str:
    """Content digest of a program: instructions plus data image.

    Keys that include this digest are truly content-addressed — two
    builds of the same suite name with different input parameters (or a
    changed generator) never collide.  The digest is memoized on the
    program object because data images can hold tens of thousands of
    words.
    """
    cached = getattr(program, "_repro_digest", None)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    for inst in program.instructions:
        hasher.update(str(inst).encode("utf-8"))
        hasher.update(b"\n")
    # The data image in insertion order: exact for any int, and a build
    # that stored the same words in another order can only miss.
    hasher.update(repr(program.data.words).encode("ascii"))
    digest = hasher.hexdigest()
    program._repro_digest = digest
    return digest


class ArtifactCache:
    """On-disk content-addressed store for harness stage outputs.

    Args:
        root: cache directory; created lazily on first store.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()

    @classmethod
    def from_env(
        cls, environ: Optional[Dict[str, str]] = None
    ) -> Optional["ArtifactCache"]:
        """Build the cache the environment asks for.

        ``REPRO_CACHE_DIR`` names the root; unset falls back to
        ``~/.cache/repro``; the values ``off`` / ``0`` / ``none`` /
        ``disabled`` / empty disable persistence (returns ``None``).
        """
        environ = os.environ if environ is None else environ
        raw = environ.get("REPRO_CACHE_DIR")
        if raw is not None and raw.strip().lower() in _DISABLED_VALUES:
            return None
        if raw:
            return cls(raw)
        return cls(Path.home() / ".cache" / "repro")

    # -- paths ----------------------------------------------------------

    def path(self, kind: str, key: str) -> Path:
        ext = "pkl" if _KIND_CODECS[kind] == "pickle" else "json"
        return self.root / kind / key[:2] / f"{key}.{ext}"

    # -- storage --------------------------------------------------------

    def load(self, kind: str, key: str):
        """Return the stored payload for ``key`` or ``None``.

        JSON kinds return the decoded dict (callers apply their
        ``from_dict``); the pickle kind returns the object directly.  A
        corrupt or truncated entry (e.g. a killed writer predating the
        atomic-rename path) is treated as a miss, not an error.
        """
        target = self.path(kind, key)
        try:
            if _KIND_CODECS[kind] == "pickle":
                with target.open("rb") as handle:
                    return pickle.load(handle)
            return json.loads(target.read_text())
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt bytes make pickle raise far more than
            # UnpicklingError (ValueError, KeyError, AttributeError,
            # UnicodeDecodeError, ...); every decode failure is a miss.
            return None

    def store(self, kind: str, key: str, payload) -> None:
        """Atomically persist ``payload`` under ``key``.

        Writes to a temporary name of its own (process and thread id)
        then ``os.replace``s it into place, so concurrent sweep workers
        and serve worker threads racing on the same key each leave a
        complete file and the last writer wins (they wrote identical
        bytes anyway — the key is content-addressed).
        """
        target = self.path(kind, key)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            if _KIND_CODECS[kind] == "pickle":
                with tmp.open("wb") as handle:
                    pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            else:
                tmp.write_text(json.dumps(payload))
            os.replace(tmp, target)
        finally:
            if tmp.exists():
                tmp.unlink()

    # -- maintenance ----------------------------------------------------

    def entry_count(self) -> Dict[str, int]:
        """Number of stored artifacts per kind."""
        counts = {}
        for kind in _KIND_CODECS:
            base = self.root / kind
            counts[kind] = (
                sum(1 for _ in base.glob("*/*")) if base.is_dir() else 0
            )
        return counts

    def size_bytes(self, kind: Optional[str] = None) -> int:
        """Stored bytes of one kind, or of every kind the cache owns.

        Anything else under the root (a retired kind's directory, a
        stray file) is not counted, just as :meth:`clear` never
        removes it.
        """
        if kind is None:
            return sum(self.size_bytes(name) for name in _KIND_CODECS)
        if kind not in _KIND_CODECS:
            raise KeyError(f"unknown artifact kind {kind!r}")
        base = self.root / kind
        if not base.is_dir():
            return 0
        return sum(
            path.stat().st_size for path in base.rglob("*") if path.is_file()
        )

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete stored artifacts; returns the number removed.

        With ``kind`` only that kind's entries are removed; an unknown
        kind raises ``KeyError`` rather than silently clearing nothing.
        """
        if kind is not None and kind not in _KIND_CODECS:
            raise KeyError(f"unknown artifact kind {kind!r}")
        kinds = _KIND_CODECS if kind is None else (kind,)
        removed = 0
        for kind in kinds:
            base = self.root / kind
            if not base.is_dir():
                continue
            for path in sorted(base.glob("*/*")):
                path.unlink()
                removed += 1
            for bucket in sorted(base.iterdir()):
                if bucket.is_dir() and not any(bucket.iterdir()):
                    bucket.rmdir()
        return removed


def publish_cache_gauges(artifacts: Optional[ArtifactCache]) -> None:
    """Set ``harness.cache.entries`` / ``harness.cache.bytes``.

    Both walk the whole store, so they are set when a snapshot is
    taken, not after every stage.  With no persistent cache they read
    zero, so the names export either way.
    """
    registry = get_registry()
    entries = size = 0
    if artifacts is not None:
        entries = sum(artifacts.entry_count().values())
        size = artifacts.size_bytes()
    registry.gauge("harness.cache.entries").set(entries)
    registry.gauge("harness.cache.bytes").set(size)
