"""Concurrency regressions for the compile memo and in-flight guard.

The serve daemon compiles from multiple worker threads.  Pre-fix, the
unsynchronized memo meant racing threads could each miss the memo and
``exec`` the same generated module, and concurrent evictions could blow
up inside ``OrderedDict``.  The hammer here pins one-compilation-per-key
and bounded-memo behaviour under deliberate thread storms.
"""

import sys
import threading

import pytest

from repro.engine import compiler
from repro.engine.compiler import (
    _MEMO_LIMIT,
    _memo_len,
    clear_compile_memo,
    compile_timing,
)
from repro.engine.decode import DecodedProgram
from repro.isa import assemble
from tests.engine.test_compiler import BASELINE_SHAPE

# A few hundred instructions: big enough that one compilation spans
# several GIL slices at a tiny switch interval, so unguarded racers
# genuinely overlap inside the emit/exec path (a 5-line program
# compiles within one slice and never exposes the race).
_BODY = "\n".join(
    f"    addi r{2 + i % 20}, r{2 + i % 20}, {i % 7}" for i in range(600)
)
LOOP_SOURCE = f"""
    addi r1, r0, 3
loop:
{_BODY}
    addi r1, r1, -1
    bgt  r1, r0, loop
    halt
"""

THREADS = 8

@pytest.fixture
def cold_compiler():
    """An empty compile memo, emptied again afterwards."""
    clear_compile_memo()
    yield
    clear_compile_memo()


@pytest.fixture
def exec_counter(monkeypatch):
    """Count every generated-module ``exec`` (the expensive step)."""
    calls = []
    lock = threading.Lock()
    real = compiler._exec_module

    def counting(source, filename):
        with lock:
            calls.append(filename)
        return real(source, filename)

    monkeypatch.setattr(compiler, "_exec_module", counting)
    return calls


def _storm(work) -> None:
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(THREADS)
        errors = []

        def body(index):
            try:
                barrier.wait()
                work(index)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=body, args=(index,))
            for index in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
    finally:
        sys.setswitchinterval(previous)


def test_racing_threads_compile_each_key_once(cold_compiler, exec_counter):
    """THREADS racing compiles of one program exec exactly one module."""
    decoded = DecodedProgram(assemble(LOOP_SOURCE))
    results = [None] * THREADS

    def work(index):
        results[index] = compile_timing(decoded, **BASELINE_SHAPE)

    _storm(work)
    assert len(exec_counter) == 1
    assert results[0] is not None
    assert all(compiled is results[0] for compiled in results)


def test_distinct_keys_compile_independently(cold_compiler, exec_counter):
    """Different variants are different keys: one exec per variant."""
    decoded = DecodedProgram(assemble(LOOP_SOURCE))

    def work(index):
        # Half the threads ask for the prefetching variant, half for
        # the plain one; each variant must compile exactly once.
        compile_timing(
            decoded, **dict(BASELINE_SHAPE, prefetching=bool(index % 2))
        )

    _storm(work)
    assert len(exec_counter) == 2


def test_memo_stays_bounded_under_concurrent_puts():
    """Concurrent put/evict keeps the memo at the limit, no KeyErrors."""
    clear_compile_memo()
    try:

        def work(index):
            for serial in range(4 * _MEMO_LIMIT):
                compiler._memo_put(f"hammer-{index}-{serial}", object())
                assert _memo_len() <= _MEMO_LIMIT

        _storm(work)
        assert _memo_len() <= _MEMO_LIMIT
    finally:
        clear_compile_memo()
