"""Basic-block specializing compiler for the timing simulator.

The interpreter in :mod:`repro.timing.core` pays per-instruction costs
that have nothing to do with the simulated machine: a ``kind[pc]``
dispatch chain, half a dozen parallel-array subscripts, and a Python
call into an opcode lambda.  This module removes them by
*specializing*: it walks a :class:`~repro.engine.decode.DecodedProgram`,
partitions it into straight-line basic blocks, and
``compile()``/``exec()``-generates one Python function per block in
which every opcode, register index, immediate, branch target, and
latency is baked into the source as a constant.  The common ALU and
branch operations are inlined as arithmetic expressions that are
bit-identical to the :mod:`repro.isa.opcodes` lambdas, so a compiled
run produces exactly the same architectural and timing results as the
interpreter.  The functional simulator has no compiled engine: it
traces each program once (DESIGN.md §6).

Block discovery
---------------

Leaders are: PC 0, every branch/jump target, the fall-through successor
of every control transfer (which also covers ``jal`` return addresses),
and any extra PCs the caller supplies (p-thread trigger PCs).  The
program text is then partitioned into maximal straight-line runs that
end at a terminator (branch, jump, ``jal``, ``jr``, ``halt``), just
before the next leader, or at :data:`MAX_BLOCK` instructions.  Schedule
*region* boundaries are dynamic instruction counts, not PCs, so they
cannot be block leaders; the timing dispatcher instead caps compiled
execution at the next boundary and single-steps across it with the
interpreter (see ``TimingSimulator._run_tiered``).  Every block of the
partition is compiled, once per program variant, before the variant's
first instruction runs.

Two-stage binding
-----------------

Generated source is compiled once per (program, variant) into a
``_bind(ctx)`` factory.  Each simulation run calls ``_bind`` with its
run-specific objects (memory, hierarchy, predictor, ...): the factory
closes the block functions over them and returns a dispatch table
``{leader_pc: (fn, length, index)}``.  ``exec`` happens once; per-run
binding is just closure creation.

Fallback
--------

:func:`compile_timing` returns ``None`` when a program contains
anything the codegen cannot specialize (an opcode with no inline
template and no decoded callable, or a program over
:data:`MAX_PROGRAM` instructions, where compile time could rival
simulation time).  The simulator treats ``None`` as "run the
interpreter"; a computed ``jr`` landing mid-block is handled at run
time by interpreting until the next leader, so it never needs a
whole-program fallback.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.decode import (
    DecodedProgram,
    K_ALU_I,
    K_ALU_R,
    K_BRANCH,
    K_HALT,
    K_JAL,
    K_JR,
    K_JUMP,
    K_LOAD,
    K_NOP,
    K_STORE,
)
from repro.isa.opcodes import Opcode, WORD_SIZE
from repro.obs import get_registry as obs_registry

#: The timing simulator's engines: the reference interpreter and the
#: tiered engine that runs this module's compiled blocks.
ENGINE_INTERP = "interp"
ENGINE_TIERED = "tiered"

#: Programs longer than this are not compiled (compile time guard).
MAX_PROGRAM = 65_536
#: Straight-line runs are split so one block never exceeds this.
MAX_BLOCK = 256

_TERMINATORS = frozenset((K_BRANCH, K_JUMP, K_JAL, K_JR, K_HALT))
_DIRECT_TARGETS = frozenset((K_BRANCH, K_JUMP, K_JAL))

_MASK64 = (1 << 64) - 1
_HIGH = 1 << 63

#: Alignment mask for inlining the aligned-address memory fast path;
#: ``None`` (non-power-of-two word size) keeps the method-call path.
_ALIGN_MASK = (
    WORD_SIZE - 1 if WORD_SIZE & (WORD_SIZE - 1) == 0 else None
)


def resolve_engine(explicit: Optional[str] = None) -> str:
    """The timing engine a simulator runs: tiered unless ``explicit``
    names the interpreter.

    Any other name raises, so a typo cannot silently change which
    engine ran.
    """
    if explicit is None or explicit == ENGINE_TIERED:
        return ENGINE_TIERED
    if explicit == ENGINE_INTERP:
        return ENGINE_INTERP
    raise ValueError(
        f"unknown engine {explicit!r}: expected "
        f"'{ENGINE_TIERED}' or '{ENGINE_INTERP}'"
    )


def register_engine_metrics() -> None:
    """Register the engine's catalog counters at zero.

    The metric catalog requires ``engine.compile.*`` and
    ``engine.tier.compiled_blocks`` in every default-pipeline snapshot,
    but a run the compiler refuses, an interpreter run, or a run whose
    module is memoized compiles nothing.  ``counter()`` is
    get-or-create, so this pins the names without incrementing
    anything.
    """
    registry = obs_registry()
    registry.counter("engine.compile.programs")
    registry.counter("engine.compile.blocks")
    registry.counter("engine.tier.compiled_blocks")


def discover_blocks(
    decoded: DecodedProgram, extra_leaders: Sequence[int] = ()
) -> List[Tuple[int, int]]:
    """Partition the program into basic blocks ``[(start, end), ...]``.

    Every PC in ``[0, len)`` lands in exactly one block; ``end`` is
    exclusive.  Unreachable text compiles to blocks that simply never
    run.
    """
    n = len(decoded)
    kind = decoded.kind
    target = decoded.target
    leaders = {0}
    leaders.update(pc for pc in extra_leaders if 0 <= pc < n)
    for pc in range(n):
        k = kind[pc]
        if k in _TERMINATORS:
            if pc + 1 < n:
                leaders.add(pc + 1)
            if k in _DIRECT_TARGETS:
                t = target[pc]
                if 0 <= t < n:
                    leaders.add(t)
    blocks: List[Tuple[int, int]] = []
    start = 0
    for pc in range(n):
        if (
            kind[pc] in _TERMINATORS
            or pc + 1 >= n
            or pc + 1 in leaders
            or pc + 1 - start >= MAX_BLOCK
        ):
            blocks.append((start, pc + 1))
            start = pc + 1
    return blocks


# ----------------------------------------------------------------------
# Inline expression templates (bit-identical to the opcodes.py lambdas).
# ----------------------------------------------------------------------


def _wrap(expr: str) -> str:
    """Two's-complement 64-bit wrap; identical to ``opcodes._to_signed``."""
    return f"(({expr}) + {_HIGH} & {_MASK64}) - {_HIGH}"


_ALU_TEMPLATES = {
    Opcode.ADD: lambda a, b: _wrap(f"{a} + {b}"),
    Opcode.SUB: lambda a, b: _wrap(f"{a} - {b}"),
    Opcode.MUL: lambda a, b: _wrap(f"{a} * {b}"),
    Opcode.AND: lambda a, b: _wrap(f"{a} & {b}"),
    Opcode.OR: lambda a, b: _wrap(f"{a} | {b}"),
    Opcode.XOR: lambda a, b: _wrap(f"{a} ^ {b}"),
    Opcode.SLL: lambda a, b: _wrap(f"{a} << ({b} & 63)"),
    Opcode.SRL: lambda a, b: _wrap(f"({a} & {_MASK64}) >> ({b} & 63)"),
    Opcode.SRA: lambda a, b: f"{a} >> ({b} & 63)",
    Opcode.SLT: lambda a, b: f"(1 if {a} < {b} else 0)",
    Opcode.SLTU: lambda a, b: (
        f"(1 if ({a} & {_MASK64}) < ({b} & {_MASK64}) else 0)"
    ),
    Opcode.ADDI: lambda a, b: _wrap(f"{a} + {b}"),
    Opcode.ANDI: lambda a, b: _wrap(f"{a} & {b}"),
    Opcode.ORI: lambda a, b: _wrap(f"{a} | {b}"),
    Opcode.XORI: lambda a, b: _wrap(f"{a} ^ {b}"),
    Opcode.SLLI: lambda a, b: _wrap(f"{a} << ({b} & 63)"),
    Opcode.SRLI: lambda a, b: _wrap(f"({a} & {_MASK64}) >> ({b} & 63)"),
    Opcode.SRAI: lambda a, b: f"{a} >> ({b} & 63)",
    Opcode.SLTI: lambda a, b: f"(1 if {a} < {b} else 0)",
    Opcode.LUI: lambda a, b: _wrap(f"{b} << 16"),
    Opcode.MOV: lambda a, b: f"{a}",
}

_BRANCH_OPS = {
    Opcode.BEQ: "==",
    Opcode.BNE: "!=",
    Opcode.BLT: "<",
    Opcode.BGE: ">=",
    Opcode.BLE: "<=",
    Opcode.BGT: ">",
}


class _Unsupported(Exception):
    """Raised during codegen when an instruction cannot be specialized."""


def _alu_expr(decoded: DecodedProgram, pc: int) -> str:
    """Inline value expression for the ALU instruction at ``pc``."""
    op = decoded.program.instructions[pc].op
    template = _ALU_TEMPLATES.get(op)
    if template is None:
        raise _Unsupported(f"no ALU template for {op}")
    a = f"regs[{decoded.rs1[pc]}]"
    if decoded.kind[pc] == K_ALU_R:
        b = f"regs[{decoded.rs2[pc]}]"
    else:
        b = f"({decoded.imm[pc]})"
    return template(a, b)


def _branch_expr(decoded: DecodedProgram, pc: int) -> str:
    """Inline taken-predicate expression for the branch at ``pc``."""
    op = decoded.program.instructions[pc].op
    cmp = _BRANCH_OPS.get(op)
    if cmp is None:
        raise _Unsupported(f"no branch template for {op}")
    return f"regs[{decoded.rs1[pc]}] {cmp} regs[{decoded.rs2[pc]}]"


def _addr_expr(decoded: DecodedProgram, pc: int) -> str:
    imm = decoded.imm[pc]
    if imm:
        return f"regs[{decoded.rs1[pc]}] + ({imm})"
    return f"regs[{decoded.rs1[pc]}]"


class CompiledBlocks:
    """A compiled program variant: bind factory plus per-block metadata.

    Attributes:
        bind: ``bind(ctx) -> {leader_pc: (fn, length, index)}``.
        starts / lengths: per-block leader PC and instruction count.
        loads / stores / branches: static per-block event counts, so the
            dispatcher recovers dynamic totals from per-block execution
            counts instead of bumping counters inside the hot code.
        max_len: longest block (the dispatcher's budget guard).
        source: the generated Python source (for tests and debugging).
        validated: translation validation has proved this source clean
            (the compile memo shares the verdict with every later
            simulator of this process).
    """

    __slots__ = (
        "bind",
        "starts",
        "lengths",
        "loads",
        "stores",
        "branches",
        "max_len",
        "source",
        "validated",
    )

    def __init__(
        self,
        bind,
        starts,
        lengths,
        loads,
        stores,
        branches,
        source,
    ):
        self.bind = bind
        self.starts = starts
        self.lengths = lengths
        self.loads = loads
        self.stores = stores
        self.branches = branches
        self.max_len = max(lengths) if lengths else 0
        self.source = source
        self.validated = False

    @property
    def num_blocks(self) -> int:
        return len(self.starts)

    def fold_counts(self, counts: List[int], totals) -> None:
        """Fold per-block execution ``counts`` into ``totals``.

        ``totals`` carries ``loads``/``stores``/``branches`` counters;
        one multiply per block at fold time replaces per-instruction
        counter bumps at run time.
        """
        loads, stores, branches = self.loads, self.stores, self.branches
        for index, count in enumerate(counts):
            if count:
                totals.loads += count * loads[index]
                totals.stores += count * stores[index]
                totals.branches += count * branches[index]


def _exec_module(source: str, filename: str):
    """``compile()`` + ``exec()`` generated source; returns ``_bind``."""
    namespace: Dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_bind"]


def _finish(
    lines: List[str],
    blocks: List[Tuple[int, int]],
    counters: List[Tuple[int, int, int]],
    filename: str,
) -> CompiledBlocks:
    """Assemble, compile and exec the generated module source."""
    table = ", ".join(
        f"{start}: (_b{start}, {end - start}, {index})"
        for index, (start, end) in enumerate(blocks)
    )
    lines.append(f"    return {{{table}}}")
    source = "\n".join(lines) + "\n"
    bind = _exec_module(source, filename)
    registry = obs_registry()
    registry.counter("engine.compile.programs").inc()
    registry.counter("engine.compile.blocks").inc(len(blocks))
    return CompiledBlocks(
        bind=bind,
        starts=[start for start, _ in blocks],
        lengths=[end - start for start, end in blocks],
        loads=[c[0] for c in counters],
        stores=[c[1] for c in counters],
        branches=[c[2] for c in counters],
        source=source,
    )


#: Process-wide memo of finished compilations, keyed by
#: :func:`_compile_key`.  Compilation is deterministic, but a cold
#: pipeline builds many simulator instances per program (baseline,
#: perfect-L2, every pre-execution and validation mode), and each instance
#: would otherwise re-emit and re-``exec`` the same module.  Bounded
#: FIFO so fuzz campaigns streaming thousands of distinct programs
#: through here cannot grow it without limit.  Generated code lives
#: here only: it is never persisted, so what runs is always what the
#: current emitter produces.
_MEMO_LIMIT = 128
_compile_memo: "OrderedDict[tuple, CompiledBlocks]" = OrderedDict()
# Guards every _compile_memo access: get/move_to_end, put/evict, clear.
# OrderedDict mutation is not atomic under concurrent callers (the serve
# daemon compiles from multiple worker threads), so an unguarded
# check-then-insert can double-insert and racing evictions can raise
# KeyError out of popitem/move_to_end.
_memo_lock = threading.Lock()


def _memo_get(key: tuple) -> Optional[CompiledBlocks]:
    with _memo_lock:
        memo = _compile_memo.get(key)
        if memo is not None:
            _compile_memo.move_to_end(key)
        return memo


def _memo_put(key: tuple, compiled: CompiledBlocks) -> None:
    with _memo_lock:
        _compile_memo[key] = compiled
        _compile_memo.move_to_end(key)
        while len(_compile_memo) > _MEMO_LIMIT:
            _compile_memo.popitem(last=False)


def _memo_len() -> int:
    with _memo_lock:
        return len(_compile_memo)


def clear_compile_memo() -> None:
    """Drop all memoized compilations (test / cold-benchmark seam)."""
    with _memo_lock:
        _compile_memo.clear()


# Per-key in-flight compilation guard.  Threads compiling *different*
# programs proceed in parallel; threads racing on the *same* key
# serialize, so the second one finds the first's result in the memo and
# the module is emitted/exec'd exactly once per key.
_inflight_lock = threading.Lock()
_inflight: Dict[tuple, List] = {}  # key -> [lock, waiter_count]


@contextmanager
def _compile_guard(key: tuple) -> Iterator[None]:
    with _inflight_lock:
        entry = _inflight.get(key)
        if entry is None:
            entry = [threading.Lock(), 0]
            _inflight[key] = entry
        entry[1] += 1
    entry[0].acquire()
    try:
        yield
    finally:
        entry[0].release()
        with _inflight_lock:
            entry[1] -= 1
            if entry[1] == 0 and _inflight.get(key) is entry:
                del _inflight[key]


def _compile_key(decoded: DecodedProgram, variant: tuple) -> tuple:
    """Memo key for one compilation: ``(digest, variant)``.

    The program is named by its content digest, not its ``id()``: fuzz
    campaigns stream thousands of programs through the memo, and
    CPython reuses the id of a collected object.
    """
    from repro.harness.artifacts import program_digest

    return (program_digest(decoded.program), variant)


def _emit_mem_load(rd: int, out: List[str]) -> None:
    """Value read at ``a``: aligned addresses hit the word dict
    directly; the misaligned path calls the real method (which raises
    the same :class:`~repro.memory.main_memory.MemoryAlignmentError`
    the interpreter would)."""
    if _ALIGN_MASK is None:
        out.append(f"        {'v = ' if rd else ''}mem_load(a)")
        return
    out.append(f"        if a & {_ALIGN_MASK}:")
    out.append("            mem_load(a)")
    if rd:
        out.append("        v = words_get(a, 0)")


def _emit_mem_store(value_expr: str, out: List[str]) -> None:
    if _ALIGN_MASK is None:
        out.append(f"        mem_store(a, {value_expr})")
        return
    out.append(f"        if a & {_ALIGN_MASK}:")
    out.append(f"            mem_store(a, {value_expr})")
    out.append(f"        words[a] = {value_expr}")


# ----------------------------------------------------------------------
# Timing engine codegen
# ----------------------------------------------------------------------


def compile_timing(
    decoded: DecodedProgram,
    *,
    window: int,
    bw_seq: int,
    dispatch_latency: int,
    mispredict_penalty: int,
    forward_latency: int,
    launching: bool,
    stealing: bool,
    prefetching: bool,
    trigger_pcs: frozenset,
    hinted_pcs: frozenset,
) -> Optional[CompiledBlocks]:
    """Compile a timing-simulation variant of ``decoded``.

    Block functions take ``(executed, fetch_cycle, cap_used,
    last_retire, regs, rdy)`` and return the same scalars (plus the
    next PC) so the dispatcher can keep the hot state in locals.  Rare
    events (L1 misses, mispredictions, hint coverage) tally into a
    shared 3-slot list; frequent per-instruction counts are recovered
    statically from block execution counts.  Every block of the
    partition is emitted.  Returns ``None`` on fallback; finished
    compilations are memoized process-wide.
    """
    n = len(decoded)
    if not n or n > MAX_PROGRAM:
        return None
    filename = "<repro-compiled-timing>"
    key = _compile_key(
        decoded,
        (
            window,
            bw_seq,
            dispatch_latency,
            mispredict_penalty,
            forward_latency,
            launching,
            stealing,
            prefetching,
            trigger_pcs,
            hinted_pcs,
        ),
    )
    with _compile_guard(key):
        compiled = _memo_get(key)
        if compiled is not None:
            return compiled
        blocks = discover_blocks(
            decoded, extra_leaders=sorted(trigger_pcs) if launching else ()
        )
        lines = [
            "def _bind(ctx):",
            "    ring = ctx['ring']",
            "    sq = ctx['store_queue']",
            "    sq_get = sq.get",
            "    predict = ctx['predict']",
            "    predict_ind = ctx['predict_ind']",
            "    mt = ctx['mt_access']",
            "    mem_load = ctx['mem_load']",
            "    mem_store = ctx['mem_store']",
            "    words = ctx['words']",
            "    words_get = words.get",
            "    mexp = ctx['miss_exposure']",
            "    tallies = ctx['tallies']",
        ]
        if stealing:
            lines.append("    sget = ctx['stolen'].get")
        if launching:
            lines.append("    trig = ctx['trig']")
            lines.append("    launch = ctx['launch']")
            if hinted_pcs:
                lines.append("    bh = ctx['branch_hints']")
                lines.append("    bh_get = bh.get")
                lines.append("    bc = ctx['branch_counts']")
                lines.append("    bc_get = bc.get")
        if prefetching:
            lines.append("    observe = ctx['observe']")
            lines.append("    pt = ctx['pt_access']")
        ctx = _TimingCtx(
            window=window,
            bw_seq=bw_seq,
            dispatch_latency=dispatch_latency,
            mispredict_penalty=mispredict_penalty,
            forward_latency=forward_latency,
            launching=launching,
            stealing=stealing,
            prefetching=prefetching,
            trigger_pcs=trigger_pcs,
            hinted_pcs=hinted_pcs,
        )
        counters: List[Tuple[int, int, int]] = []
        try:
            for start, end in blocks:
                counters.append(_emit_timing_block(decoded, start, end, ctx, lines))
        except _Unsupported:
            return None
        compiled = _finish(lines, blocks, counters, filename)
        _memo_put(key, compiled)
        return compiled


class _TimingCtx:
    """Compile-time constants threaded through timing codegen."""

    __slots__ = (
        "window",
        "bw_seq",
        "dispatch_latency",
        "mispredict_penalty",
        "forward_latency",
        "launching",
        "stealing",
        "prefetching",
        "trigger_pcs",
        "hinted_pcs",
    )

    def __init__(self, **kw):
        for name, value in kw.items():
            setattr(self, name, value)


def _emit_timing_prologue(ctx: _TimingCtx, out: List[str]) -> None:
    """Fetch-bandwidth and window accounting for one instruction."""
    out.append("        executed += 1")
    if ctx.window & (ctx.window - 1) == 0:
        out.append(f"        rs = executed & {ctx.window - 1}")
    else:
        out.append(f"        rs = executed % {ctx.window}")
    out.append("        ws = ring[rs]")
    out.append("        if ws > fetch_cycle:")
    out.append("            fetch_cycle = ws")
    out.append("            cap_used = 0")
    if ctx.stealing:
        out.append(
            f"        while cap_used >= {ctx.bw_seq} - sget(fetch_cycle, 0):"
        )
    else:
        # With no slot stealing, cap_used never exceeds bw_seq, so the
        # interpreter's while-loop runs at most once.
        out.append(f"        if cap_used >= {ctx.bw_seq}:")
    out.append("            fetch_cycle += 1")
    out.append("            cap_used = 0")
    out.append("        cap_used += 1")
    out.append(f"        disp = fetch_cycle + {ctx.dispatch_latency}")


def _emit_retire(out: List[str]) -> None:
    out.append("        if complete < last_retire:")
    out.append("            complete = last_retire")
    out.append("        last_retire = complete")
    out.append("        ring[rs] = complete")


def _emit_trigger(ctx: _TimingCtx, pc: int, out: List[str]) -> None:
    if ctx.launching and pc in ctx.trigger_pcs:
        out.append(f"        w = trig[0].get({pc})")
        out.append("        if w is not None:")
        out.append("            launch(w, disp)")


_RETURN = "executed, fetch_cycle, cap_used, last_retire"


def _emit_timing_block(
    decoded: DecodedProgram,
    start: int,
    end: int,
    ctx: _TimingCtx,
    out: List[str],
) -> Tuple[int, int, int]:
    kind = decoded.kind
    rd_arr = decoded.rd
    rs1_arr = decoded.rs1
    rs2_arr = decoded.rs2
    lat_arr = decoded.latency
    out.append(
        f"    def _b{start}(executed, fetch_cycle, cap_used, last_retire, "
        "regs, rdy):"
    )
    loads = stores = branches = 0
    terminated = False
    for pc in range(start, end):
        k = kind[pc]
        rd = rd_arr[pc]
        rs1 = rs1_arr[pc]
        rs2 = rs2_arr[pc]
        emit = out.append
        _emit_timing_prologue(ctx, out)
        if k == K_ALU_R:
            emit(f"        ready = rdy[{rs1}]")
            emit(f"        r2 = rdy[{rs2}]")
            emit("        if r2 > ready:")
            emit("            ready = r2")
            emit("        if disp > ready:")
            emit("            ready = disp")
            emit(f"        complete = ready + {lat_arr[pc]}")
            if rd:
                emit(f"        regs[{rd}] = {_alu_expr(decoded, pc)}")
                emit(f"        rdy[{rd}] = complete")
        elif k == K_ALU_I:
            emit(f"        ready = rdy[{rs1}]")
            emit("        if disp > ready:")
            emit("            ready = disp")
            emit(f"        complete = ready + {lat_arr[pc]}")
            if rd:
                emit(f"        regs[{rd}] = {_alu_expr(decoded, pc)}")
                emit(f"        rdy[{rd}] = complete")
        elif k == K_LOAD:
            loads += 1
            emit(f"        a = {_addr_expr(decoded, pc)}")
            _emit_mem_load(rd, out)
            emit(f"        ready = rdy[{rs1}]")
            emit("        if disp > ready:")
            emit("            ready = disp")
            emit("        issue = ready + 1")
            emit("        fw = sq_get(a)")
            emit("        if fw is not None:")
            emit("            dr = fw[0]")
            emit(
                "            complete = (dr if dr > issue else issue)"
                f" + {ctx.forward_latency}"
            )
            emit("        else:")
            emit("            lvl, complete = mt(a, issue)")
            emit("            if lvl != 1:")
            emit("                tallies[0] += 1")
            emit("            if lvl == 3:")
            emit(f"                e = mexp.get({pc})")
            emit("                if e is None:")
            emit("                    e = [0, 0]")
            emit(f"                    mexp[{pc}] = e")
            emit("                e[0] += 1")
            emit("                x = complete - last_retire")
            emit("                if x > 0:")
            emit("                    e[1] += x")
            if ctx.prefetching:
                emit(f"            for tgt in observe({pc}, a):")
                emit("                pt(tgt, issue)")
            if rd:
                emit(f"        regs[{rd}] = v")
                emit(f"        rdy[{rd}] = complete")
        elif k == K_STORE:
            stores += 1
            emit(f"        a = {_addr_expr(decoded, pc)}")
            _emit_mem_store(f"regs[{rs2}]", out)
            emit(f"        ready = rdy[{rs1}]")
            emit("        if disp > ready:")
            emit("            ready = disp")
            emit("        complete = ready + 1")
            emit("        lvl, _c = mt(a, complete, True)")
            emit("        if lvl != 1:")
            emit("            tallies[0] += 1")
            emit("        if a in sq:")
            emit("            del sq[a]")
            emit(f"        r2 = rdy[{rs2}]")
            emit(
                "        sq[a] = ((complete if complete > r2 else r2), "
                f"regs[{rs2}])"
            )
            emit("        if len(sq) > 64:")
            emit("            del sq[next(iter(sq))]")
        elif k == K_BRANCH:
            branches += 1
            target = decoded.target[pc]
            emit(f"        t = {_branch_expr(decoded, pc)}")
            emit(f"        ready = rdy[{rs1}]")
            emit(f"        r2 = rdy[{rs2}]")
            emit("        if r2 > ready:")
            emit("            ready = r2")
            emit("        if disp > ready:")
            emit("            ready = disp")
            emit("        complete = ready + 1")
            hinted = ctx.launching and pc in ctx.hinted_pcs
            if hinted:
                emit(f"        inst = bc_get({pc}, 0)")
                emit(f"        bc[{pc}] = inst + 1")
                emit(f"        pp = bh_get({pc})")
                emit(
                    "        hint = pp.pop(inst, None) "
                    "if pp is not None else None"
                )
            emit(f"        if not predict({pc}, t, {target}):")
            emit("            tallies[1] += 1")
            if hinted:
                emit(
                    "            if hint is not None and hint[0] <= "
                    "fetch_cycle and hint[1] == (1 if t else 0):"
                )
                emit("                tallies[2] += 1")
                emit("            else:")
                emit(f"                fetch_cycle = complete + "
                     f"{ctx.mispredict_penalty}")
                emit("                cap_used = 0")
            else:
                emit(
                    f"            fetch_cycle = complete + "
                    f"{ctx.mispredict_penalty}"
                )
                emit("            cap_used = 0")
            _emit_retire(out)
            _emit_trigger(ctx, pc, out)
            emit(f"        return ({target} if t else {pc + 1}), {_RETURN}")
            terminated = True
            continue
        elif k == K_JUMP:
            branches += 1
            emit("        complete = disp")
            _emit_retire(out)
            _emit_trigger(ctx, pc, out)
            emit(f"        return {decoded.target[pc]}, {_RETURN}")
            terminated = True
            continue
        elif k == K_JAL:
            branches += 1
            emit("        complete = disp")
            if rd:
                emit(f"        regs[{rd}] = {pc + 1}")
                emit(f"        rdy[{rd}] = complete")
            _emit_retire(out)
            _emit_trigger(ctx, pc, out)
            emit(f"        return {decoded.target[pc]}, {_RETURN}")
            terminated = True
            continue
        elif k == K_JR:
            branches += 1
            emit(f"        ready = rdy[{rs1}]")
            emit("        if disp > ready:")
            emit("            ready = disp")
            emit("        complete = ready + 1")
            emit(f"        npc = regs[{rs1}]")
            emit(f"        if not predict_ind({pc}, npc):")
            emit("            tallies[1] += 1")
            emit(f"            fetch_cycle = complete + {ctx.mispredict_penalty}")
            emit("            cap_used = 0")
            _emit_retire(out)
            _emit_trigger(ctx, pc, out)
            emit(f"        return npc, {_RETURN}")
            terminated = True
            continue
        elif k == K_HALT:
            # The interpreter updates the retire ring and breaks before
            # the launch check; mirror that exactly.
            emit("        complete = disp")
            emit("        if complete > last_retire:")
            emit("            last_retire = complete")
            emit("        ring[rs] = last_retire")
            emit(f"        return -1, {_RETURN}")
            terminated = True
            continue
        elif k == K_NOP:
            emit("        complete = disp")
        else:
            raise _Unsupported(f"unknown kind {k} at pc {pc}")
        _emit_retire(out)
        _emit_trigger(ctx, pc, out)
    if not terminated:
        out.append(f"        return {end}, {_RETURN}")
    return loads, stores, branches
