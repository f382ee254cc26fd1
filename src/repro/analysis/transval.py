"""Translation validation for the timing simulator's compiled blocks.

The specializing compiler in :mod:`repro.engine.compiler` turns every
basic block of a :class:`~repro.engine.decode.DecodedProgram` into
generated Python source.  The differential suite and the fuzz oracle
check that generated code *dynamically* — on the inputs we happen to
run.  This module checks it *statically*, in the translation-validation
tradition: instead of proving the code generator correct once, every
emitted artifact is validated against an independently derived
reference, so a codegen bug is caught for all inputs at compile time.

How a block is validated
------------------------

1.  The generated ``_b<start>`` function is parsed with :mod:`ast` and
    abstractly interpreted over a symbolic machine state.  The result
    is an *effect summary*: final symbolic values for every register
    file slot written, an ordered list of side effects per effect
    stream (memory, hierarchy, store queue, retire ring, predictor,
    ...), and the symbolic successor PC expression.
2.  A *reference* for the same block is derived straight from the
    ``DecodedProgram`` arrays (opcode, register indices, immediates,
    branch targets, latencies): naive straight-line source mirroring
    the interpreter's per-kind statements, with each opcode application
    left as an opaque marker ``__op_<pc>(a, b)`` / ``__br_<pc>(a, b)``.
    The reference runs through the *same* symbolic extractor.
3.  The two summaries are compared.  Expressions are equivalent when
    they are structurally identical or agree on a battery of
    deterministic concrete vectors; marker applications evaluate
    through ``decoded.alu[pc]`` / ``decoded.branch[pc]`` — the
    interpreter's real opcode lambdas — so the compiler's inline
    arithmetic templates are checked against the ISA semantics they
    claim to reproduce, not against themselves.

Diagnostic codes
----------------

=======  ==============================================================
Code     Meaning
=======  ==============================================================
CG001    register dataflow mismatch (architectural register finals)
CG002    memory effect mismatch (order, address, or value of loads,
         stores, hierarchy or store-queue operations)
CG003    control-transfer mismatch (successor PC, block partition, or
         dispatch table)
CG004    latency / side-effect mismatch (ready times, timing scalars,
         retire ring, counters, predictor or launch interactions)
CG005    unvalidatable construct — the extractor refused a statement
         or expression shape it cannot model.  Always explicit, never
         silently skipped.
CG101    advisory: the program fell back to the interpreter, with the
         reason (no generated code to validate)
=======  ==============================================================

Intentional compiled/interpreter divergences (the generated code's
documented contract) are encoded in the reference generator rather
than suppressed in the comparator: launch checks happen only at
schedule trigger PCs; aligned memory traffic bypasses the access
methods and touches the backing word dict directly.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import sys
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.report import Diagnostic, Severity, sort_diagnostics
from repro.engine.compiler import (
    MAX_PROGRAM,
    _ALIGN_MASK,
    _ALU_TEMPLATES,
    _BRANCH_OPS,
    CompiledBlocks,
    discover_blocks,
)
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
from repro.obs import get_registry, get_tracer

#: Stable diagnostic codes and their one-line meanings.
CG_CODES: Dict[str, str] = {
    "CG001": "register dataflow mismatch",
    "CG002": "memory effect mismatch",
    "CG003": "control-transfer mismatch",
    "CG004": "latency/side-effect mismatch",
    "CG005": "unvalidatable construct",
    "CG101": "compilation fell back to the interpreter",
}

#: Effect streams whose mismatches are memory-ordering bugs (CG002);
#: every other stream reports as a side-effect mismatch (CG004).
_MEMORY_STREAMS = frozenset(("mem", "hier", "sq"))

#: Effectful context calls -> effect stream.
_EFFECT_CALLS: Dict[str, str] = {
    "mem_load": "mem",
    "mem_store": "mem",
    "mt": "hier",
    "pt": "hier",
    "observe": "hier",
    "predict": "predict",
    "predict_ind": "predict",
    "launch": "launch",
    ".pop": "hints",
}

#: Pure context calls: the value is an opaque function of (name,
#: per-name call ordinal, argument values).
_PURE_CALLS = frozenset(
    (
        "words_get",
        "sq_get",
        "bc_get",
        "bh_get",
        "sget",
        "mexp.get",
        "trig.get",
    )
)

#: Calls whose result may be ``None`` (drives is/is-not-None branches).
_NULLABLE_CALLS = frozenset(
    ("sq_get", "bh_get", "mexp.get", "trig.get", ".pop")
)

#: Context container names -> effect stream for subscript mutation.
_CTX_STREAMS: Dict[str, str] = {
    "words": "mem",
    "sq": "sq",
    "ring": "ring",
    "mexp": "mexp",
    "bc": "hints",
    "tallies": "stats",
}

#: Register-file parameter name -> symbolic leaf tag.
_REGFILES = {"regs": "r", "rdy": "d"}

_BIN_OPS = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.BitAnd: "&",
    ast.BitOr: "|",
    ast.BitXor: "^",
    ast.LShift: "<<",
    ast.RShift: ">>",
    ast.Mod: "%",
}

_CMP_OPS = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}


class UnvalidatableConstruct(Exception):
    """The symbolic extractor met a construct it cannot model (CG005)."""

    def __init__(self, detail: str) -> None:
        self.detail = detail
        super().__init__(detail)


class _EvalError(Exception):
    """Concrete evaluation of a symbolic expression failed."""


#: Expression tags that carry no nested sub-expressions.
_LEAF_TAGS = frozenset(
    ("const", "r", "d", "var", "undef", "memval", "loopvar", "ctx")
)

#: Every expression tag the extractor emits (used to tell expression
#: nodes apart from bare argument tuples during congruent comparison).
_EXPR_TAGS = _LEAF_TAGS | frozenset(
    ("ctxsub", "sub", "while", "pcall", "ecall", "builtin", "maxmin",
     "opapply", "brapply", "bin", "cmp", "isnone", "notnone", "in",
     "not", "neg", "and", "or", "ite", "tuple", "list")
)


def _is_leaf(expr: Any) -> bool:
    return isinstance(expr, tuple) and len(expr) == 2 and expr[0] in _LEAF_TAGS


def _is_expr(node: Any) -> bool:
    return (
        isinstance(node, tuple)
        and bool(node)
        and isinstance(node[0], str)
        and node[0] in _EXPR_TAGS
    )


# ----------------------------------------------------------------------
# Symbolic extraction
# ----------------------------------------------------------------------

Expr = Tuple[Any, ...]
Guard = Tuple[Any, ...]
Effect = Tuple[str, Guard, Tuple[Any, ...]]


@dataclass
class _Summary:
    """Effect summary of one block function."""

    effects: List[Effect]
    env: Dict[Any, Expr]
    ret: Optional[Expr]


def _fold_const(node: ast.expr) -> Optional[Expr]:
    """Fold ``Constant`` and ``-Constant`` into a const expression."""
    if isinstance(node, ast.Constant) and isinstance(
        node.value, (int, bool, type(None))
    ):
        return ("const", node.value)
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return ("const", -node.operand.value)
    return None


class _Extractor:
    """Abstractly interpret one block function into a :class:`_Summary`.

    The symbolic state maps register-file slots ``("r"|"d", i)``
    and local variable names to expression trees.  Branches are merged
    at the join with if-then-else nodes; side effects are recorded in
    program order with the guard (path condition) under which they
    fire.  Anything outside the grammar the code generator emits
    raises :class:`UnvalidatableConstruct` — explicit, never silent.
    """

    def __init__(self, decoded: DecodedProgram) -> None:
        self.decoded = decoded
        self.effects: List[Effect] = []
        self._ordinals: Dict[str, int] = {}
        self._memload_count = 0
        self._loop_count = 0

    # -- entry ----------------------------------------------------------

    def run(self, fn: ast.FunctionDef) -> _Summary:
        env: Dict[Any, Expr] = {}
        for arg in fn.args.args:
            if arg.arg not in _REGFILES:
                env[arg.arg] = ("var", arg.arg)
        ret = self._body(fn.body, env, ())
        return _Summary(self.effects, env, ret)

    # -- helpers --------------------------------------------------------

    def _ordinal(self, name: str) -> int:
        count = self._ordinals.get(name, 0)
        self._ordinals[name] = count + 1
        return count

    def _emit(self, stream: str, guard: Guard, payload: Tuple) -> None:
        self.effects.append((stream, guard, payload))

    def _reg_read(self, env: Dict, tag: str, index: int) -> Expr:
        return env.get((tag, index), (tag, index))

    # -- statement walking ---------------------------------------------

    def _body(
        self, stmts: Sequence[ast.stmt], env: Dict, guard: Guard
    ) -> Optional[Expr]:
        """Execute a top-level function body; returns the return expr."""
        ret: Optional[Expr] = None
        i = 0
        while i < len(stmts):
            st = stmts[i]
            if isinstance(st, ast.Return):
                if i != len(stmts) - 1:
                    raise UnvalidatableConstruct(
                        "return before the end of the block body"
                    )
                if st.value is None:
                    raise UnvalidatableConstruct("bare return")
                ret = self._expr(st.value, env, guard)
                return ret
            i += self._step(stmts, i, env, guard)
        return ret

    def _exec(
        self, stmts: Sequence[ast.stmt], env: Dict, guard: Guard
    ) -> None:
        """Execute a nested statement list (no return allowed)."""
        i = 0
        while i < len(stmts):
            if isinstance(stmts[i], ast.Return):
                raise UnvalidatableConstruct("return inside nested block")
            i += self._step(stmts, i, env, guard)

    def _step(
        self, stmts: Sequence[ast.stmt], i: int, env: Dict, guard: Guard
    ) -> int:
        """Execute statement ``i``; returns how many statements consumed."""
        st = stmts[i]
        if isinstance(st, ast.If):
            consumed = self._try_aligned_load(stmts, i, env, guard)
            if consumed:
                return consumed
            consumed = self._try_aligned_store(stmts, i, env, guard)
            if consumed:
                return consumed
            self._if(st, env, guard)
            return 1
        if isinstance(st, ast.Assign):
            self._assign(st, env, guard)
            return 1
        if isinstance(st, ast.AugAssign):
            self._augassign(st, env, guard)
            return 1
        if isinstance(st, ast.Expr):
            if isinstance(st.value, ast.Constant):
                return 1  # docstring
            if not isinstance(st.value, ast.Call):
                raise UnvalidatableConstruct(
                    f"expression statement {ast.dump(st.value)[:80]}"
                )
            self._expr(st.value, env, guard)
            return 1
        if isinstance(st, ast.While):
            self._while(st, env, guard)
            return 1
        if isinstance(st, ast.For):
            self._for(st, env, guard)
            return 1
        if isinstance(st, ast.Delete):
            self._delete(st, env, guard)
            return 1
        if isinstance(st, ast.Pass):
            return 1
        raise UnvalidatableConstruct(
            f"statement {type(st).__name__} is outside the codegen grammar"
        )

    # -- aligned memory fast-path normalization ------------------------

    def _match_align_guard(
        self, node: ast.If
    ) -> Optional[Tuple[str, ast.Call]]:
        """Match ``if <name> & ALIGN_MASK: <single call>`` -> (name, call)."""
        if _ALIGN_MASK is None or node.orelse:
            return None
        test = node.test
        if not (
            isinstance(test, ast.BinOp)
            and isinstance(test.op, ast.BitAnd)
            and isinstance(test.left, ast.Name)
            and isinstance(test.right, ast.Constant)
            and test.right.value == _ALIGN_MASK
        ):
            return None
        if len(node.body) != 1 or not isinstance(node.body[0], ast.Expr):
            return None
        call = node.body[0].value
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
            return None
        return test.left.id, call

    def _try_aligned_load(
        self, stmts: Sequence[ast.stmt], i: int, env: Dict, guard: Guard
    ) -> int:
        """``if a & 3: mem_load(a)`` [+ ``v = words_get(a, 0)``].

        Generated code skips the memory access method for aligned
        addresses and reads the backing word dict directly; the pair is
        one architectural load.
        """
        match = self._match_align_guard(stmts[i])  # type: ignore[arg-type]
        if match is None:
            return 0
        addr_name, call = match
        if call.func.id != "mem_load":  # type: ignore[union-attr]
            return 0
        if not (
            len(call.args) == 1
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id == addr_name
        ):
            raise UnvalidatableConstruct(
                "guarded mem_load does not reuse the guard address"
            )
        addr = self._expr_name(addr_name, env)
        self._emit("mem", guard, ("call", "mem_load", (addr,)))
        self._memload_count += 1
        value: Expr = ("memval", self._memload_count)
        nxt = stmts[i + 1] if i + 1 < len(stmts) else None
        if (
            isinstance(nxt, ast.Assign)
            and len(nxt.targets) == 1
            and isinstance(nxt.targets[0], ast.Name)
            and isinstance(nxt.value, ast.Call)
            and isinstance(nxt.value.func, ast.Name)
            and nxt.value.func.id == "words_get"
            and len(nxt.value.args) == 2
            and isinstance(nxt.value.args[0], ast.Name)
            and nxt.value.args[0].id == addr_name
        ):
            env[nxt.targets[0].id] = value
            return 2
        return 1

    def _try_aligned_store(
        self, stmts: Sequence[ast.stmt], i: int, env: Dict, guard: Guard
    ) -> int:
        """``if a & 3: mem_store(a, V)`` + ``words[a] = V`` == one store.

        When the unconditional word-dict write is missing or disagrees
        with the guarded method call, the pair is *not* an aligned
        store: a distinct payload is recorded so the comparison against
        the reference's single store fails with CG002.
        """
        match = self._match_align_guard(stmts[i])  # type: ignore[arg-type]
        if match is None:
            return 0
        addr_name, call = match
        if call.func.id != "mem_store":  # type: ignore[union-attr]
            return 0
        if not (
            len(call.args) == 2
            and isinstance(call.args[0], ast.Name)
            and call.args[0].id == addr_name
        ):
            raise UnvalidatableConstruct(
                "guarded mem_store does not reuse the guard address"
            )
        addr = self._expr_name(addr_name, env)
        value = self._expr(call.args[1], env, guard)
        nxt = stmts[i + 1] if i + 1 < len(stmts) else None
        if (
            isinstance(nxt, ast.Assign)
            and len(nxt.targets) == 1
            and isinstance(nxt.targets[0], ast.Subscript)
            and isinstance(nxt.targets[0].value, ast.Name)
            and nxt.targets[0].value.id == "words"
            and isinstance(nxt.targets[0].slice, ast.Name)
            and nxt.targets[0].slice.id == addr_name
        ):
            word_value = self._expr(nxt.value, env, guard)
            if word_value is value or (
                _is_leaf(word_value) and word_value == value
            ):
                self._emit("mem", guard, ("call", "mem_store", (addr, value)))
                return 2
            self._emit("mem", guard, ("call", "mem_store", (addr, value)))
            self._emit(
                "mem", guard, ("setitem", "words", (addr, word_value))
            )
            return 2
        # Guarded (misaligned-only) store with no aligned word write.
        self._emit(
            "mem", guard, ("call", "mem_store_misaligned_only", (addr, value))
        )
        return 1

    # -- individual statements -----------------------------------------

    def _assign(self, st: ast.Assign, env: Dict, guard: Guard) -> None:
        if len(st.targets) != 1:
            raise UnvalidatableConstruct("chained assignment")
        target = st.targets[0]
        value = self._expr(st.value, env, guard)
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, ast.Tuple):
            for j, elt in enumerate(target.elts):
                if not isinstance(elt, ast.Name):
                    raise UnvalidatableConstruct("non-name unpack target")
                env[elt.id] = ("sub", value, ("const", j))
            return
        if isinstance(target, ast.Subscript):
            self._subscript_write(
                target, value, env, guard, op="setitem"
            )
            return
        raise UnvalidatableConstruct(
            f"assignment target {type(target).__name__}"
        )

    def _augassign(self, st: ast.AugAssign, env: Dict, guard: Guard) -> None:
        if not isinstance(st.op, ast.Add):
            raise UnvalidatableConstruct(
                f"augmented assignment with {type(st.op).__name__}"
            )
        value = self._expr(st.value, env, guard)
        target = st.target
        if isinstance(target, ast.Name):
            old = env.get(target.id)
            if old is None:
                raise UnvalidatableConstruct(
                    f"augmented assignment to unbound {target.id!r}"
                )
            env[target.id] = ("bin", "+", old, value)
            return
        if isinstance(target, ast.Subscript):
            self._subscript_write(target, value, env, guard, op="augitem")
            return
        raise UnvalidatableConstruct(
            f"augmented target {type(target).__name__}"
        )

    def _subscript_write(
        self,
        target: ast.Subscript,
        value: Expr,
        env: Dict,
        guard: Guard,
        op: str,
    ) -> None:
        base = target.value
        if not isinstance(base, ast.Name):
            raise UnvalidatableConstruct("subscript store on non-name base")
        name = base.id
        if name in _REGFILES:
            if op != "setitem":
                raise UnvalidatableConstruct(
                    f"augmented store into register file {name!r}"
                )
            index = _fold_const(target.slice)
            if index is None or not isinstance(index[1], int):
                raise UnvalidatableConstruct(
                    f"non-constant {name}[] index"
                )
            env[(_REGFILES[name], index[1])] = value
            return
        index_val = self._expr(target.slice, env, guard)
        if name in _CTX_STREAMS:
            self._emit(
                _CTX_STREAMS[name], guard, (op, name, (index_val, value))
            )
            return
        base_val = env.get(name)
        if base_val is None:
            raise UnvalidatableConstruct(
                f"subscript store on unbound name {name!r}"
            )
        self._emit("obj", guard, (op, None, (base_val, index_val, value)))

    def _if(self, st: ast.If, env: Dict, guard: Guard) -> None:
        test = self._expr(st.test, env, guard)
        env_true = dict(env)
        env_false = dict(env)
        self._exec(st.body, env_true, guard + ((test, True),))
        self._exec(st.orelse, env_false, guard + ((test, False),))
        for key in set(env_true) | set(env_false):
            tval = env_true.get(key, self._initial(key))
            fval = env_false.get(key, self._initial(key))
            # Identity, not structural, comparison: expression trees
            # are DAGs and deep equality is exponential.  A branch
            # that rebuilds an identical value just gets a redundant
            # (harmless, both-sides-symmetric) if-then-else node;
            # leaves are still compared by value so fresh-but-equal
            # leaf tuples don't accumulate noise.
            changed = tval is not fval
            if changed and _is_leaf(tval) and _is_leaf(fval):
                changed = tval != fval
            if changed:
                env[key] = ("ite", test, tval, fval)
            elif key not in env:
                env[key] = tval

    @staticmethod
    def _initial(key: Any) -> Expr:
        if isinstance(key, tuple):
            return key  # register-file leaf
        return ("undef", key)

    def _while(self, st: ast.While, env: Dict, guard: Guard) -> None:
        """Unbounded loops are summarized as an opaque fixpoint.

        The only loop the code generator emits is the fetch-slot
        stealing prologue; the compiled and reference texts are
        token-identical, so a digest of the loop AST plus the symbolic
        entry values of its free variables identifies the fixpoint.
        Any effectful call inside would escape the summary, so those
        are rejected outright.
        """
        if guard or st.orelse:
            raise UnvalidatableConstruct("guarded or else-carrying while")
        for node in ast.walk(st):
            if isinstance(node, ast.Call):
                if not (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _PURE_CALLS
                ):
                    raise UnvalidatableConstruct(
                        "effectful call inside while loop"
                    )
            elif isinstance(node, (ast.Subscript, ast.Delete)) and isinstance(
                getattr(node, "ctx", None), (ast.Store, ast.Del)
            ):
                raise UnvalidatableConstruct("subscript store in while loop")
        digest = hashlib.blake2b(
            ast.dump(st).encode(), digest_size=8
        ).hexdigest()
        assigned = sorted(
            {
                t.id
                for node in ast.walk(st)
                for t in (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                    if isinstance(node, ast.AugAssign)
                    else []
                )
                if isinstance(t, ast.Name)
            }
        )
        free = sorted(
            {
                node.id
                for node in ast.walk(st)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in env
            }
        )
        inputs = tuple((name, env[name]) for name in free)
        for name in assigned:
            env[name] = ("while", digest, name, inputs)

    def _for(self, st: ast.For, env: Dict, guard: Guard) -> None:
        if st.orelse or not isinstance(st.target, ast.Name):
            raise UnvalidatableConstruct("for loop outside codegen grammar")
        for node in st.body:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Assign, ast.AugAssign)):
                    raise UnvalidatableConstruct(
                        "assignment inside for loop body"
                    )
        iter_val = self._expr(st.iter, env, guard)
        self._loop_count += 1
        body_env = dict(env)
        body_env[st.target.id] = ("loopvar", self._loop_count)
        self._exec(st.body, body_env, guard + (("loop", iter_val),))

    def _delete(self, st: ast.Delete, env: Dict, guard: Guard) -> None:
        for target in st.targets:
            if not (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in _CTX_STREAMS
            ):
                raise UnvalidatableConstruct("delete outside codegen grammar")
            name = target.value.id
            index_val = self._expr(target.slice, env, guard)
            self._emit(
                _CTX_STREAMS[name], guard, ("delitem", name, (index_val,))
            )

    # -- expressions ----------------------------------------------------

    def _expr_name(self, name: str, env: Dict) -> Expr:
        value = env.get(name)
        if value is not None:
            return value
        if name in _CTX_STREAMS or name == "trig":
            return ("ctx", name)
        raise UnvalidatableConstruct(f"read of unbound name {name!r}")

    def _expr(self, node: ast.expr, env: Dict, guard: Guard) -> Expr:
        const = _fold_const(node)
        if const is not None:
            return const
        if isinstance(node, ast.Name):
            return self._expr_name(node.id, env)
        if isinstance(node, ast.Subscript):
            return self._subscript_read(node, env, guard)
        if isinstance(node, ast.BinOp):
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                raise UnvalidatableConstruct(
                    f"binary operator {type(node.op).__name__}"
                )
            return (
                "bin",
                op,
                self._expr(node.left, env, guard),
                self._expr(node.right, env, guard),
            )
        if isinstance(node, ast.UnaryOp):
            operand = self._expr(node.operand, env, guard)
            if isinstance(node.op, ast.Not):
                return ("not", operand)
            if isinstance(node.op, ast.USub):
                return ("neg", operand)
            raise UnvalidatableConstruct(
                f"unary operator {type(node.op).__name__}"
            )
        if isinstance(node, ast.Compare):
            return self._compare(node, env, guard)
        if isinstance(node, ast.BoolOp):
            op = "and" if isinstance(node.op, ast.And) else "or"
            return (
                op,
                tuple(self._expr(v, env, guard) for v in node.values),
            )
        if isinstance(node, ast.IfExp):
            test = self._expr(node.test, env, guard)
            then = self._expr(node.body, env, guard + ((test, True),))
            other = self._expr(node.orelse, env, guard + ((test, False),))
            return ("ite", test, then, other)
        if isinstance(node, ast.Tuple):
            return (
                "tuple",
                tuple(self._expr(e, env, guard) for e in node.elts),
            )
        if isinstance(node, ast.List):
            return (
                "list",
                tuple(self._expr(e, env, guard) for e in node.elts),
            )
        if isinstance(node, ast.Call):
            return self._call(node, env, guard)
        raise UnvalidatableConstruct(
            f"expression {type(node).__name__} is outside the codegen grammar"
        )

    def _subscript_read(
        self, node: ast.Subscript, env: Dict, guard: Guard
    ) -> Expr:
        base = node.value
        if isinstance(base, ast.Name):
            name = base.id
            if name in _REGFILES:
                index = _fold_const(node.slice)
                if index is None or not isinstance(index[1], int):
                    raise UnvalidatableConstruct(
                        f"non-constant {name}[] index"
                    )
                return self._reg_read(env, _REGFILES[name], index[1])
            index_val = self._expr(node.slice, env, guard)
            if name in _CTX_STREAMS or name == "trig":
                return ("ctxsub", name, index_val)
            local = env.get(name)
            if local is not None:
                return ("sub", local, index_val)
            raise UnvalidatableConstruct(f"subscript of unbound {name!r}")
        base_val = self._expr(base, env, guard)
        index_val = self._expr(node.slice, env, guard)
        return ("sub", base_val, index_val)

    def _compare(self, node: ast.Compare, env: Dict, guard: Guard) -> Expr:
        if len(node.ops) != 1 or len(node.comparators) != 1:
            raise UnvalidatableConstruct("chained comparison")
        op = node.ops[0]
        left = self._expr(node.left, env, guard)
        right_node = node.comparators[0]
        if isinstance(op, (ast.Is, ast.IsNot)):
            if not (
                isinstance(right_node, ast.Constant)
                and right_node.value is None
            ):
                raise UnvalidatableConstruct("is-comparison to non-None")
            tag = "isnone" if isinstance(op, ast.Is) else "notnone"
            return (tag, left)
        right = self._expr(right_node, env, guard)
        if isinstance(op, ast.In):
            return ("in", left, right)
        cmp = _CMP_OPS.get(type(op))
        if cmp is None:
            raise UnvalidatableConstruct(
                f"comparison operator {type(op).__name__}"
            )
        return ("cmp", cmp, left, right)

    def _call(self, node: ast.Call, env: Dict, guard: Guard) -> Expr:
        if node.keywords:
            raise UnvalidatableConstruct("keyword arguments in call")
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            args = tuple(self._expr(a, env, guard) for a in node.args)
            if name.startswith("__op_") or name.startswith("__br_"):
                pc = int(name.rsplit("_", 1)[1])
                if len(args) != 2:
                    raise UnvalidatableConstruct(f"{name} arity")
                tag = "opapply" if name.startswith("__op_") else "brapply"
                return (tag, pc, args[0], args[1])
            if name == "mem_load":
                self._emit("mem", guard, ("call", "mem_load", args))
                self._memload_count += 1
                return ("memval", self._memload_count)
            if name in _EFFECT_CALLS:
                ordinal = self._ordinal(name)
                self._emit(_EFFECT_CALLS[name], guard, ("call", name, args))
                return ("ecall", name, ordinal, args)
            if name in _PURE_CALLS:
                return ("pcall", name, self._ordinal(name), args)
            if name in ("len", "next", "iter"):
                return ("builtin", name, args)
            if name in ("max", "min"):
                return ("maxmin", name, args)
            raise UnvalidatableConstruct(f"call to unknown function {name!r}")
        if isinstance(func, ast.Attribute):
            args = tuple(self._expr(a, env, guard) for a in node.args)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "mexp"
                and func.attr == "get"
            ):
                return ("pcall", "mexp.get", self._ordinal("mexp.get"), args)
            if (
                isinstance(func.value, ast.Subscript)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "trig"
                and func.attr == "get"
            ):
                return ("pcall", "trig.get", self._ordinal("trig.get"), args)
            if func.attr == "pop" and isinstance(func.value, ast.Name):
                base = self._expr_name(func.value.id, env)
                ordinal = self._ordinal(".pop")
                self._emit("hints", guard, ("call", ".pop", (base,) + args))
                return ("ecall", ".pop", ordinal, (base,) + args)
            raise UnvalidatableConstruct(
                f"method call .{func.attr} is outside the codegen grammar"
            )
        raise UnvalidatableConstruct("indirect call")


# ----------------------------------------------------------------------
# Concrete-vector expression equivalence
# ----------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_HIGH = 1 << 63

#: Signed corner values cycled through register leaves on vector 1.
_CORNERS = (-1, 0, 1, -(1 << 63), (1 << 63) - 1, 4, -4, 1 << 62)


def _hash_int(*parts: Any) -> int:
    digest = hashlib.blake2b(
        "\x1f".join(repr(p) for p in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _signed_hash(*parts: Any) -> int:
    value = _hash_int(*parts)
    return value - (1 << 64) if value >= _HIGH else value


class _Equiv:
    """Expression equivalence: structural equality, else agreement on a
    battery of deterministic concrete vectors.

    Opcode and branch markers evaluate through the interpreter's real
    lambdas in ``decoded.alu`` / ``decoded.branch``, so the compiler's
    inline templates are checked against the ISA semantics.  Leaf
    domains are chosen per role: architectural registers range over the
    full signed 64-bit space (corner values included), while scheduling
    scalars (``executed``, cycle counters) stay non-negative — which is
    exactly the domain on which the codegen's strength reductions
    (``x % 2**k`` to ``x & (2**k - 1)``) are sound.
    """

    VECTORS = 8

    def __init__(self, decoded: DecodedProgram) -> None:
        self.decoded = decoded
        # Keyed by id(): expression trees share subterms heavily (a
        # DAG), so structural hashing/equality would re-walk shared
        # nodes exponentially often.  The cache entries pin the
        # expression objects so their ids cannot be recycled.
        self._cache: Dict[Tuple[int, int], Tuple[Expr, Any]] = {}
        self._eq_cache: Dict[Tuple[int, int], Tuple[Any, Any, bool]] = {}

    def equal(self, a: Expr, b: Expr) -> bool:
        """Congruence first, concrete vectors as the tie-breaker.

        Same-shaped nodes are compared child by child, so branches of
        an if-then-else are checked directly even when its condition
        happens to evaluate one way on every vector; only where the
        two sides' structure genuinely diverges (``max`` vs chained
        conditionals, ``%`` vs ``&``, template arithmetic vs opcode
        lambda) does the comparison drop down to concrete evaluation.
        """
        if a is b:
            return True
        key = (id(a), id(b))
        hit = self._eq_cache.get(key)
        if hit is not None:
            return hit[2]
        if (
            _is_expr(a)
            and _is_expr(b)
            and a[0] == b[0]
            and len(a) == len(b)
        ):
            if a[0] == "ite" and self._deep_equal(a[1], b[1]):
                # Equivalent conditions: each arm must match on its
                # own.  A whole-node vector fallback here would mask a
                # mismatch hiding in the arm a one-sided condition
                # never selects (the classic off-by-one branch-target
                # bug).  Arm comparison still drops to vectors where
                # the two sides' structure genuinely diverges.
                result = self._deep_equal(a[2], b[2]) and self._deep_equal(
                    a[3], b[3]
                )
            else:
                result = all(
                    self._deep_equal(x, y) for x, y in zip(a[1:], b[1:])
                ) or self._vector_equal(a, b)
        else:
            result = self._vector_equal(a, b)
        self._eq_cache[key] = (a, b, result)
        return result

    def _deep_equal(self, a: Any, b: Any) -> bool:
        if a is b:
            return True
        if _is_expr(a) and _is_expr(b):
            return self.equal(a, b)
        if isinstance(a, tuple) and isinstance(b, tuple):
            return len(a) == len(b) and all(
                self._deep_equal(x, y) for x, y in zip(a, b)
            )
        return a == b

    def _vector_equal(self, a: Expr, b: Expr) -> bool:
        try:
            for vec in range(self.VECTORS):
                if self._norm(self.eval(a, vec)) != self._norm(
                    self.eval(b, vec)
                ):
                    return False
        except _EvalError:
            return False
        return True

    @classmethod
    def _norm(cls, value: Any) -> Any:
        if isinstance(value, bool):
            return int(value)
        if isinstance(value, tuple):
            return tuple(cls._norm(v) for v in value)
        return value

    def eval(self, expr: Expr, vec: int) -> Any:
        key = (id(expr), vec)
        hit = self._cache.get(key)
        if hit is not None:
            return hit[1]
        try:
            value = self._eval(expr, vec)
        except _EvalError:
            raise
        except Exception as exc:
            raise _EvalError(str(exc)) from exc
        self._cache[key] = (expr, value)
        return value

    def _eval(self, expr: Expr, vec: int) -> Any:
        tag = expr[0]
        if tag == "const":
            return expr[1]
        if tag == "r":
            index = expr[1]
            if vec == 0:
                return index * 1_000_003 + 17
            if vec == 1:
                return _CORNERS[index % len(_CORNERS)]
            return _signed_hash("r", index, vec)
        if tag == "d":
            return _signed_hash(tag, expr[1], vec) & 0xFFFF_FFFF
        if tag == "var":
            return _hash_int("var", expr[1], vec) & 0x7FFF_FFFF
        if tag == "undef":
            return _hash_int("undef", expr[1], vec) & 0x7FFF_FFFF
        if tag == "memval":
            return _signed_hash("memval", expr[1], vec)
        if tag == "loopvar":
            return _hash_int("loopvar", expr[1], vec) & 0x7FFF_FFFF
        if tag == "ctx":
            return _hash_int("ctx", expr[1], vec) & 0x7FFF_FFFF
        if tag == "ctxsub":
            return (
                _hash_int("ctxsub", expr[1], self.eval(expr[2], vec), vec)
                & 0x7FFF_FFFF
            )
        if tag == "sub":
            return _signed_hash(
                "sub", self.eval(expr[1], vec), self.eval(expr[2], vec), vec
            )
        if tag == "while":
            _, digest, var, inputs = expr
            values = tuple(
                (name, self.eval(val, vec)) for name, val in inputs
            )
            return _hash_int("while", digest, var, values, vec) & 0x7FFF_FFFF
        if tag in ("pcall", "ecall"):
            _, name, ordinal, args = expr
            values = tuple(self.eval(a, vec) for a in args)
            h = _hash_int("call", name, ordinal, values, vec)
            if name in _NULLABLE_CALLS:
                return None if h & 3 == 0 else h & 0x7FFF_FFFF
            if name in ("predict", "predict_ind"):
                return bool(h & 1)
            if name == "sget":
                return h & 0xFF
            return _signed_hash("call", name, ordinal, values, vec)
        if tag == "builtin":
            values = tuple(self.eval(a, vec) for a in expr[2])
            return _hash_int("builtin", expr[1], values, vec) & 0x7FFF_FFFF
        if tag == "maxmin":
            values = [self.eval(a, vec) for a in expr[2]]
            return max(values) if expr[1] == "max" else min(values)
        if tag == "opapply":
            return self.decoded.alu[expr[1]](
                self.eval(expr[2], vec), self.eval(expr[3], vec)
            )
        if tag == "brapply":
            return self.decoded.branch[expr[1]](
                self.eval(expr[2], vec), self.eval(expr[3], vec)
            )
        if tag == "bin":
            return self._bin(
                expr[1], self.eval(expr[2], vec), self.eval(expr[3], vec)
            )
        if tag == "cmp":
            left = self.eval(expr[2], vec)
            right = self.eval(expr[3], vec)
            op = expr[1]
            if op == "==":
                return left == right
            if op == "!=":
                return left != right
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            return left >= right
        if tag == "isnone":
            return self._isnone(expr[1], vec)
        if tag == "notnone":
            return not self._isnone(expr[1], vec)
        if tag == "in":
            return bool(
                _hash_int(
                    "in", self.eval(expr[1], vec), self.eval(expr[2], vec)
                )
                & 1
            )
        if tag == "not":
            return not self.eval(expr[1], vec)
        if tag == "neg":
            return -self.eval(expr[1], vec)
        if tag in ("and", "or"):
            result: Any = tag == "and"
            for sub in expr[1]:
                result = self.eval(sub, vec)
                if (tag == "and") != bool(result):
                    return result
            return result
        if tag == "ite":
            if self.eval(expr[1], vec):
                return self.eval(expr[2], vec)
            return self.eval(expr[3], vec)
        if tag in ("tuple", "list"):
            return tuple(self.eval(e, vec) for e in expr[1])
        raise _EvalError(f"unknown expression tag {tag!r}")

    def _isnone(self, sub: Expr, vec: int) -> bool:
        return self.eval(sub, vec) is None

    @staticmethod
    def _bin(op: str, left: Any, right: Any) -> int:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            if not 0 <= right <= 64:
                right &= 63
            return left << right
        if op == ">>":
            if not 0 <= right <= 64:
                right &= 63
            return left >> right
        if op == "%":
            return left % (right if right else 97)
        raise _EvalError(f"unknown binary operator {op!r}")


# ----------------------------------------------------------------------
# Reference effect-summary sources
# ----------------------------------------------------------------------


def _ref_addr(decoded: DecodedProgram, pc: int) -> str:
    imm = decoded.imm[pc]
    if imm:
        return f"regs[{decoded.rs1[pc]}] + ({imm})"
    return f"regs[{decoded.rs1[pc]}]"


@dataclass(frozen=True)
class TimingParams:
    """Machine and schedule constants a timing variant was compiled for."""

    window: int
    bw_seq: int
    dispatch_latency: int
    mispredict_penalty: int
    forward_latency: int
    launching: bool
    stealing: bool
    prefetching: bool
    trigger_pcs: FrozenSet[int] = frozenset()
    hinted_pcs: FrozenSet[int] = frozenset()


_TIMING_RETURN = "executed, fetch_cycle, cap_used, last_retire"


def timing_reference_source(
    decoded: DecodedProgram,
    start: int,
    end: int,
    params: TimingParams,
) -> str:
    """Reference source for a timing block, mirroring
    ``TimingSimulator._interp`` with the machine constants folded in.

    Two deliberate shape differences exercise the concrete-vector
    equivalence machinery: the retire-ring slot uses ``%`` where the
    compiled code strength-reduces to ``&``, and ready-time maxima use
    ``max()`` where the compiled code emits conditional expressions.
    The fetch-slot stealing loop is emitted token-identical to the
    compiled text on purpose: unbounded loops are summarized by AST
    digest, so the reference must agree on the loop's code, and the
    *semantic* content being validated there is the pair of folded
    constants, which the digest covers.
    """
    lines = [
        "def _ref(executed, fetch_cycle, cap_used, last_retire, regs, rdy):"
    ]
    emit = lines.append
    terminated = False

    def prologue() -> None:
        emit("    executed += 1")
        emit(f"    rs = executed % {params.window}")
        emit("    ws = ring[rs]")
        emit("    if ws > fetch_cycle:")
        emit("        fetch_cycle = ws")
        emit("        cap_used = 0")
        if params.stealing:
            emit(
                f"    while cap_used >= {params.bw_seq} - "
                "sget(fetch_cycle, 0):"
            )
        else:
            emit(f"    if cap_used >= {params.bw_seq}:")
        emit("        fetch_cycle += 1")
        emit("        cap_used = 0")
        emit("    cap_used += 1")
        emit(f"    disp = fetch_cycle + {params.dispatch_latency}")

    def retire() -> None:
        emit("    if complete < last_retire:")
        emit("        complete = last_retire")
        emit("    last_retire = complete")
        emit("    ring[rs] = complete")

    def trigger(pc: int) -> None:
        if params.launching and pc in params.trigger_pcs:
            emit(f"    w = trig[0].get({pc})")
            emit("    if w is not None:")
            emit("        launch(w, disp)")

    for pc in range(start, end):
        k = decoded.kind[pc]
        rd = decoded.rd[pc]
        rs1 = decoded.rs1[pc]
        rs2 = decoded.rs2[pc]
        lat = decoded.latency[pc]
        prologue()
        if k == K_ALU_R or k == K_ALU_I:
            if k == K_ALU_R:
                emit(f"    ready = max(rdy[{rs1}], rdy[{rs2}], disp)")
                operand = f"regs[{rs2}]"
            else:
                emit(f"    ready = max(rdy[{rs1}], disp)")
                operand = f"({decoded.imm[pc]})"
            emit(f"    complete = ready + {lat}")
            if rd:
                emit(f"    regs[{rd}] = __op_{pc}(regs[{rs1}], {operand})")
                emit(f"    rdy[{rd}] = complete")
            retire()
            trigger(pc)
        elif k == K_LOAD:
            emit(f"    a = {_ref_addr(decoded, pc)}")
            emit(f"    {'v = ' if rd else ''}mem_load(a)")
            emit(f"    ready = max(rdy[{rs1}], disp)")
            emit("    issue = ready + 1")
            emit("    fw = sq_get(a)")
            emit("    if fw is not None:")
            emit("        dr = fw[0]")
            emit(
                f"        complete = max(dr, issue) + {params.forward_latency}"
            )
            emit("    else:")
            emit("        lvl, complete = mt(a, issue)")
            emit("        if lvl != 1:")
            emit("            tallies[0] += 1")
            emit("        if lvl == 3:")
            emit(f"            e = mexp.get({pc})")
            emit("            if e is None:")
            emit("                e = [0, 0]")
            emit(f"                mexp[{pc}] = e")
            emit("            e[0] += 1")
            emit("            x = complete - last_retire")
            emit("            if x > 0:")
            emit("                e[1] += x")
            if params.prefetching:
                emit(f"        for tgt in observe({pc}, a):")
                emit("            pt(tgt, issue)")
            if rd:
                emit(f"    regs[{rd}] = v")
                emit(f"    rdy[{rd}] = complete")
            retire()
            trigger(pc)
        elif k == K_STORE:
            emit(f"    a = {_ref_addr(decoded, pc)}")
            emit(f"    mem_store(a, regs[{rs2}])")
            emit(f"    ready = max(rdy[{rs1}], disp)")
            emit("    complete = ready + 1")
            emit("    lvl, _c = mt(a, complete, True)")
            emit("    if lvl != 1:")
            emit("        tallies[0] += 1")
            emit("    if a in sq:")
            emit("        del sq[a]")
            emit(
                f"    sq[a] = (max(complete, rdy[{rs2}]), regs[{rs2}])"
            )
            emit("    if len(sq) > 64:")
            emit("        del sq[next(iter(sq))]")
            retire()
            trigger(pc)
        elif k == K_BRANCH:
            target = decoded.target[pc]
            hinted = params.launching and pc in params.hinted_pcs
            emit(f"    t = __br_{pc}(regs[{rs1}], regs[{rs2}])")
            emit(f"    ready = max(rdy[{rs1}], rdy[{rs2}], disp)")
            emit("    complete = ready + 1")
            emit(f"    correct = predict({pc}, t, {target})")
            if hinted:
                emit(f"    inst = bc_get({pc}, 0)")
                emit(f"    bc[{pc}] = inst + 1")
                emit(f"    pp = bh_get({pc})")
                emit(
                    "    hint = pp.pop(inst, None) "
                    "if pp is not None else None"
                )
            emit("    if not correct:")
            emit("        tallies[1] += 1")
            if hinted:
                emit(
                    "        if hint is not None and hint[0] <= "
                    "fetch_cycle and hint[1] == (1 if t else 0):"
                )
                emit("            tallies[2] += 1")
                emit("        else:")
                emit(
                    "            fetch_cycle = complete + "
                    f"{params.mispredict_penalty}"
                )
                emit("            cap_used = 0")
            else:
                emit(
                    "        fetch_cycle = complete + "
                    f"{params.mispredict_penalty}"
                )
                emit("        cap_used = 0")
            retire()
            trigger(pc)
            emit(
                f"    return ({target} if t else {pc + 1}), {_TIMING_RETURN}"
            )
            terminated = True
        elif k == K_JUMP:
            emit("    complete = disp")
            retire()
            trigger(pc)
            emit(f"    return {decoded.target[pc]}, {_TIMING_RETURN}")
            terminated = True
        elif k == K_JAL:
            emit("    complete = disp")
            if rd:
                emit(f"    regs[{rd}] = {pc + 1}")
                emit(f"    rdy[{rd}] = complete")
            retire()
            trigger(pc)
            emit(f"    return {decoded.target[pc]}, {_TIMING_RETURN}")
            terminated = True
        elif k == K_JR:
            emit(f"    ready = max(rdy[{rs1}], disp)")
            emit("    complete = ready + 1")
            emit(f"    npc = regs[{rs1}]")
            emit(f"    correct = predict_ind({pc}, npc)")
            emit("    if not correct:")
            emit("        tallies[1] += 1")
            emit(
                "        fetch_cycle = complete + "
                f"{params.mispredict_penalty}"
            )
            emit("        cap_used = 0")
            retire()
            trigger(pc)
            emit(f"    return npc, {_TIMING_RETURN}")
            terminated = True
        elif k == K_HALT:
            emit("    complete = disp")
            emit("    if complete > last_retire:")
            emit("        last_retire = complete")
            emit("    ring[rs] = last_retire")
            emit(f"    return -1, {_TIMING_RETURN}")
            terminated = True
        elif k == K_NOP:
            emit("    complete = disp")
            retire()
            trigger(pc)
        else:
            raise UnvalidatableConstruct(f"unknown kind {k} at pc {pc}")
    if not terminated:
        emit(f"    return {end}, {_TIMING_RETURN}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Summary comparison
# ----------------------------------------------------------------------


def _fmt(expr: Any, depth: int = 4, limit: int = 96) -> str:
    """Depth-bounded rendering: expressions are DAGs, so a full repr()
    would expand shared subterms exponentially."""
    text = _fmt_inner(expr, depth)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _fmt_inner(expr: Any, depth: int) -> str:
    if not isinstance(expr, tuple):
        return repr(expr)
    if depth <= 0:
        head = expr[0] if expr and isinstance(expr[0], str) else "..."
        return f"({head}, ...)"
    parts = [_fmt_inner(e, depth - 1) for e in expr[:6]]
    if len(expr) > 6:
        parts.append("...")
    return "(" + ", ".join(parts) + ")"


def _stream_code(stream: str) -> str:
    return "CG002" if stream in _MEMORY_STREAMS else "CG004"


def _diag(code: str, pc: int, message: str) -> Diagnostic:
    severity = Severity.INFO if code == "CG101" else Severity.ERROR
    return Diagnostic(code=code, severity=severity, message=message, pc=pc)


def _guards_equal(eq: _Equiv, g1: Guard, g2: Guard) -> bool:
    if len(g1) != len(g2):
        return False
    for e1, e2 in zip(g1, g2):
        if e1[0] == "loop" or e2[0] == "loop":
            if e1[0] != e2[0] or not eq.equal(e1[1], e2[1]):
                return False
        elif e1[1] != e2[1] or not eq.equal(e1[0], e2[0]):
            return False
    return True


def _payload_equal(eq: _Equiv, p1: Tuple, p2: Tuple) -> bool:
    tag1, name1, args1 = p1[0], p1[1], p1[2]
    tag2, name2, args2 = p2[0], p2[1], p2[2]
    if tag1 != tag2 or name1 != name2 or len(args1) != len(args2):
        return False
    return all(eq.equal(a1, a2) for a1, a2 in zip(args1, args2))


def _normalize_payload(payload: Tuple) -> Tuple:
    """Payloads are ``(tag, name_or_None, arg_expr_tuple)``; call
    payloads are recorded as ``("call", name, args)``."""
    if payload[0] == "call":
        return ("call", payload[1], payload[2])
    return payload


def _compare_effects(
    eq: _Equiv,
    start: int,
    comp: _Summary,
    ref: _Summary,
    diags: List[Diagnostic],
) -> None:
    comp_streams: Dict[str, List[Tuple[Guard, Tuple]]] = {}
    ref_streams: Dict[str, List[Tuple[Guard, Tuple]]] = {}
    for streams, summary in ((comp_streams, comp), (ref_streams, ref)):
        for stream, guard, payload in summary.effects:
            streams.setdefault(stream, []).append(
                (guard, _normalize_payload(payload))
            )
    for stream in sorted(set(comp_streams) | set(ref_streams)):
        got = comp_streams.get(stream, [])
        want = ref_streams.get(stream, [])
        code = _stream_code(stream)
        if len(got) != len(want):
            diags.append(
                _diag(
                    code,
                    start,
                    f"block _b{start}: {stream} effect count mismatch: "
                    f"generated code has {len(got)}, reference has "
                    f"{len(want)}",
                )
            )
            continue
        for index, ((g1, p1), (g2, p2)) in enumerate(zip(got, want)):
            if not _payload_equal(eq, p1, p2):
                diags.append(
                    _diag(
                        code,
                        start,
                        f"block _b{start}: {stream} effect #{index} "
                        f"differs: generated {_fmt(p1)} vs reference "
                        f"{_fmt(p2)}",
                    )
                )
            elif not _guards_equal(eq, g1, g2):
                diags.append(
                    _diag(
                        code,
                        start,
                        f"block _b{start}: {stream} effect #{index} "
                        f"fires under a different condition: generated "
                        f"{_fmt(g1)} vs reference {_fmt(g2)}",
                    )
                )


_SCALAR_NAMES = ("executed", "fetch_cycle", "cap_used", "last_retire")


def _compare_summaries(
    decoded: DecodedProgram,
    start: int,
    comp: _Summary,
    ref: _Summary,
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    eq = _Equiv(decoded)

    # Register-file finals: architectural registers are CG001; the
    # ready table is latency metadata (CG004).
    keys = {
        key
        for key in set(comp.env) | set(ref.env)
        if isinstance(key, tuple)
    }
    for key in sorted(keys):
        tag, index = key
        got = comp.env.get(key, key)
        want = ref.env.get(key, key)
        if not eq.equal(got, want):
            if tag == "r":
                code, what = "CG001", f"register r{index}"
            else:
                code, what = "CG004", f"ready time rdy[{index}]"
            diags.append(
                _diag(
                    code,
                    start,
                    f"block _b{start}: {what} final value differs: "
                    f"generated {_fmt(got)} vs reference {_fmt(want)}",
                )
            )

    _compare_effects(eq, start, comp, ref, diags)

    # Successor PC and the returned scheduling scalars.
    got_ret, want_ret = comp.ret, ref.ret
    if got_ret is None or want_ret is None:
        if got_ret != want_ret:
            diags.append(
                _diag(
                    "CG003",
                    start,
                    f"block _b{start}: one side does not return "
                    f"(generated {_fmt(got_ret)}, reference "
                    f"{_fmt(want_ret)})",
                )
            )
        return diags
    ok_shape = (
        got_ret[0] == "tuple"
        and want_ret[0] == "tuple"
        and len(got_ret[1]) == 5
        and len(want_ret[1]) == 5
    )
    if not ok_shape:
        diags.append(
            _diag(
                "CG003",
                start,
                f"block _b{start}: timing return is not the "
                f"(pc, {', '.join(_SCALAR_NAMES)}) tuple: generated "
                f"{_fmt(got_ret)} vs reference {_fmt(want_ret)}",
            )
        )
        return diags
    if not eq.equal(got_ret[1][0], want_ret[1][0]):
        diags.append(
            _diag(
                "CG003",
                start,
                f"block _b{start}: successor PC differs: generated "
                f"{_fmt(got_ret[1][0])} vs reference "
                f"{_fmt(want_ret[1][0])}",
            )
        )
    for pos, name in enumerate(_SCALAR_NAMES, start=1):
        if not eq.equal(got_ret[1][pos], want_ret[1][pos]):
            diags.append(
                _diag(
                    "CG004",
                    start,
                    f"block _b{start}: returned {name} differs: "
                    f"generated {_fmt(got_ret[1][pos])} vs reference "
                    f"{_fmt(want_ret[1][pos])}",
                )
            )
    return diags


# ----------------------------------------------------------------------
# Whole-program structural checks
# ----------------------------------------------------------------------


def _structural_diagnostics(
    decoded: DecodedProgram,
    compiled: CompiledBlocks,
    bind: ast.FunctionDef,
    extra_leaders: Sequence[int],
) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    n = len(decoded)
    actual = [
        (start, start + length)
        for start, length in zip(compiled.starts, compiled.lengths)
    ]
    expected = discover_blocks(decoded, extra_leaders=extra_leaders)
    if actual != expected:
        diags.append(
            _diag(
                "CG003",
                0,
                f"block partition mismatch: compiled {actual[:8]}... vs "
                f"leader analysis {expected[:8]}...",
            )
        )
    # Independent partition sanity: the compilation must cover the
    # program exactly, and no control transfer may be buried inside a
    # block.
    terminators = frozenset((K_BRANCH, K_JUMP, K_JAL, K_JR, K_HALT))
    covered = 0
    for start, end in actual:
        if start != covered:
            diags.append(
                _diag(
                    "CG003",
                    start,
                    f"block gap/overlap: block starts at {start}, "
                    f"coverage so far ends at {covered}",
                )
            )
        covered = end
    if actual and covered != n:
        diags.append(
            _diag(
                "CG003",
                covered,
                f"blocks cover [0, {covered}) but the program has {n} "
                "instructions",
            )
        )
    for start, end in actual:
        for pc in range(start, end - 1):
            if decoded.kind[pc] in terminators:
                diags.append(
                    _diag(
                        "CG003",
                        pc,
                        f"terminator at pc {pc} buried inside block "
                        f"[{start}, {end})",
                    )
                )
    # Dispatch table literal: every block maps its leader to its own
    # function, length, and index.
    ret = bind.body[-1] if bind.body else None
    table: Dict[int, Tuple[str, int, int]] = {}
    if (
        isinstance(ret, ast.Return)
        and isinstance(ret.value, ast.Dict)
    ):
        for key, value in zip(ret.value.keys, ret.value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(value, ast.Tuple)
                and len(value.elts) == 3
                and isinstance(value.elts[0], ast.Name)
                and isinstance(value.elts[1], ast.Constant)
                and isinstance(value.elts[2], ast.Constant)
            ):
                table[key.value] = (
                    value.elts[0].id,
                    value.elts[1].value,
                    value.elts[2].value,
                )
    expected_table = {
        start: (f"_b{start}", length, index)
        for index, (start, length) in enumerate(
            zip(compiled.starts, compiled.lengths)
        )
    }
    if table != expected_table:
        for start in sorted(set(table) | set(expected_table)):
            if table.get(start) != expected_table.get(start):
                diags.append(
                    _diag(
                        "CG003",
                        start,
                        f"dispatch table entry for leader {start} is "
                        f"{table.get(start)}, expected "
                        f"{expected_table.get(start)}",
                    )
                )
    return diags


def fallback_reason(decoded: DecodedProgram) -> str:
    """Why :func:`~repro.engine.compiler.compile_timing` returned ``None``."""
    n = len(decoded)
    if not n:
        return "empty program"
    if n > MAX_PROGRAM:
        return f"program length {n} exceeds MAX_PROGRAM ({MAX_PROGRAM})"
    known = frozenset(
        (
            K_ALU_R,
            K_ALU_I,
            K_LOAD,
            K_STORE,
            K_BRANCH,
            K_JUMP,
            K_JAL,
            K_JR,
            K_NOP,
            K_HALT,
        )
    )
    for pc in range(n):
        kind = decoded.kind[pc]
        if kind not in known:
            return f"unknown instruction kind {kind} at pc {pc}"
        op = decoded.program.instructions[pc].op
        if kind in (K_ALU_R, K_ALU_I) and op not in _ALU_TEMPLATES:
            return f"no ALU template for {op} at pc {pc}"
        if kind == K_BRANCH and op not in _BRANCH_OPS:
            return f"no branch template for {op} at pc {pc}"
    return "unknown reason (compiler returned None unexpectedly)"


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


@dataclass
class TransvalResult:
    """Outcome of validating one compiled program variant (or several,
    via :meth:`merge`)."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    blocks_checked: int = 0
    blocks_failed: int = 0
    blocks_unvalidatable: int = 0
    fallbacks: int = 0

    @property
    def ok(self) -> bool:
        return not any(
            d.severity is Severity.ERROR for d in self.diagnostics
        )

    def merge(self, other: "TransvalResult") -> "TransvalResult":
        self.diagnostics = sort_diagnostics(
            self.diagnostics + other.diagnostics
        )
        self.blocks_checked += other.blocks_checked
        self.blocks_failed += other.blocks_failed
        self.blocks_unvalidatable += other.blocks_unvalidatable
        self.fallbacks += other.fallbacks
        return self


def _publish(result: TransvalResult) -> None:
    registry = get_registry()
    if result.blocks_checked:
        registry.counter("analysis.transval.blocks_checked").inc(
            result.blocks_checked
        )
    if result.blocks_failed:
        registry.counter("analysis.transval.blocks_failed").inc(
            result.blocks_failed
        )
    if result.blocks_unvalidatable:
        registry.counter("analysis.transval.blocks_unvalidatable").inc(
            result.blocks_unvalidatable
        )


@contextlib.contextmanager
def _deep_recursion(limit: int = 50_000):
    """Symbolic evaluation recurses to the expression-DAG depth, which
    for a MAX_BLOCK-length block runs well past the default limit."""
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(previous)


#: Parameters of every generated timing block function.
_TIMING_ARGS = (
    "executed",
    "fetch_cycle",
    "cap_used",
    "last_retire",
    "regs",
    "rdy",
)


def validate_timing(
    decoded: DecodedProgram,
    compiled: Optional[CompiledBlocks],
    params: TimingParams,
) -> TransvalResult:
    """Validate a timing-engine compilation against the decode."""
    result = TransvalResult()
    extra_leaders = sorted(params.trigger_pcs) if params.launching else ()
    with get_tracer().span("analysis.transval.timing"), _deep_recursion():
        if compiled is None:
            result.fallbacks = 1
            result.diagnostics.append(
                _diag(
                    "CG101",
                    0,
                    "timing codegen fell back to the interpreter: "
                    f"{fallback_reason(decoded)}",
                )
            )
            _publish(result)
            return result
        tree = ast.parse(compiled.source)
        bind = tree.body[0]
        if not (
            isinstance(bind, ast.FunctionDef) and bind.name == "_bind"
        ):
            result.diagnostics.append(
                _diag("CG005", 0, "generated module does not define _bind")
            )
            _publish(result)
            return result
        functions = {
            stmt.name: stmt
            for stmt in bind.body
            if isinstance(stmt, ast.FunctionDef)
        }
        result.diagnostics.extend(
            _structural_diagnostics(decoded, compiled, bind, extra_leaders)
        )
        for start, length in zip(compiled.starts, compiled.lengths):
            end = start + length
            result.blocks_checked += 1
            block_diags: List[Diagnostic] = []
            fn = functions.get(f"_b{start}")
            if fn is None:
                block_diags.append(
                    _diag(
                        "CG003",
                        start,
                        f"no generated function _b{start} for block "
                        f"leader {start}",
                    )
                )
            elif tuple(a.arg for a in fn.args.args) != _TIMING_ARGS:
                block_diags.append(
                    _diag(
                        "CG005",
                        start,
                        f"block _b{start} signature "
                        f"{tuple(a.arg for a in fn.args.args)} != "
                        f"{_TIMING_ARGS}",
                    )
                )
            else:
                try:
                    comp_sum = _Extractor(decoded).run(fn)
                    ref_fn = ast.parse(
                        timing_reference_source(decoded, start, end, params)
                    ).body[0]
                    assert isinstance(ref_fn, ast.FunctionDef)
                    ref_sum = _Extractor(decoded).run(ref_fn)
                    block_diags = _compare_summaries(
                        decoded, start, comp_sum, ref_sum
                    )
                except UnvalidatableConstruct as exc:
                    block_diags = [
                        _diag(
                            "CG005",
                            start,
                            f"block _b{start}: {exc.detail}",
                        )
                    ]
            if any(d.severity is Severity.ERROR for d in block_diags):
                result.blocks_failed += 1
                if any(d.code == "CG005" for d in block_diags):
                    result.blocks_unvalidatable += 1
            result.diagnostics.extend(block_diags)
        result.diagnostics = sort_diagnostics(result.diagnostics)
        _publish(result)
    return result
