"""Multi-dialect IR interpreter with dynamic operation accounting.

The interpreter executes modules at any of the levels the two compilation
flows produce — HLFIR/FIR (Flang frontend output and FIR-only baseline form)
and the standard dialects (scf/affine/memref/vector/linalg, optionally with
omp/acc/gpu regions) — so that:

* numerical results of the two flows can be compared (correctness gate), and
* dynamic operation counts per category feed the machine cost model
  (:mod:`repro.machine.perf`), which is how modeled runtimes for the paper's
  tables are produced.

Statistics are kept per execution context: ``serial``, ``parallel`` (inside
omp/scf.parallel regions) and ``gpu`` (inside gpu.launch kernels), which the
threading and GPU models use.

Execution engines
-----------------

Three engines execute the same IR with bit-identical observables
(``engine="reference" | "compiled" | "jit"``).  ``compiled`` — the
default cached-dispatch engine — is described below; ``jit`` goes further
and translates blocks into generated Python source
(:mod:`repro.machine.jit`).

Interpreting a table regeneration executes tens of millions of operations,
so the cached-dispatch inner loop avoids all per-operation dispatch work:

* handler resolution is cached at class level (op name -> handler, resolved
  once per name instead of a ``getattr`` with string building per executed
  op), and
* every block is compiled on first entry into a list of closures ("thunks"),
  one per operation, with operands, results, attributes and the stats
  category already resolved; re-executing the block (every loop iteration)
  just calls the thunks.  Adjacent address-computation + load/store pairs
  (``fir.array_coor``/``hlfir.designate`` feeding a single ``fir.load``,
  ``fir.store`` or ``hlfir.assign``) are fused into a single thunk that
  skips the intermediate :class:`ElementPtr` allocation.
* affine maps and FIR descriptor ops (``fir.box_addr``, ``fir.box_dims``,
  ``fir.coordinate_of``) are bound when their block is compiled: each
  ``affine.load``/``affine.store``/``affine.apply`` map becomes generated
  straight-line arithmetic (:meth:`AffineExpr.python_source`) instead of
  a per-execution tree walk.  The tree walk,
  :meth:`AffineMapAttr.evaluate`, stays the reference oracle: the
  ``reference`` engine still calls it.
* the ``max_ops`` limit is checked once per ``N`` executed operations
  (``N`` scales with ``max_ops``) instead of before every operation, and
* statistics bumps go straight into a pre-fetched per-context ``Counter``
  (kept in sync with the context stack) with fused total-ops accounting.

The original one-op-at-a-time engine is kept as a reference implementation
(``Interpreter(..., engine="reference")``); all engines produce
bit-identical results and statistics, which ``tests/machine`` asserts and
``benchmarks/interpreter_bench.py`` uses as the speedup baseline.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..dialects import fir as fir_d
from ..flang import runtime as flang_runtime
from ..ir import types as ir_types
from ..ir.core import Block, Operation, Value
from .semantics import (CMPF, CMPI_SIGNED, CMPI_UNSIGNED, as_unsigned,
                        cmpi_eval, int_ceildiv, int_div, int_floordiv,
                        int_rem, int_width)
from .values import (Cell, ElementPtr, FortranArray, as_ndarray, load_element,
                     numpy_dtype_for, store_element)


class InterpreterError(Exception):
    pass


class ExecutionLimitExceeded(InterpreterError):
    pass


@dataclass
class ExecutionStats:
    """Dynamic operation counts per context ('serial', 'parallel', 'gpu')."""

    counts: Dict[str, Counter] = field(default_factory=lambda: defaultdict(Counter))
    parallel_loop_iterations: int = 0
    parallel_regions: int = 0
    gpu_kernel_launches: int = 0
    gpu_threads: int = 0
    runtime_calls: Counter = field(default_factory=Counter)
    runtime_elements: Counter = field(default_factory=Counter)
    total_ops: int = 0

    def bump(self, context: str, category: str, amount: float = 1.0) -> None:
        self.counts[context][category] += amount
        self.total_ops += 1

    def total(self, category: str, contexts: Optional[Sequence[str]] = None) -> float:
        contexts = contexts or list(self.counts)
        return sum(self.counts[c].get(category, 0.0) for c in contexts)

    def context_total(self, context: str) -> float:
        return sum(self.counts[context].values())

    def merged(self) -> Counter:
        """All per-context counts folded into one Counter (single pass)."""
        total: Counter = Counter()
        for ctr in self.counts.values():
            total.update(ctr)
        return total

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {c: dict(v) for c, v in self.counts.items()}

    def diff(self, other: "ExecutionStats") -> List[str]:
        """Human-readable field-level differences against ``other``.

        Returns an empty list when the two stats are identical; used by the
        conformance oracle to name exactly which observable diverged.
        """
        out: List[str] = []
        contexts = sorted(set(self.counts) | set(other.counts))
        for context in contexts:
            # .get, not indexing: diff must not grow either defaultdict
            mine = self.counts.get(context, Counter())
            theirs = other.counts.get(context, Counter())
            for category in sorted(set(mine) | set(theirs)):
                if mine.get(category, 0.0) != theirs.get(category, 0.0):
                    out.append(f"counts[{context}][{category}]: "
                               f"{mine.get(category, 0.0)} != "
                               f"{theirs.get(category, 0.0)}")
        for name in ("parallel_loop_iterations", "parallel_regions",
                     "gpu_kernel_launches", "gpu_threads", "total_ops"):
            a, b = getattr(self, name), getattr(other, name)
            if a != b:
                out.append(f"{name}: {a} != {b}")
        for name in ("runtime_calls", "runtime_elements"):
            mine, theirs = getattr(self, name), getattr(other, name)
            for key in sorted(set(mine) | set(theirs)):
                if mine.get(key, 0) != theirs.get(key, 0):
                    out.append(f"{name}[{key}]: {mine.get(key, 0)} != "
                               f"{theirs.get(key, 0)}")
        return out


# ---------------------------------------------------------------------------
# Dispatch tables (value semantics live in repro.machine.semantics, shared
# with the canonicalizer's constant folder)
# ---------------------------------------------------------------------------

_FLOAT_BINOPS = {
    "arith.addf": lambda a, b: a + b, "arith.subf": lambda a, b: a - b,
    "arith.mulf": lambda a, b: a * b, "arith.divf": lambda a, b: a / b,
    "arith.remf": lambda a, b: np.fmod(a, b),
    "arith.maximumf": lambda a, b: np.maximum(a, b),
    "arith.minimumf": lambda a, b: np.minimum(a, b),
}
_INT_BINOPS = {
    "arith.addi": lambda a, b: a + b, "arith.subi": lambda a, b: a - b,
    "arith.muli": lambda a, b: a * b,
    "arith.divsi": int_div,
    "arith.floordivsi": int_floordiv,
    "arith.ceildivsi": int_ceildiv,
    "arith.remsi": int_rem,
    "arith.andi": lambda a, b: (bool(a) and bool(b)) if isinstance(a, (bool, np.bool_)) else a & b,
    "arith.ori": lambda a, b: (bool(a) or bool(b)) if isinstance(a, (bool, np.bool_)) else a | b,
    "arith.xori": lambda a, b: bool(a) != bool(b) if isinstance(a, (bool, np.bool_)) else a ^ b,
    "arith.maxsi": lambda a, b: max(a, b), "arith.minsi": lambda a, b: min(a, b),
    "arith.shli": lambda a, b: a << b, "arith.shrsi": lambda a, b: a >> b,
}
_MATH_UNARY = {
    "math.sqrt": np.sqrt, "math.exp": np.exp, "math.log": np.log,
    "math.log10": np.log10, "math.sin": np.sin, "math.cos": np.cos,
    "math.tan": np.tan, "math.tanh": np.tanh, "math.atan": np.arctan,
    "math.absf": np.abs, "math.absi": abs,
}

# ---------------------------------------------------------------------------
# Block-structure sets used by both execution engines
# ---------------------------------------------------------------------------

_RETURN_OPS = frozenset({"func.return", "llvm.return"})
_BR_OPS = frozenset({"cf.br", "llvm.br"})
_COND_BR_OPS = frozenset({"cf.cond_br", "llvm.cond_br"})
_YIELD_OPS = frozenset({
    "scf.yield", "fir.result", "affine.yield", "omp.yield",
    "omp.terminator", "acc.terminator", "gpu.terminator",
    "linalg.yield", "scf.reduce.return", "memref.alloca_scope.return",
    "scf.condition", "hlfir.yield_element", "fir.has_value"})


#: The three interpreter engines.  ``reference`` executes one op at a time
#: (string-built getattr dispatch) and is the oracle, ``compiled`` caches
#: per-block thunk lists, and ``jit`` translates blocks (and structured loop
#: bodies) into generated Python source (see :mod:`repro.machine.jit`).
#: All three are observationally bit-identical — output and statistics.
ENGINE_NAMES = ("compiled", "reference", "jit")


class Interpreter:
    """Executes a module and records dynamic operation statistics."""

    #: op name -> handler function (resolved once per name, class-level).
    _HANDLER_CACHE: Dict[str, Optional[Callable]] = {}

    def __init__(self, module: Operation, *, max_ops: int = 80_000_000,
                 trace_output: bool = False, compile_blocks: bool = True,
                 engine: Optional[str] = None):
        if engine is None:
            engine = "compiled" if compile_blocks else "reference"
        if engine not in ENGINE_NAMES:
            raise InterpreterError(
                f"unknown interpreter engine {engine!r} "
                f"(known: {', '.join(ENGINE_NAMES)})")
        self.module = module
        self.stats = ExecutionStats()
        self.max_ops = max_ops
        self.globals: Dict[str, object] = {}
        self.functions: Dict[str, Operation] = {}
        self.context_stack: List[str] = ["serial"]
        self.printed: List[str] = []
        self.trace_output = trace_output
        self.engine = engine
        self.compile_blocks = engine != "reference"
        #: per-context Counter for the current context (hot-path bump target)
        self._ctx_counts: Counter = self.stats.counts["serial"]
        #: compiled thunk lists, one per visited Block
        self._block_cache: Dict[Block, List[Callable]] = {}
        # limit checking is batched: every _check_stride executed ops
        self._check_stride = max(1, min(4096, max_ops // 16))
        self._budget = self._check_stride
        if engine == "jit":
            from .jit import JitEngine
            self._jit = JitEngine(self)
            self._run_block = self._jit.run_block
        elif engine == "compiled":
            self._run_block = self._run_block_compiled
        else:
            self._run_block = self._run_block_simple
        self._collect_symbols()

    # ------------------------------------------------------------------ set-up
    def _collect_symbols(self) -> None:
        for op in self.module.body.ops:
            sym = op.get_attr("sym_name")
            if op.name in ("func.func", "llvm.func") and sym is not None:
                self.functions[sym.value] = op
            elif op.name in ("fir.global", "memref.global", "llvm.mlir.global") \
                    and sym is not None:
                self.globals[sym.value] = self._init_global(op)

    def _init_global(self, op: Operation):
        gtype = op.get_attr("type") or op.get_attr("global_type")
        t = gtype.type if gtype is not None else None
        init = op.get_attr("initial_value") or op.get_attr("value")
        if isinstance(t, fir_d.SequenceType):
            arr = FortranArray(t.shape, dtype=numpy_dtype_for(t.element_type))
            return arr
        if isinstance(t, ir_types.MemRefType):
            return np.zeros(t.shape, dtype=numpy_dtype_for(t.element_type))
        cell = Cell(0)
        if init is not None and hasattr(init, "value"):
            cell.value = init.value
        return cell

    # ------------------------------------------------------------------ context
    @property
    def context(self) -> str:
        return self.context_stack[-1]

    def _push_context(self, name: str) -> None:
        self.context_stack.append(name)
        self._ctx_counts = self.stats.counts[name]

    def _pop_context(self) -> None:
        self.context_stack.pop()
        self._ctx_counts = self.stats.counts[self.context_stack[-1]]

    def _check_limit(self) -> None:
        if self.stats.total_ops > self.max_ops:
            raise ExecutionLimitExceeded(
                f"interpreter exceeded {self.max_ops} operations")

    # ------------------------------------------------------------------ running
    def run_main(self):
        for name in ("_QQmain", "main", "MAIN"):
            if name in self.functions:
                return self.call(name, [])
        raise InterpreterError("module has no main program")

    def call(self, name: str, args: Sequence) -> List:
        func = self.functions.get(name)
        if func is None:
            return self._runtime_call(name, list(args), [])
        self._ctx_counts["call"] += 1.0
        self.stats.total_ops += 1
        return self._run_function(func, list(args))

    def _run_function(self, func: Operation, args: List) -> List:
        region = func.regions[0]
        if not region.blocks:
            return []
        env: Dict[Value, object] = {}
        entry = region.blocks[0]
        for block_arg, value in zip(entry.args, args):
            env[block_arg] = value
        block = entry
        run_block = self._run_block
        while True:
            action, payload = run_block(block, env)
            if action == "return":
                return payload
            if action == "branch":
                block, incoming = payload
                for block_arg, value in zip(block.args, incoming):
                    env[block_arg] = value
                continue
            raise InterpreterError(f"unexpected control action {action}")

    # ------------------------------------------------------------------ blocks
    #
    # The compiled engine turns each block into a list of closures on first
    # entry.  A thunk returns None (plain operation) or a control tuple
    # ("return" | "branch" | "yield", payload) that _run_block forwards.

    def _run_block_compiled(self, block: Block, env: Dict) -> Tuple[str, object]:
        code = self._block_cache.get(block)
        if code is None:
            code = self._block_cache[block] = self._compile_block(block)
        budget = self._budget - len(code)
        if budget <= 0:
            self._check_limit()
            budget = self._check_stride
        self._budget = budget
        for step in code:
            result = step(env)
            if result is not None:
                return result
        return "yield", (None, [])

    def _compile_block(self, block: Block) -> List[Callable]:
        code: List[Callable] = []
        ops = block.ops
        skip_next = False
        for position, op in enumerate(ops):
            if skip_next:
                skip_next = False
                continue
            follower = ops[position + 1] if position + 1 < len(ops) else None
            thunk = self._compile_op(op, follower)
            if thunk is _FUSED_WITH_NEXT:
                thunk = self._fused_thunk(op, follower)
                skip_next = True
            code.append(thunk)
        return code

    def _compile_op(self, op: Operation, follower: Optional[Operation]) -> Callable:
        name = op.name
        interp = self
        stats = self.stats
        if name in _RETURN_OPS:
            vals = op.operands

            def do_return(env, _vals=vals):
                return "return", [env.get(v) for v in _vals]
            return do_return
        if name in _BR_OPS:
            succ = op.successors[0]
            vals = op.operands

            def do_br(env, _succ=succ, _vals=vals):
                interp._ctx_counts["branch"] += 1.0
                stats.total_ops += 1
                return "branch", (_succ, [env.get(v) for v in _vals])
            return do_br
        if name in _COND_BR_OPS:
            n_attr = op.get_attr("num_true_operands")
            n = n_attr.value if n_attr is not None else 0
            cond_v = op.operands[0]
            true_vals = op.operands[1:1 + n]
            false_vals = op.operands[1 + n:]
            true_succ, false_succ = op.successors[0], op.successors[1]

            def do_cond_br(env):
                interp._ctx_counts["branch"] += 1.0
                stats.total_ops += 1
                if env.get(cond_v):
                    return "branch", (true_succ, [env.get(v) for v in true_vals])
                return "branch", (false_succ, [env.get(v) for v in false_vals])
            return do_cond_br
        if name in _YIELD_OPS:
            vals = op.operands

            def do_yield(env, _op=op, _vals=vals):
                return "yield", (_op, [env.get(v) for v in _vals])
            return do_yield
        maker = _THUNK_MAKERS.get(name)
        if maker is not None:
            if maker in _FUSABLE_MAKERS and _fusable(op, follower):
                return _FUSED_WITH_NEXT
            return maker(self, op)
        handler = self._resolve_handler(name)
        if handler is None:
            def missing(env, _name=name):
                raise InterpreterError(
                    f"interpreter cannot execute operation {_name}")
            return missing
        # partial(bound_handler, op) -> handler(self, op, env) on each call
        return partial(handler.__get__(self, type(self)), op)

    @classmethod
    def _resolve_handler(cls, name: str) -> Optional[Callable]:
        """Class-level dispatch table: op name -> handler, resolved once."""
        try:
            return cls._HANDLER_CACHE[name]
        except KeyError:
            handler = getattr(cls, "_exec_" + name.replace(".", "_"), None)
            if handler is None:
                handler = _TABLE_HANDLERS.get(name)
            cls._HANDLER_CACHE[name] = handler
            return handler

    def _fused_thunk(self, op: Operation, follower: Operation) -> Callable:
        """One thunk for an address computation plus the single load/store
        that consumes it (skips the intermediate ElementPtr)."""
        interp = self
        stats = self.stats
        unwrap_cell = op.name == "hlfir.designate"
        base_v = op.operands[0]
        index_vals = tuple(op.indices)
        if follower.name == "fir.load":
            res = follower.results[0]

            def fused_load(env):
                base = env[base_v]
                counts = interp._ctx_counts
                counts["index_arith"] += 1.0
                counts["load"] += 1.0
                stats.total_ops += 2
                if unwrap_cell and type(base) is Cell:
                    base = base.value
                env[res] = load_element(
                    base, tuple(int(env[v]) for v in index_vals))
            return fused_load
        value_v = follower.operands[0]

        def fused_store(env):
            base = env[base_v]
            counts = interp._ctx_counts
            counts["index_arith"] += 1.0
            counts["store"] += 1.0
            stats.total_ops += 2
            if unwrap_cell and type(base) is Cell:
                base = base.value
            store_element(base, tuple(int(env[v]) for v in index_vals),
                          env[value_v])
        return fused_store

    # The reference engine: one op at a time, exactly the pre-cached-dispatch
    # behaviour (per-op limit check, string-built getattr dispatch).  Kept as
    # the correctness baseline for the compiled engine and as the benchmark's
    # reference point.
    def _run_block_simple(self, block: Block, env: Dict) -> Tuple[str, object]:
        for op in block.ops:
            self._check_limit()
            name = op.name
            # terminators that transfer control
            if name in _RETURN_OPS:
                return "return", [env.get(v) for v in op.operands]
            if name in _BR_OPS:
                self.stats.bump(self.context, "branch")
                return "branch", (op.successors[0], [env.get(v) for v in op.operands])
            if name in _COND_BR_OPS:
                self.stats.bump(self.context, "branch")
                cond = bool(env.get(op.operands[0]))
                n_attr = op.get_attr("num_true_operands")
                n = n_attr.value if n_attr is not None else 0
                if cond:
                    return "branch", (op.successors[0],
                                      [env.get(v) for v in op.operands[1:1 + n]])
                return "branch", (op.successors[1],
                                  [env.get(v) for v in op.operands[1 + n:]])
            if name in _YIELD_OPS:
                return "yield", (op, [env.get(v) for v in op.operands])
            self._execute_op(op, env)
        return "yield", (None, [])

    # ------------------------------------------------------------- single ops
    def _execute_op(self, op: Operation, env: Dict) -> None:
        name = op.name
        handler = getattr(self, "_exec_" + name.replace(".", "_"), None)
        if handler is not None:
            handler(op, env)
            return
        table_handler = _TABLE_HANDLERS.get(name)
        if table_handler is not None:
            table_handler(self, op, env)
            return
        raise InterpreterError(f"interpreter cannot execute operation {name}")

    # -- accounting helpers ------------------------------------------------------
    def _count_arith(self, op: Operation, result, is_float: bool) -> None:
        if isinstance(result, np.ndarray) and result.size > 1:
            self.stats.bump(self.context, "vector_float" if is_float else "vector_int")
            return
        if is_float:
            self.stats.bump(self.context, "float_arith")
        else:
            operand_type = op.operands[0].type
            if isinstance(operand_type, ir_types.IndexType):
                self.stats.bump(self.context, "index_arith")
            else:
                self.stats.bump(self.context, "int_arith")

    def _count_vector_or_scalar(self, value, category: str) -> None:
        if isinstance(value, np.ndarray) and value.size > 1:
            self.stats.bump(self.context, "vector_float")
        else:
            self.stats.bump(self.context, category)

    # -- constants & casts -------------------------------------------------------
    def _exec_arith_constant(self, op, env) -> None:
        env[op.results[0]] = op.get_attr("value").value

    def _exec_arith_cmpi(self, op, env) -> None:
        a, b = env[op.operands[0]], env[op.operands[1]]
        predicate = op.get_attr("predicate").value
        env[op.results[0]] = cmpi_eval(predicate,
                                       int_width(op.operands[0].type), a, b)
        self.stats.bump(self.context, "cmp")

    def _exec_arith_cmpf(self, op, env) -> None:
        a, b = env[op.operands[0]], env[op.operands[1]]
        env[op.results[0]] = CMPF[op.get_attr("predicate").value](a, b)
        self.stats.bump(self.context, "cmp")

    def _exec_arith_select(self, op, env) -> None:
        cond, a, b = (env[v] for v in op.operands)
        env[op.results[0]] = a if cond else b
        self.stats.bump(self.context, "int_arith")

    def _exec_arith_negf(self, op, env) -> None:
        value = env[op.operands[0]]
        env[op.results[0]] = -value
        self._count_vector_or_scalar(value, "float_arith")

    def _cast_like(self, op, env) -> None:
        value = env[op.operands[0]]
        target = op.results[0].type
        if isinstance(target, ir_types.FloatType):
            env[op.results[0]] = float(value)
        elif isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
            if isinstance(target, ir_types.IntegerType) and target.width == 1:
                env[op.results[0]] = bool(value)
            else:
                env[op.results[0]] = int(value)
        else:
            env[op.results[0]] = value
        self.stats.bump(self.context, "cast")

    _exec_arith_index_cast = _cast_like
    _exec_arith_sitofp = _cast_like
    _exec_arith_fptosi = _cast_like
    _exec_arith_extf = _cast_like
    _exec_arith_truncf = _cast_like
    _exec_arith_extsi = _cast_like
    _exec_arith_extui = _cast_like
    _exec_arith_trunci = _cast_like
    _exec_arith_bitcast = _cast_like

    def _exec_fir_convert(self, op, env) -> None:
        value = env[op.operands[0]]
        target = op.results[0].type
        if isinstance(value, (Cell, FortranArray, ElementPtr, np.ndarray)):
            env[op.results[0]] = value
        elif isinstance(target, ir_types.FloatType):
            env[op.results[0]] = float(value)
        elif isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
            env[op.results[0]] = int(value)
        else:
            env[op.results[0]] = value
        self.stats.bump(self.context, "cast")

    # -- FIR memory ----------------------------------------------------------------
    def _exec_fir_alloca(self, op, env) -> None:
        in_type = op.get_attr("in_type").type
        self.stats.bump(self.context, "alloc")
        if isinstance(in_type, fir_d.SequenceType):
            shape = []
            dyn = iter([env[v] for v in op.operands])
            for d in in_type.shape:
                shape.append(int(next(dyn)) if d == ir_types.DYNAMIC else d)
            env[op.results[0]] = FortranArray(shape, numpy_dtype_for(in_type.element_type))
        else:
            env[op.results[0]] = Cell(0)

    def _exec_fir_allocmem(self, op, env) -> None:
        in_type = op.get_attr("in_type").type
        self.stats.bump(self.context, "alloc")
        if isinstance(in_type, fir_d.SequenceType):
            shape = []
            dyn = iter([env[v] for v in op.operands])
            for d in in_type.shape:
                shape.append(int(next(dyn)) if d == ir_types.DYNAMIC else d)
            env[op.results[0]] = FortranArray(shape, numpy_dtype_for(in_type.element_type))
        else:
            env[op.results[0]] = Cell(0)

    def _exec_fir_freemem(self, op, env) -> None:
        self.stats.bump(self.context, "free")

    def _exec_fir_load(self, op, env) -> None:
        source = env[op.operands[0]]
        self.stats.bump(self.context, "load")
        if isinstance(source, Cell):
            env[op.results[0]] = source.value
        elif isinstance(source, ElementPtr):
            env[op.results[0]] = source.load()
        else:
            env[op.results[0]] = source

    def _exec_fir_store(self, op, env) -> None:
        value, dest = env[op.operands[0]], env[op.operands[1]]
        self.stats.bump(self.context, "store")
        if isinstance(dest, Cell):
            dest.value = value
        elif isinstance(dest, ElementPtr):
            dest.store(value)
        else:
            raise InterpreterError("fir.store destination is not a storage location")

    def _exec_fir_shape(self, op, env) -> None:
        env[op.results[0]] = tuple(int(env[v]) for v in op.operands)

    _exec_fir_shape_shift = _exec_fir_shape

    def _exec_fir_embox(self, op, env) -> None:
        env[op.results[0]] = env[op.operands[0]]

    def _exec_fir_box_addr(self, op, env) -> None:
        value = env[op.operands[0]]
        env[op.results[0]] = value
        self.stats.bump(self.context, "load")

    def _exec_fir_box_dims(self, op, env) -> None:
        box = env[op.operands[0]]
        dim = int(env[op.operands[1]])
        shape = box.shape if isinstance(box, (FortranArray, np.ndarray)) else (1,)
        env[op.results[0]] = 1
        env[op.results[1]] = int(shape[dim]) if dim < len(shape) else 1
        env[op.results[2]] = 1
        self.stats.bump(self.context, "load")

    def _exec_fir_coordinate_of(self, op, env) -> None:
        base = env[op.operands[0]]
        self.stats.bump(self.context, "index_arith")
        if op.get_attr("field") is not None:
            # derived-type member access on a Cell holding a dict
            if isinstance(base, Cell) and isinstance(base.value, dict):
                env[op.results[0]] = base.value.setdefault(
                    op.get_attr("field").value, Cell(0))
            else:
                env[op.results[0]] = base
            return
        flat = int(env[op.operands[1]]) if len(op.operands) > 1 else 0
        if isinstance(base, FortranArray):
            env[op.results[0]] = ElementPtr(base, flat=flat)
        elif isinstance(base, np.ndarray):
            env[op.results[0]] = ElementPtr(base, flat=flat)
        elif isinstance(base, Cell):
            env[op.results[0]] = base
        else:
            raise InterpreterError("fir.coordinate_of on a non-array value")

    def _exec_fir_array_coor(self, op, env) -> None:
        base = env[op.memref]
        indices = [int(env[v]) for v in op.indices]
        self.stats.bump(self.context, "index_arith")
        env[op.results[0]] = ElementPtr(base, indices=tuple(indices))

    def _exec_fir_undefined(self, op, env) -> None:
        env[op.results[0]] = 0

    _exec_fir_absent = _exec_fir_undefined
    _exec_fir_zero_bits = _exec_fir_undefined

    def _exec_fir_string_lit(self, op, env) -> None:
        env[op.results[0]] = op.get_attr("value").value

    def _exec_fir_address_of(self, op, env) -> None:
        env[op.results[0]] = self.globals.get(op.get_attr("symbol").root, Cell(0))

    def _exec_fir_field_index(self, op, env) -> None:
        env[op.results[0]] = op.get_attr("field_id").value

    def _exec_fir_unreachable(self, op, env) -> None:
        raise InterpreterError("reached fir.unreachable")

    # -- HLFIR ----------------------------------------------------------------------
    def _exec_hlfir_declare(self, op, env) -> None:
        value = env[op.operands[0]]
        env[op.results[0]] = value
        env[op.results[1]] = value
        # derived-type storage: a Cell holding a member dict
        inner = fir_d.dereferenced_type(op.operands[0].type)
        if isinstance(inner, fir_d.RecordType) and isinstance(value, Cell) \
                and not isinstance(value.value, dict):
            value.value = {}
            for member, mtype in inner.members:
                if isinstance(mtype, fir_d.SequenceType):
                    value.value[member] = FortranArray(
                        mtype.shape, numpy_dtype_for(mtype.element_type))
                else:
                    value.value[member] = Cell(0)

    def _exec_hlfir_designate(self, op, env) -> None:
        base = env[op.memref]
        self.stats.bump(self.context, "index_arith")
        component = op.component
        if component is not None:
            if isinstance(base, Cell) and isinstance(base.value, dict):
                env[op.results[0]] = base.value.setdefault(component, Cell(0))
            else:
                raise InterpreterError("component access on non-derived storage")
            return
        if isinstance(base, Cell):
            base = base.value
        if op.triplets:
            arr = as_ndarray(base)
            trip = [int(env[v]) for v in op.triplets]
            slices = []
            for d in range(len(trip) // 3):
                lo, hi, st = trip[3 * d:3 * d + 3]
                slices.append(slice(lo - 1, hi, st))
            env[op.results[0]] = arr[tuple(slices)]
            return
        indices = tuple(int(env[v]) for v in op.indices)
        env[op.results[0]] = ElementPtr(base, indices=indices)

    def _exec_hlfir_assign(self, op, env) -> None:
        value, dest = env[op.rhs], env[op.lhs]
        self.stats.bump(self.context, "store")
        if isinstance(dest, Cell):
            if isinstance(dest.value, FortranArray) or isinstance(value, (FortranArray, np.ndarray)):
                dest = dest.value if isinstance(dest.value, FortranArray) else dest
        if isinstance(dest, ElementPtr):
            dest.store(value)
        elif isinstance(dest, Cell):
            dest.value = value
        elif isinstance(dest, FortranArray):
            if isinstance(value, FortranArray):
                dest.data[:] = value.data
            elif isinstance(value, np.ndarray):
                dest.data[:] = value.reshape(-1, order="F")
            else:
                dest.data[:] = value
            self.stats.bump(self.context, "array_assign_elements", dest.size)
        elif isinstance(dest, np.ndarray):
            dest[...] = as_ndarray(value) if not np.isscalar(value) else value
        else:
            raise InterpreterError("hlfir.assign to a non-storage value")

    def _hlfir_reduction(self, op, env, fn) -> None:
        array = as_ndarray(self._unbox(env[op.operands[0]]))
        env[op.results[0]] = fn(array)
        self.stats.bump(self.context, "runtime_elem", array.size)

    def _exec_hlfir_sum(self, op, env) -> None:
        self._hlfir_reduction(op, env, lambda a: float(np.sum(a)))

    def _exec_hlfir_product(self, op, env) -> None:
        self._hlfir_reduction(op, env, lambda a: float(np.prod(a)))

    def _exec_hlfir_maxval(self, op, env) -> None:
        self._hlfir_reduction(op, env, lambda a: float(np.max(a)))

    def _exec_hlfir_minval(self, op, env) -> None:
        self._hlfir_reduction(op, env, lambda a: float(np.min(a)))

    def _exec_hlfir_count(self, op, env) -> None:
        self._hlfir_reduction(op, env, lambda a: int(np.count_nonzero(a)))

    def _exec_hlfir_dot_product(self, op, env) -> None:
        a = as_ndarray(self._unbox(env[op.operands[0]]))
        b = as_ndarray(self._unbox(env[op.operands[1]]))
        env[op.results[0]] = float(np.dot(a.ravel(), b.ravel()))
        self.stats.bump(self.context, "runtime_elem", a.size * 2)

    def _exec_hlfir_matmul(self, op, env) -> None:
        a = as_ndarray(self._unbox(env[op.operands[0]]))
        b = as_ndarray(self._unbox(env[op.operands[1]]))
        env[op.results[0]] = a @ b
        self.stats.bump(self.context, "runtime_elem", a.shape[0] * b.shape[-1])

    def _exec_hlfir_transpose(self, op, env) -> None:
        a = as_ndarray(self._unbox(env[op.operands[0]]))
        env[op.results[0]] = a.T.copy()
        self.stats.bump(self.context, "runtime_elem", a.size)

    def _unbox(self, value):
        return value.value if isinstance(value, Cell) else value

    # -- memref -----------------------------------------------------------------------
    def _exec_memref_alloca(self, op, env) -> None:
        self._memref_alloc(op, env)

    def _exec_memref_alloc(self, op, env) -> None:
        self._memref_alloc(op, env)

    def _memref_alloc(self, op, env) -> None:
        mtype = op.results[0].type
        self.stats.bump(self.context, "alloc")
        if mtype.rank == 0:
            env[op.results[0]] = Cell(0)
            return
        shape = []
        dyn = iter([int(env[v]) for v in op.operands])
        for d in mtype.shape:
            shape.append(int(next(dyn)) if d == ir_types.DYNAMIC else d)
        env[op.results[0]] = np.zeros(shape, dtype=numpy_dtype_for(mtype.element_type))

    def _exec_memref_dealloc(self, op, env) -> None:
        self.stats.bump(self.context, "free")

    def _exec_memref_load(self, op, env) -> None:
        memref_value = env[op.operands[0]]
        indices = [int(env[v]) for v in op.operands[1:]]
        self.stats.bump(self.context, "load")
        if isinstance(memref_value, Cell):
            env[op.results[0]] = memref_value.value
        else:
            env[op.results[0]] = memref_value[tuple(indices)] if indices \
                else memref_value[()]

    def _exec_memref_store(self, op, env) -> None:
        value = env[op.operands[0]]
        memref_value = env[op.operands[1]]
        indices = [int(env[v]) for v in op.operands[2:]]
        self.stats.bump(self.context, "store")
        if isinstance(memref_value, Cell):
            memref_value.value = value
        else:
            memref_value[tuple(indices) if indices else ()] = value

    def _exec_memref_dim(self, op, env) -> None:
        memref_value = env[op.operands[0]]
        dim = int(env[op.operands[1]])
        env[op.results[0]] = int(memref_value.shape[dim])
        self.stats.bump(self.context, "load")

    def _exec_memref_copy(self, op, env) -> None:
        src, dst = env[op.operands[0]], env[op.operands[1]]
        dst[...] = src
        self.stats.bump(self.context, "array_assign_elements", dst.size)

    def _exec_memref_cast(self, op, env) -> None:
        env[op.results[0]] = env[op.operands[0]]

    def _exec_memref_subview(self, op, env) -> None:
        base = env[op.operands[0]]
        rank = base.ndim
        offsets = [int(env[v]) for v in op.offsets]
        sizes = [int(env[v]) for v in op.sizes]
        strides = [int(env[v]) for v in op.strides]
        slices = tuple(slice(o, o + s * st, st) for o, s, st in
                       zip(offsets, sizes, strides))
        env[op.results[0]] = base[slices]
        self.stats.bump(self.context, "index_arith")

    def _exec_memref_get_global(self, op, env) -> None:
        env[op.results[0]] = self.globals[op.get_attr("name").value]

    def _exec_memref_alloca_scope(self, op, env) -> None:
        self._run_nested_block(op.regions[0].blocks[0], env)

    def _exec_llvm_mlir_addressof(self, op, env) -> None:
        env[op.results[0]] = self.globals.get(op.get_attr("global_name").root, Cell(0))

    def _exec_llvm_load(self, op, env) -> None:
        source = env[op.operands[0]]
        env[op.results[0]] = source.value if isinstance(source, Cell) else source
        self.stats.bump(self.context, "load")

    def _exec_llvm_store(self, op, env) -> None:
        value, dest = env[op.operands[0]], env[op.operands[1]]
        if isinstance(dest, Cell):
            dest.value = value
        self.stats.bump(self.context, "store")

    # -- vector ------------------------------------------------------------------------
    def _vector_indices(self, op, env, first_index_operand: int):
        amap = op.get_attr("map")
        operand_values = [int(env[v]) for v in op.operands[first_index_operand:]]
        if amap is not None and len(amap.results) > 0:
            return list(amap.evaluate(operand_values))
        return operand_values

    def _exec_vector_load(self, op, env) -> None:
        memref_value = env[op.operands[0]]
        width = op.results[0].type.shape[0]
        indices = self._vector_indices(op, env, 1)
        lead, last = indices[:-1], indices[-1]
        arr = memref_value[tuple(lead)] if lead else memref_value
        end = min(last + width, arr.shape[-1])
        chunk = np.array(arr[last:end], dtype=float)
        if chunk.size < width:
            chunk = np.pad(chunk, (0, width - chunk.size))
        env[op.results[0]] = chunk
        self.stats.bump(self.context, "vector_load")

    def _exec_vector_store(self, op, env) -> None:
        value = env[op.operands[0]]
        memref_value = env[op.operands[1]]
        indices = self._vector_indices(op, env, 2)
        lead, last = indices[:-1], indices[-1]
        arr = memref_value[tuple(lead)] if lead else memref_value
        end = min(last + len(value), arr.shape[-1])
        arr[last:end] = value[:end - last]
        self.stats.bump(self.context, "vector_store")

    def _exec_vector_broadcast(self, op, env) -> None:
        width = op.results[0].type.shape[0]
        env[op.results[0]] = np.full(width, float(env[op.operands[0]]))
        self.stats.bump(self.context, "vector_int")

    _exec_vector_splat = _exec_vector_broadcast

    def _exec_vector_reduction(self, op, env) -> None:
        value = env[op.operands[0]]
        kind = op.get_attr("kind").value
        table = {"add": np.sum, "mul": np.prod, "minf": np.min, "maxf": np.max,
                 "minsi": np.min, "maxsi": np.max}
        env[op.results[0]] = float(table[kind](value))
        self.stats.bump(self.context, "vector_reduce")

    # -- structured control flow ----------------------------------------------------------
    def _run_nested_block(self, block: Block, env: Dict):
        action, payload = self._run_block(block, env)
        if action == "yield":
            return payload
        if action == "return":
            raise _FunctionReturn(payload)
        raise InterpreterError("unstructured control flow escaping a region")

    def _exec_scf_if(self, op, env) -> None:
        cond = bool(env[op.operands[0]])
        self.stats.bump(self.context, "branch")
        block = op.regions[0].blocks[0] if cond else (
            op.regions[1].blocks[0] if op.regions[1].blocks else None)
        values: List = []
        if block is not None:
            _, (_, values) = None, self._run_nested_block(block, env)
        for res, val in zip(op.results, values[1] if values and isinstance(values, tuple) else values):
            env[res] = val

    def _exec_fir_if(self, op, env) -> None:
        self._exec_scf_if(op, env)

    def _exec_scf_for(self, op, env) -> None:
        lower = int(env[op.operands[0]])
        upper = int(env[op.operands[1]])
        step = int(env[op.operands[2]])
        iter_values = [env[v] for v in op.operands[3:]]
        body = op.regions[0].blocks[0]
        counts = self._ctx_counts
        stats = self.stats
        iv = lower
        while iv < upper:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[body.args[0]] = iv
            for arg, val in zip(body.args[1:], iter_values):
                env[arg] = val
            result = self._run_nested_block(body, env)
            _, yielded = result
            if yielded:
                iter_values = yielded
            iv += max(step, 1) if step > 0 else step
            if step <= 0:
                break
        for res, val in zip(op.results, iter_values):
            env[res] = val

    def _exec_affine_for(self, op, env) -> None:
        lower_ops = [int(env[v]) for v in op.lower_operands]
        upper_ops = [int(env[v]) for v in op.upper_operands]
        lower = op.lower_bound_map.evaluate(lower_ops)[0]
        upper = op.upper_bound_map.evaluate(upper_ops)[0]
        step = op.step_value
        iter_values = [env[v] for v in op.iter_args]
        body = op.regions[0].blocks[0]
        counts = self._ctx_counts
        stats = self.stats
        iv = lower
        while iv < upper:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[body.args[0]] = iv
            for arg, val in zip(body.args[1:], iter_values):
                env[arg] = val
            _, yielded = self._run_nested_block(body, env)
            if yielded:
                iter_values = yielded
            iv += step
        for res, val in zip(op.results, iter_values):
            env[res] = val

    def _exec_affine_load(self, op, env) -> None:
        memref_value = env[op.operands[0]]
        operand_values = [int(env[v]) for v in op.operands[1:]]
        indices = op.get_attr("map").evaluate(operand_values)
        self.stats.bump(self.context, "load")
        if isinstance(memref_value, Cell):
            env[op.results[0]] = memref_value.value
        else:
            env[op.results[0]] = memref_value[tuple(indices)] if indices \
                else memref_value[()]

    def _exec_affine_store(self, op, env) -> None:
        value = env[op.operands[0]]
        memref_value = env[op.operands[1]]
        operand_values = [int(env[v]) for v in op.operands[2:]]
        indices = op.get_attr("map").evaluate(operand_values)
        self.stats.bump(self.context, "store")
        if isinstance(memref_value, Cell):
            memref_value.value = value
        else:
            memref_value[tuple(indices) if indices else ()] = value

    def _exec_affine_apply(self, op, env) -> None:
        operand_values = [int(env[v]) for v in op.operands]
        env[op.results[0]] = op.get_attr("map").evaluate(operand_values)[0]
        self.stats.bump(self.context, "index_arith")

    def _exec_scf_while(self, op, env) -> None:
        before = op.regions[0].blocks[0]
        after = op.regions[1].blocks[0]
        carried = [env[v] for v in op.operands]
        counts = self._ctx_counts
        stats = self.stats
        while True:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            for arg, val in zip(before.args, carried):
                env[arg] = val
            terminator, values = self._run_nested_block(before, env)
            cond = bool(values[0])
            forwarded = values[1:]
            if not cond:
                results = forwarded
                break
            for arg, val in zip(after.args, forwarded):
                env[arg] = val
            _, yielded = self._run_nested_block(after, env)
            carried = yielded
        for res, val in zip(op.results, results):
            env[res] = val

    def _exec_scf_parallel(self, op, env) -> None:
        rank = op.rank
        lowers = [int(env[v]) for v in op.lower_bounds]
        uppers = [int(env[v]) for v in op.upper_bounds]
        steps = [int(env[v]) for v in op.steps]
        body = op.body
        self.stats.parallel_regions += 1
        self._push_context("parallel")
        try:
            self._iterate_parallel(body, lowers, uppers, steps, env)
        finally:
            self._pop_context()

    def _iterate_parallel(self, body, lowers, uppers, steps, env) -> None:
        counts = self._ctx_counts
        stats = self.stats

        def recurse(dim, indices):
            if dim == len(lowers):
                stats.parallel_loop_iterations += 1
                counts["loop_iter"] += 1.0
                stats.total_ops += 1
                for arg, val in zip(body.args, indices):
                    env[arg] = val
                self._run_nested_block(body, env)
                return
            iv = lowers[dim]
            while iv < uppers[dim]:
                recurse(dim + 1, indices + [iv])
                iv += steps[dim]
        recurse(0, [])

    # -- fir loops -----------------------------------------------------------------------
    def _exec_fir_do_loop(self, op, env) -> None:
        lower = int(env[op.operands[0]])
        upper = int(env[op.operands[1]])
        step = int(env[op.operands[2]])
        iter_values = [env[v] for v in op.operands[3:]]
        body = op.regions[0].blocks[0]
        counts = self._ctx_counts
        stats = self.stats
        iv = lower
        if step == 0:
            step = 1
        while (step > 0 and iv <= upper) or (step < 0 and iv >= upper):
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[body.args[0]] = iv
            for arg, val in zip(body.args[1:], iter_values):
                env[arg] = val
            _, yielded = self._run_nested_block(body, env)
            if yielded:
                iter_values = yielded
            iv += step
        results = [iv] + iter_values
        for res, val in zip(op.results, results):
            env[res] = val

    def _exec_fir_iterate_while(self, op, env) -> None:
        lower = int(env[op.operands[0]])
        upper = int(env[op.operands[1]])
        step = int(env[op.operands[2]])
        ok = bool(env[op.operands[3]])
        iter_values = [env[v] for v in op.operands[4:]]
        body = op.regions[0].blocks[0]
        counts = self._ctx_counts
        stats = self.stats
        iv = lower
        while iv <= upper and ok:
            counts["loop_iter"] += 1.0
            stats.total_ops += 1
            env[body.args[0]] = iv
            env[body.args[1]] = ok
            for arg, val in zip(body.args[2:], iter_values):
                env[arg] = val
            _, yielded = self._run_nested_block(body, env)
            if yielded:
                ok = bool(yielded[0])
                iter_values = yielded[1:]
            iv += step if step else 1
        results = [iv, ok] + iter_values
        for res, val in zip(op.results, results):
            env[res] = val

    # -- OpenMP / OpenACC / GPU --------------------------------------------------------------
    def _exec_omp_parallel(self, op, env) -> None:
        self.stats.parallel_regions += 1
        self._push_context("parallel")
        try:
            self._run_nested_block(op.regions[0].blocks[0], env)
        finally:
            self._pop_context()

    def _exec_omp_wsloop(self, op, env) -> None:
        rank = op.rank
        lowers = [int(env[v]) for v in op.lower_bounds]
        uppers = [int(env[v]) for v in op.upper_bounds]
        steps = [int(env[v]) for v in op.steps]
        body = op.body
        self._push_context("parallel")
        counts = self._ctx_counts
        stats = self.stats
        inclusive = op.get_attr("inclusive_ub") is not None
        if not inclusive:
            uppers = [u - 1 for u in uppers]
        try:
            iv = lowers[0]
            # Fortran-generated omp.wsloop uses inclusive bounds; wsloops
            # converted from scf.parallel are exclusive (adjusted above)
            while iv <= uppers[0]:
                stats.parallel_loop_iterations += 1
                counts["loop_iter"] += 1.0
                stats.total_ops += 1
                env[body.args[0]] = iv
                self._run_nested_block(body, env)
                iv += steps[0] if steps[0] else 1
        finally:
            self._pop_context()

    def _exec_omp_barrier(self, op, env) -> None:
        self.stats.bump(self.context, "sync")

    def _exec_acc_kernels(self, op, env) -> None:
        self.stats.gpu_kernel_launches += 1
        self._push_context("gpu")
        try:
            self._run_nested_block(op.regions[0].blocks[0], env)
        finally:
            self._pop_context()
        for res, operand in zip(op.results, op.operands):
            env[res] = env[operand]

    def _exec_acc_data(self, op, env) -> None:
        self._run_nested_block(op.regions[0].blocks[0], env)
        for res, operand in zip(op.results, op.operands):
            env[res] = env[operand]

    def _exec_acc_create(self, op, env) -> None:
        if op.results:
            env[op.results[0]] = env[op.operands[0]]
        self.stats.bump(self.context, "gpu_data_clause")

    _exec_acc_copyin = _exec_acc_create

    def _exec_acc_copyout(self, op, env) -> None:
        self.stats.bump(self.context, "gpu_data_clause")

    _exec_acc_delete = _exec_acc_copyout

    def _exec_gpu_host_register(self, op, env) -> None:
        self.stats.bump(self.context, "gpu_data_clause")

    _exec_gpu_host_unregister = _exec_gpu_host_register

    def _exec_gpu_launch(self, op, env) -> None:
        grid = [int(env[v]) for v in op.operands[0:3]]
        block = [int(env[v]) for v in op.operands[3:6]]
        total_threads = grid[0] * grid[1] * grid[2] * block[0] * block[1] * block[2]
        self.stats.gpu_kernel_launches += 1
        self.stats.gpu_threads += total_threads
        body = op.regions[0].blocks[0]
        self._push_context("gpu")
        try:
            for linear in range(total_threads):
                bid = linear // (block[0] * block[1] * block[2])
                tid = linear % (block[0] * block[1] * block[2])
                args = [bid, 0, 0, tid, 0, 0, grid[0], grid[1], grid[2],
                        block[0], block[1], block[2]]
                for arg, val in zip(body.args, args):
                    env[arg] = val
                self._run_nested_block(body, env)
        finally:
            self._pop_context()

    # -- linalg (when not lowered to loops) ---------------------------------------------------
    def _exec_linalg_fill(self, op, env) -> None:
        value, out = env[op.operands[0]], env[op.operands[1]]
        out[...] = value
        self.stats.bump(self.context, "array_assign_elements", out.size)

    def _exec_linalg_copy(self, op, env) -> None:
        src, out = env[op.operands[0]], env[op.operands[1]]
        out[...] = src
        self.stats.bump(self.context, "array_assign_elements", out.size)

    def _exec_linalg_matmul(self, op, env) -> None:
        a, b, c = (env[v] for v in op.operands)
        c += a @ b
        self.stats.bump(self.context, "linalg_elements", a.shape[0] * b.shape[1] * a.shape[1])

    def _exec_linalg_dot(self, op, env) -> None:
        a, b, out = (env[v] for v in op.operands)
        out.value = (out.value or 0.0) + float(np.dot(a, b)) if isinstance(out, Cell) \
            else out + np.dot(a, b)
        self.stats.bump(self.context, "linalg_elements", a.size)

    def _exec_linalg_transpose(self, op, env) -> None:
        src, out = env[op.operands[0]], env[op.operands[1]]
        out[...] = src.T
        self.stats.bump(self.context, "linalg_elements", out.size)

    def _exec_linalg_reduce(self, op, env) -> None:
        src, out = env[op.operands[0]], env[op.operands[1]]
        total = float(np.sum(src))
        if isinstance(out, Cell):
            out.value = (out.value or 0.0) + total
        else:
            out[()] = out[()] + total
        self.stats.bump(self.context, "linalg_elements", src.size)

    # -- calls ---------------------------------------------------------------------------------
    def _exec_func_call(self, op, env) -> None:
        callee = op.get_attr("callee").root
        args = [env[v] for v in op.operands]
        results = self.call(callee, args)
        for res, val in zip(op.results, results or []):
            env[res] = val

    _exec_fir_call = _exec_func_call
    _exec_llvm_call = _exec_func_call

    def _runtime_call(self, name: str, args: List, result_types) -> List:
        """Calls that do not resolve to a function in the module: Fortran
        runtime entry points, OpenMP runtime, libm, malloc/free."""
        self.stats.runtime_calls[name] += 1
        self.stats.bump(self.context, "runtime_call")
        if name in flang_runtime.IO_SYMBOLS or name.startswith("_FortranAio"):
            self.printed.append(" ".join(str(self._unbox(a)) for a in args))
            return []
        if name == "_FortranAStopStatement":
            return []
        if name == "_FortranAAssign":
            value, target = args[0], args[1]
            target_storage = self._unbox(target)
            if isinstance(target_storage, FortranArray):
                source = self._unbox(value)
                if isinstance(source, FortranArray):
                    target_storage.data[:] = source.data
                elif isinstance(source, np.ndarray):
                    target_storage.data[:] = source.reshape(-1, order="F")
                else:
                    target_storage.data[:] = source
                self.stats.bump(self.context, "runtime_elem", target_storage.size)
            elif isinstance(target, Cell):
                target.value = value
            return []
        if name == "_FortranASectionView":
            base = self._unbox(args[0])
            arr = as_ndarray(base)
            trip = [int(a) for a in args[1:]]
            slices = tuple(slice(trip[i] - 1, trip[i + 1], trip[i + 2])
                           for i in range(0, len(trip), 3))
            return [arr[slices]]
        intrinsic = flang_runtime.SYMBOL_TO_INTRINSIC.get(name)
        if intrinsic is not None:
            arrays = [as_ndarray(self._unbox(a)) for a in args]
            result = flang_runtime.IMPLEMENTATIONS[intrinsic](*arrays)
            elements = max(a.size for a in arrays) if arrays else 0
            if intrinsic == "matmul":
                elements = arrays[0].shape[0] * arrays[0].shape[1] * arrays[1].shape[-1]
            self.stats.runtime_elements[intrinsic] += elements
            self.stats.bump(self.context, "runtime_elem", elements)
            return [result]
        if name in ("malloc",):
            return [Cell(0)]
        if name.startswith("__kmpc") or name in ("free", "memcpy"):
            return []
        if name in ("sqrt", "exp", "log", "sin", "cos", "pow", "fabs", "fma"):
            fn = {"sqrt": np.sqrt, "exp": np.exp, "log": np.log, "sin": np.sin,
                  "cos": np.cos, "fabs": np.abs}.get(name)
            if fn is not None and args:
                return [float(fn(args[0]))]
            if name == "pow" and len(args) >= 2:
                return [float(args[0] ** args[1])]
            if name == "fma" and len(args) >= 3:
                return [float(args[0] * args[1] + args[2])]
        return []


class _FunctionReturn(Exception):
    def __init__(self, values):
        super().__init__("return")
        self.values = values


# ---------------------------------------------------------------------------
# Table-driven handlers (shared by both engines for ops without _exec_ methods)
# ---------------------------------------------------------------------------

def _table_float_binop(interp, op, env):
    a, b = env[op.operands[0]], env[op.operands[1]]
    result = _FLOAT_BINOPS[op.name](a, b)
    env[op.results[0]] = result
    interp._count_arith(op, result, is_float=True)


def _table_int_binop(interp, op, env):
    a, b = env[op.operands[0]], env[op.operands[1]]
    result = _INT_BINOPS[op.name](a, b)
    env[op.results[0]] = result
    interp._count_arith(op, result, is_float=False)


def _table_math_unary(interp, op, env):
    value = env[op.operands[0]]
    env[op.results[0]] = _MATH_UNARY[op.name](value)
    interp._count_vector_or_scalar(value, "float_math")


def _table_pow(interp, op, env):
    a, b = env[op.operands[0]], env[op.operands[1]]
    env[op.results[0]] = a ** b
    interp._count_vector_or_scalar(a, "float_math")


def _table_fma(interp, op, env):
    a, b, c = (env[v] for v in op.operands)
    env[op.results[0]] = a * b + c
    interp._count_vector_or_scalar(a, "float_fma")


def _table_atan2(interp, op, env):
    a, b = env[op.operands[0]], env[op.operands[1]]
    env[op.results[0]] = np.arctan2(a, b)
    interp._count_vector_or_scalar(a, "float_math")


_TABLE_HANDLERS: Dict[str, Callable] = {}
for _name in _FLOAT_BINOPS:
    _TABLE_HANDLERS[_name] = _table_float_binop
for _name in _INT_BINOPS:
    _TABLE_HANDLERS[_name] = _table_int_binop
for _name in _MATH_UNARY:
    _TABLE_HANDLERS[_name] = _table_math_unary
for _name in ("math.powf", "math.fpowi", "math.ipowi"):
    _TABLE_HANDLERS[_name] = _table_pow
for _name in ("math.fma", "vector.fma", "llvm.intr.fmuladd"):
    _TABLE_HANDLERS[_name] = _table_fma
_TABLE_HANDLERS["math.atan2"] = _table_atan2
del _name


# ---------------------------------------------------------------------------
# Thunk makers: (interpreter, op) -> fn(env), with everything static resolved
# at block-compile time (operands, results, attributes, stats category).
# ---------------------------------------------------------------------------

def _generic_thunk(interp, op):
    """The op's ``_exec_`` handler bound to it: ``handler(interp, op, env)``."""
    handler = Interpreter._resolve_handler(op.name)
    return partial(handler.__get__(interp, type(interp)), op)


def _mk_constant(interp, op):
    res = op.results[0]
    value = op.get_attr("value").value

    def run(env):
        env[res] = value
    return run


def _mk_float_binop(interp, op):
    fn = _FLOAT_BINOPS[op.name]
    a, b = op.operands[0], op.operands[1]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        result = fn(env[a], env[b])
        env[res] = result
        if isinstance(result, np.ndarray) and result.size > 1:
            interp._ctx_counts["vector_float"] += 1.0
        else:
            interp._ctx_counts["float_arith"] += 1.0
        stats.total_ops += 1
    return run


def _mk_int_binop(interp, op):
    fn = _INT_BINOPS[op.name]
    a, b = op.operands[0], op.operands[1]
    res = op.results[0]
    stats = interp.stats
    scalar_cat = "index_arith" if isinstance(a.type, ir_types.IndexType) \
        else "int_arith"

    def run(env):
        result = fn(env[a], env[b])
        env[res] = result
        if isinstance(result, np.ndarray) and result.size > 1:
            interp._ctx_counts["vector_int"] += 1.0
        else:
            interp._ctx_counts[scalar_cat] += 1.0
        stats.total_ops += 1
    return run


def _mk_math_unary(interp, op):
    fn = _MATH_UNARY[op.name]
    a = op.operands[0]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        value = env[a]
        env[res] = fn(value)
        if isinstance(value, np.ndarray) and value.size > 1:
            interp._ctx_counts["vector_float"] += 1.0
        else:
            interp._ctx_counts["float_math"] += 1.0
        stats.total_ops += 1
    return run


def _mk_pow(interp, op):
    a, b = op.operands[0], op.operands[1]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        base = env[a]
        env[res] = base ** env[b]
        if isinstance(base, np.ndarray) and base.size > 1:
            interp._ctx_counts["vector_float"] += 1.0
        else:
            interp._ctx_counts["float_math"] += 1.0
        stats.total_ops += 1
    return run


def _mk_fma(interp, op):
    a, b, c = op.operands
    res = op.results[0]
    stats = interp.stats

    def run(env):
        va = env[a]
        env[res] = va * env[b] + env[c]
        if isinstance(va, np.ndarray) and va.size > 1:
            interp._ctx_counts["vector_float"] += 1.0
        else:
            interp._ctx_counts["float_fma"] += 1.0
        stats.total_ops += 1
    return run


def _mk_atan2(interp, op):
    a, b = op.operands[0], op.operands[1]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        va = env[a]
        env[res] = np.arctan2(va, env[b])
        if isinstance(va, np.ndarray) and va.size > 1:
            interp._ctx_counts["vector_float"] += 1.0
        else:
            interp._ctx_counts["float_math"] += 1.0
        stats.total_ops += 1
    return run


def _mk_cmpi(interp, op):
    predicate = op.get_attr("predicate").value
    a, b = op.operands[0], op.operands[1]
    res = op.results[0]
    stats = interp.stats
    signed_fn = CMPI_SIGNED.get(predicate)
    if signed_fn is not None:
        def run(env):
            env[res] = signed_fn(env[a], env[b])
            interp._ctx_counts["cmp"] += 1.0
            stats.total_ops += 1
        return run
    unsigned_fn = CMPI_UNSIGNED[predicate]
    width = int_width(a.type)

    def run(env):
        env[res] = unsigned_fn(as_unsigned(env[a], width),
                               as_unsigned(env[b], width))
        interp._ctx_counts["cmp"] += 1.0
        stats.total_ops += 1
    return run


def _mk_cmpf(interp, op):
    fn = CMPF[op.get_attr("predicate").value]
    a, b = op.operands[0], op.operands[1]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        env[res] = fn(env[a], env[b])
        interp._ctx_counts["cmp"] += 1.0
        stats.total_ops += 1
    return run


def _mk_select(interp, op):
    cond, a, b = op.operands
    res = op.results[0]
    stats = interp.stats

    def run(env):
        env[res] = env[a] if env[cond] else env[b]
        interp._ctx_counts["int_arith"] += 1.0
        stats.total_ops += 1
    return run


def _mk_negf(interp, op):
    a = op.operands[0]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        value = env[a]
        env[res] = -value
        if isinstance(value, np.ndarray) and value.size > 1:
            interp._ctx_counts["vector_float"] += 1.0
        else:
            interp._ctx_counts["float_arith"] += 1.0
        stats.total_ops += 1
    return run


def _mk_cast(interp, op):
    a = op.operands[0]
    res = op.results[0]
    target = res.type
    stats = interp.stats
    if isinstance(target, ir_types.FloatType):
        convert = float
    elif isinstance(target, ir_types.IntegerType) and target.width == 1:
        convert = bool
    elif isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
        convert = int
    else:
        convert = None

    def run(env):
        value = env[a]
        env[res] = convert(value) if convert is not None else value
        interp._ctx_counts["cast"] += 1.0
        stats.total_ops += 1
    return run


def _mk_fir_convert(interp, op):
    a = op.operands[0]
    res = op.results[0]
    target = res.type
    stats = interp.stats
    if isinstance(target, ir_types.FloatType):
        convert = float
    elif isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
        convert = int
    else:
        convert = None

    def run(env):
        value = env[a]
        if isinstance(value, (Cell, FortranArray, ElementPtr, np.ndarray)):
            env[res] = value
        elif convert is not None:
            env[res] = convert(value)
        else:
            env[res] = value
        interp._ctx_counts["cast"] += 1.0
        stats.total_ops += 1
    return run


def _mk_fir_load(interp, op):
    src = op.operands[0]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        source = env[src]
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
        t = type(source)
        if t is Cell:
            env[res] = source.value
        elif t is ElementPtr:
            env[res] = source.load()
        else:
            env[res] = source
    return run


def _mk_fir_store(interp, op):
    val, dst = op.operands[0], op.operands[1]
    stats = interp.stats

    def run(env):
        dest = env[dst]
        interp._ctx_counts["store"] += 1.0
        stats.total_ops += 1
        t = type(dest)
        if t is Cell:
            dest.value = env[val]
        elif t is ElementPtr:
            dest.store(env[val])
        else:
            raise InterpreterError(
                "fir.store destination is not a storage location")
    return run


def _mk_memref_load(interp, op):
    mem = op.operands[0]
    index_vals = op.operands[1:]
    res = op.results[0]
    stats = interp.stats
    if len(index_vals) == 1:
        i0 = index_vals[0]

        def run(env):
            memref_value = env[mem]
            interp._ctx_counts["load"] += 1.0
            stats.total_ops += 1
            if type(memref_value) is Cell:
                env[res] = memref_value.value
            else:
                env[res] = memref_value[int(env[i0])]
        return run
    if len(index_vals) == 2:
        i0, i1 = index_vals

        def run(env):
            memref_value = env[mem]
            interp._ctx_counts["load"] += 1.0
            stats.total_ops += 1
            if type(memref_value) is Cell:
                env[res] = memref_value.value
            else:
                env[res] = memref_value[int(env[i0]), int(env[i1])]
        return run

    def run(env):
        memref_value = env[mem]
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
        if type(memref_value) is Cell:
            env[res] = memref_value.value
        elif index_vals:
            env[res] = memref_value[tuple(int(env[v]) for v in index_vals)]
        else:
            env[res] = memref_value[()]
    return run


def _mk_memref_store(interp, op):
    val, mem = op.operands[0], op.operands[1]
    index_vals = op.operands[2:]
    stats = interp.stats
    if len(index_vals) == 1:
        i0 = index_vals[0]

        def run(env):
            memref_value = env[mem]
            interp._ctx_counts["store"] += 1.0
            stats.total_ops += 1
            if type(memref_value) is Cell:
                memref_value.value = env[val]
            else:
                memref_value[int(env[i0])] = env[val]
        return run
    if len(index_vals) == 2:
        i0, i1 = index_vals

        def run(env):
            memref_value = env[mem]
            interp._ctx_counts["store"] += 1.0
            stats.total_ops += 1
            if type(memref_value) is Cell:
                memref_value.value = env[val]
            else:
                memref_value[int(env[i0]), int(env[i1])] = env[val]
        return run

    def run(env):
        memref_value = env[mem]
        interp._ctx_counts["store"] += 1.0
        stats.total_ops += 1
        if type(memref_value) is Cell:
            memref_value.value = env[val]
        else:
            memref_value[tuple(int(env[v]) for v in index_vals)
                         if index_vals else ()] = env[val]
    return run


def _mk_llvm_load(interp, op):
    src = op.operands[0]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        source = env[src]
        env[res] = source.value if type(source) is Cell else source
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
    return run


def _mk_llvm_store(interp, op):
    val, dst = op.operands[0], op.operands[1]
    stats = interp.stats

    def run(env):
        dest = env[dst]
        if type(dest) is Cell:
            dest.value = env[val]
        interp._ctx_counts["store"] += 1.0
        stats.total_ops += 1
    return run


@lru_cache(maxsize=4096)
def _affine_factory(source: str) -> Callable:
    """Compile one generated map factory; keyed by source text, since the
    same few map shapes recur across ops, blocks and modules."""
    namespace = {"_int": int}
    exec(compile(source, "<affine map>", "exec"), namespace)
    return namespace["factory"]


def _affine_indexer(amap, operands) -> Callable[[Dict], Tuple[int, ...]]:
    """``env -> index tuple`` for ``amap`` applied to ``operands``.

    Generated once per op at block-compile time: each operand ``Value`` is
    bound in a closure, read and ``int()``-ed once, and the map's results
    are straight arithmetic (:meth:`AffineExpr.python_source`) instead of a
    tree walk.  Every operand is a dim, with no symbols, like the
    ``amap.evaluate(operand_values)`` calls of the reference engine.
    """
    dims = [f"d{i}" for i in range(len(operands))]
    reads = "".join(f"        {d} = _int(env[v{i}])\n"
                    for i, d in enumerate(dims))
    results = "".join(r.python_source(dims) + ", " for r in amap.results)
    source = (f"def factory({', '.join(f'v{i}' for i in range(len(dims)))}):\n"
              f"    def index(env):\n{reads}"
              f"        return ({results})\n"
              f"    return index\n")
    return _affine_factory(source)(*operands)


def _mk_affine_load(interp, op):
    mem = op.operands[0]
    index = _affine_indexer(op.get_attr("map"), op.operands[1:])
    res = op.results[0]
    stats = interp.stats

    def run(env):
        memref_value = env[mem]
        indices = index(env)
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
        if type(memref_value) is Cell:
            env[res] = memref_value.value
        else:
            env[res] = memref_value[indices]
    return run


def _mk_affine_store(interp, op):
    val, mem = op.operands[0], op.operands[1]
    index = _affine_indexer(op.get_attr("map"), op.operands[2:])
    stats = interp.stats

    def run(env):
        memref_value = env[mem]
        indices = index(env)
        interp._ctx_counts["store"] += 1.0
        stats.total_ops += 1
        if type(memref_value) is Cell:
            memref_value.value = env[val]
        else:
            memref_value[indices] = env[val]
    return run


def _mk_affine_apply(interp, op):
    index = _affine_indexer(op.get_attr("map"), op.operands)
    res = op.results[0]
    stats = interp.stats

    def run(env):
        env[res] = index(env)[0]
        interp._ctx_counts["index_arith"] += 1.0
        stats.total_ops += 1
    return run


def _mk_fir_box_addr(interp, op):
    box = op.operands[0]
    res = op.results[0]
    stats = interp.stats

    def run(env):
        env[res] = env[box]
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
    return run


def _mk_fir_box_dims(interp, op):
    box_v, dim_v = op.operands[0], op.operands[1]
    lower_res, extent_res, stride_res = op.results
    stats = interp.stats

    def run(env):
        box = env[box_v]
        dim = int(env[dim_v])
        shape = box.shape if isinstance(box, (FortranArray, np.ndarray)) \
            else (1,)
        env[lower_res] = 1
        env[extent_res] = int(shape[dim]) if dim < len(shape) else 1
        env[stride_res] = 1
        interp._ctx_counts["load"] += 1.0
        stats.total_ops += 1
    return run


def _mk_fir_coordinate_of(interp, op):
    # derived-type member access (``field``) keeps the generic handler
    if op.get_attr("field") is not None:
        return _generic_thunk(interp, op)
    base_v = op.operands[0]
    flat_v = op.operands[1] if len(op.operands) > 1 else None
    res = op.results[0]
    stats = interp.stats

    def run(env):
        base = env[base_v]
        interp._ctx_counts["index_arith"] += 1.0
        stats.total_ops += 1
        flat = int(env[flat_v]) if flat_v is not None else 0
        if isinstance(base, (FortranArray, np.ndarray)):
            env[res] = ElementPtr(base, flat=flat)
        elif isinstance(base, Cell):
            env[res] = base
        else:
            raise InterpreterError("fir.coordinate_of on a non-array value")
    return run


def _mk_fir_array_coor(interp, op):
    mem = op.memref
    index_vals = tuple(op.indices)
    res = op.results[0]
    stats = interp.stats

    def run(env):
        interp._ctx_counts["index_arith"] += 1.0
        stats.total_ops += 1
        env[res] = ElementPtr(env[mem],
                              indices=tuple(int(env[v]) for v in index_vals))
    return run


def _mk_hlfir_designate(interp, op):
    # only the plain element-designator form is thunked; components and
    # sections (triplets) keep the generic handler
    if op.component is not None or op.triplets:
        return _generic_thunk(interp, op)
    mem = op.memref
    index_vals = tuple(op.indices)
    res = op.results[0]
    stats = interp.stats

    def run(env):
        base = env[mem]
        interp._ctx_counts["index_arith"] += 1.0
        stats.total_ops += 1
        if type(base) is Cell:
            base = base.value
        env[res] = ElementPtr(base,
                              indices=tuple(int(env[v]) for v in index_vals))
    return run


_THUNK_MAKERS: Dict[str, Callable] = {"arith.constant": _mk_constant,
                                      "arith.cmpi": _mk_cmpi,
                                      "arith.cmpf": _mk_cmpf,
                                      "arith.select": _mk_select,
                                      "arith.negf": _mk_negf,
                                      "fir.convert": _mk_fir_convert,
                                      "fir.load": _mk_fir_load,
                                      "fir.store": _mk_fir_store,
                                      "memref.load": _mk_memref_load,
                                      "memref.store": _mk_memref_store,
                                      "llvm.load": _mk_llvm_load,
                                      "llvm.store": _mk_llvm_store,
                                      "affine.load": _mk_affine_load,
                                      "affine.store": _mk_affine_store,
                                      "affine.apply": _mk_affine_apply,
                                      "fir.box_addr": _mk_fir_box_addr,
                                      "fir.box_dims": _mk_fir_box_dims,
                                      "fir.coordinate_of": _mk_fir_coordinate_of,
                                      "fir.array_coor": _mk_fir_array_coor,
                                      "hlfir.designate": _mk_hlfir_designate,
                                      "math.atan2": _mk_atan2}
for _name in _FLOAT_BINOPS:
    _THUNK_MAKERS[_name] = _mk_float_binop
for _name in _INT_BINOPS:
    _THUNK_MAKERS[_name] = _mk_int_binop
for _name in _MATH_UNARY:
    _THUNK_MAKERS[_name] = _mk_math_unary
for _name in ("math.powf", "math.fpowi", "math.ipowi"):
    _THUNK_MAKERS[_name] = _mk_pow
for _name in ("math.fma", "vector.fma", "llvm.intr.fmuladd"):
    _THUNK_MAKERS[_name] = _mk_fma
for _name in ("arith.index_cast", "arith.sitofp", "arith.fptosi", "arith.extf",
              "arith.truncf", "arith.extsi", "arith.extui", "arith.trunci",
              "arith.bitcast"):
    _THUNK_MAKERS[_name] = _mk_cast
del _name

#: sentinel returned by _compile_op when the op fuses with its follower
_FUSED_WITH_NEXT = object()
#: makers whose ops are address computations eligible for load/store fusion
_FUSABLE_MAKERS = {_mk_fir_array_coor, _mk_hlfir_designate}


def _fusable(op: Operation, follower: Optional[Operation]) -> bool:
    """True when ``op`` is an element-address computation whose single use is
    the immediately following load/store, so the pair can run as one thunk."""
    if follower is None or not op.results:
        return False
    if op.name == "hlfir.designate" and (op.component is not None or op.triplets):
        return False
    address = op.results[0]
    if len(address.uses) != 1 or address.uses[0].operation is not follower:
        return False
    if follower.name == "fir.load":
        return follower.operands[0] is address
    if follower.name == "fir.store":
        return follower.operands[1] is address and follower.operands[0] is not address
    if follower.name == "hlfir.assign":
        return follower.operands[1] is address and follower.operands[0] is not address
    return False


def run_module(module: Operation, *, entry: Optional[str] = None,
               args: Sequence = (), max_ops: int = 80_000_000,
               engine: Optional[str] = None) -> Tuple[List, ExecutionStats]:
    """Execute a module (its main program by default); returns (results, stats)."""
    interp = Interpreter(module, max_ops=max_ops, engine=engine)
    if entry is None:
        results = interp.run_main()
    else:
        results = interp.call(entry, list(args))
    return results, interp.stats


__all__ = ["ENGINE_NAMES", "Interpreter", "ExecutionStats", "InterpreterError",
           "ExecutionLimitExceeded", "run_module"]
