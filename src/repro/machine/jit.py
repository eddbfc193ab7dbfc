"""Trace-compiling JIT interpreter engine.

The third execution engine (``Interpreter(..., engine="jit")``).  Instead of
executing one closure per operation (the cached-dispatch ``compiled``
engine), every block is translated on first entry into *generated Python
source*: straight-line op sequences are fused into a single function body
with operands bound to locals, ``scf.for`` / ``affine.for`` / ``fir.do_loop``
bodies (and ``scf.if`` arms) are inlined as native ``while`` / ``if``
constructs, statistics counters accumulate in plain integer locals and are
flushed into the per-context :class:`collections.Counter` once per block
exit, and array accesses are emitted as direct indexing expressions.  The
source is ``compile()``/``exec``-ed once and the resulting code object is
re-run on every loop iteration.

Numeric semantics stay centralized: the generated code calls into
:mod:`repro.machine.semantics` for ``cmpi`` / ``cmpf`` and the integer
division family, so all engines share one source of numeric truth;
everything the generator cannot translate (parallel regions, calls, runtime
intrinsics, unstructured control flow) falls back to the exact thunks the
cached-dispatch engine would run, inside the generated function.  The
result is observationally bit-identical to the other engines — printed
output and :class:`~repro.machine.interpreter.ExecutionStats` — which the
conformance oracle and ``tests/machine`` assert on every workload.

Affine maps are bound at translation time: ``affine.load`` /
``affine.store`` / ``affine.apply`` maps and ``affine.for`` bounds are
inlined as plain integer arithmetic
(:meth:`~repro.ir.attributes.AffineExpr.python_source`), so generated code
never walks a map's expression tree.  That tree walk,
``AffineMapAttr.evaluate``, stays the reference oracle.

Why deferred counter flushing is exact: every statistics bump is an
integer-valued float (``+= 1.0`` or an integer element count), and sums of
integers in float64 are associative below 2**53, so adding ``3.0`` once is
bit-identical to adding ``1.0`` three times — only *touched* categories are
flushed, so the Counter key sets also match.
"""

from __future__ import annotations

import base64
import itertools
import marshal
from collections import OrderedDict
from importlib.util import MAGIC_NUMBER
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..ir import types as ir_types
from ..ir.core import Block, Operation, Value
from ..ir.structural_hash import fingerprint_block
from . import semantics
from .interpreter import (_BR_OPS, _COND_BR_OPS, _FLOAT_BINOPS, _INT_BINOPS,
                          _MATH_UNARY, _RETURN_OPS, _YIELD_OPS, _fusable,
                          Interpreter, InterpreterError)
from .semantics import (CMPF, CMPI_SIGNED, CMPI_UNSIGNED, as_unsigned,
                        int_ceildiv, int_div, int_floordiv, int_rem, int_width)
from .values import (Cell, ElementPtr, FortranArray, load_element,
                     store_element)

#: loop ops whose single-block bodies are inlined as native ``while`` loops
_INLINE_LOOPS = frozenset({"scf.for", "affine.for", "fir.do_loop"})
#: conditionals inlined as native ``if`` statements
_INLINE_IFS = frozenset({"scf.if", "fir.if"})

#: binary ops emitted as raw operator expressions (semantics identical to the
#: dispatch-table lambdas of the other two engines)
_OPERATOR_FLOAT = {"arith.addf": "+", "arith.subf": "-", "arith.mulf": "*",
                   "arith.divf": "/"}
_OPERATOR_INT = {"arith.addi": "+", "arith.subi": "-", "arith.muli": "*",
                 "arith.shli": "<<", "arith.shrsi": ">>"}
#: integer ops routed through repro.machine.semantics (shared numeric truth)
_SEMANTIC_INT = {"arith.divsi": int_div, "arith.floordivsi": int_floordiv,
                 "arith.ceildivsi": int_ceildiv, "arith.remsi": int_rem}

_ALL_TERMINATORS = _RETURN_OPS | _BR_OPS | _COND_BR_OPS | _YIELD_OPS

_CAST_OPS = frozenset({"arith.index_cast", "arith.sitofp", "arith.fptosi",
                       "arith.extf", "arith.truncf", "arith.extsi",
                       "arith.extui", "arith.trunci", "arith.bitcast"})
_POW_OPS = frozenset({"math.powf", "math.fpowi", "math.ipowi"})
_FMA_OPS = frozenset({"math.fma", "vector.fma", "llvm.intr.fmuladd"})

_SIMPLE_INLINE = (frozenset({
    "arith.constant", "arith.cmpi", "arith.cmpf", "arith.select",
    "arith.negf", "fir.convert", "fir.load", "fir.store", "memref.load",
    "memref.store", "llvm.load", "llvm.store", "affine.load", "affine.store",
    "affine.apply", "fir.array_coor", "hlfir.designate", "math.atan2",
    "fir.box_addr", "fir.box_dims", "fir.coordinate_of", "fir.embox",
    "fir.shape", "fir.shape_shift", "fir.undefined", "fir.absent",
    "fir.zero_bits", "fir.string_lit"})
    | frozenset(_FLOAT_BINOPS) | frozenset(_INT_BINOPS)
    | frozenset(_MATH_UNARY) | _POW_OPS | _FMA_OPS | _CAST_OPS)


def _coor_fusable(op: Operation, follower: Optional[Operation]) -> bool:
    """``fir.coordinate_of`` whose single use is the adjacent load/store:
    the pair runs as one direct flat access (stats-identical: the fused
    emission bumps the same index_arith + load/store pair)."""
    if follower is None or not op.results \
            or op.get_attr("field") is not None:
        return False
    address = op.results[0]
    if len(address.uses) != 1 or address.uses[0].operation is not follower:
        return False
    if follower.name == "fir.load":
        return follower.operands[0] is address
    if follower.name == "fir.store":
        return follower.operands[1] is address \
            and follower.operands[0] is not address
    return False


def _tuple(exprs: Sequence[str]) -> str:
    return "(" + "".join(e + ", " for e in exprs) + ")"


def _first(exprs: Sequence[str]) -> str:
    """``amap.evaluate(...)[0]`` as inline source: every result is computed
    (and may raise) before the first is taken."""
    return exprs[0] if len(exprs) == 1 else f"{_tuple(exprs)}[0]"


# ---------------------------------------------------------------------------
# Planning: decide, per op, inline translation vs fallback thunk
# ---------------------------------------------------------------------------


class _Plan:
    """Structured translation plan for one block (plus inlined regions)."""

    __slots__ = ("steps", "inline_ops", "defined", "fallback_defined")

    def __init__(self):
        #: nested step tree; see _plan_ops for the step tuple shapes
        self.steps: List[Tuple] = []
        #: every op handled by generated code (incl. terminators/loops/ifs)
        self.inline_ops: Set[Operation] = set()
        #: values the generated code itself defines (op results, body args)
        self.defined: List[Value] = []
        #: values fallback thunks define (through env, possibly mid-loop)
        self.fallback_defined: List[Value] = []


def _region_block(op: Operation, index: int) -> Optional[Block]:
    if index >= len(op.regions):
        return None
    blocks = op.regions[index].blocks
    return blocks[0] if len(blocks) == 1 else None


def _structured_body(block: Optional[Block]) -> bool:
    """True when ``block`` is straight-line code ending (at most) in a yield:
    the shape the loop/if inliners can translate.  Anything with branches or
    returns falls back to the generic handlers."""
    if block is None:
        return False
    for position, op in enumerate(block.ops):
        if op.name in _RETURN_OPS or op.name in _BR_OPS \
                or op.name in _COND_BR_OPS:
            return False
        if op.name in _YIELD_OPS and position != len(block.ops) - 1:
            return False
    return True


def _can_inline_simple(op: Operation) -> bool:
    name = op.name
    if name not in _SIMPLE_INLINE:
        return False
    if name == "hlfir.designate":
        return op.component is None and not op.triplets
    if name == "fir.coordinate_of":
        return op.get_attr("field") is None
    return True


def _loop_inlineable(op: Operation) -> bool:
    if len(op.regions) != 1 or not _structured_body(_region_block(op, 0)):
        return False
    if op.name in ("scf.for", "fir.do_loop") and len(op.operands) < 3:
        return False
    return True


def _if_inlineable(op: Operation) -> bool:
    then_block = _region_block(op, 0)
    if not _structured_body(then_block):
        return False
    has_else = len(op.regions) > 1 and bool(op.regions[1].blocks)
    else_block = _region_block(op, 1) if has_else else None
    if has_else and not _structured_body(else_block):
        return False
    if op.results:
        # both arms must yield exactly the result values
        if else_block is None:
            return False
        for block in (then_block, else_block):
            term = block.ops[-1] if block.ops else None
            if term is None or term.name not in _YIELD_OPS \
                    or len(term.operands) != len(op.results):
                return False
    return True


def _plan_ops(block: Block, plan: _Plan, *, nested: bool) -> List[Tuple]:
    steps: List[Tuple] = []
    ops = block.ops
    position = 0
    while position < len(ops):
        op = ops[position]
        name = op.name
        if name in _RETURN_OPS:
            plan.inline_ops.add(op)
            steps.append(("return", op))
            return steps
        if name in _BR_OPS:
            plan.inline_ops.add(op)
            steps.append(("br", op))
            return steps
        if name in _COND_BR_OPS:
            plan.inline_ops.add(op)
            steps.append(("condbr", op))
            return steps
        if name in _YIELD_OPS:
            plan.inline_ops.add(op)
            steps.append(("yield", op))
            return steps
        follower = ops[position + 1] if position + 1 < len(ops) else None
        if name in ("fir.array_coor", "hlfir.designate") \
                and _can_inline_simple(op) and _fusable(op, follower):
            plan.inline_ops.add(op)
            plan.inline_ops.add(follower)
            plan.defined.extend(follower.results)
            steps.append(("fused", op, follower))
            position += 2
            continue
        if name == "fir.coordinate_of" and _coor_fusable(op, follower):
            plan.inline_ops.add(op)
            plan.inline_ops.add(follower)
            plan.defined.extend(follower.results)
            steps.append(("fusedcoor", op, follower))
            position += 2
            continue
        if name in _INLINE_LOOPS and _loop_inlineable(op):
            body = op.regions[0].blocks[0]
            plan.inline_ops.add(op)
            plan.defined.extend(op.results)
            plan.defined.extend(body.args)
            body_steps = _plan_ops(body, plan, nested=True)
            steps.append(("loop", op, body_steps))
            position += 1
            continue
        if name in _INLINE_IFS and _if_inlineable(op):
            then_block = _region_block(op, 0)
            has_else = len(op.regions) > 1 and bool(op.regions[1].blocks)
            plan.inline_ops.add(op)
            plan.defined.extend(op.results)
            then_steps = _plan_ops(then_block, plan, nested=True)
            else_steps = _plan_ops(_region_block(op, 1), plan, nested=True) \
                if has_else else None
            steps.append(("if", op, then_steps, else_steps))
            position += 1
            continue
        if _can_inline_simple(op):
            plan.inline_ops.add(op)
            plan.defined.extend(op.results)
            steps.append(("inline", op))
            position += 1
            continue
        plan.fallback_defined.extend(op.results)
        steps.append(("fallback", op))
        position += 1
    return steps


def plan_block(block: Block) -> _Plan:
    plan = _Plan()
    plan.steps = _plan_ops(block, plan, nested=False)
    return plan


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------


class _Emitter:
    """Generates the Python source for one planned block.

    The emitted source and every namespace binding except ``_interp`` /
    ``_stats`` / the fallback thunks are interpreter-independent, so one
    emission can be instantiated for any number of interpreters (see
    :func:`compile_block`'s process-level cache).  Interpreter-specific
    state is rebound per instantiation; fallback ops are recorded as
    ``(name, op)`` pairs and compiled into thunks at instantiation time."""

    def __init__(self, interp: Interpreter, plan: _Plan):
        self.interp = interp
        self.plan = plan
        self.fallback_binds: List[Tuple[str, Operation]] = []
        # values that must live in env: anything the generated code defines
        # that a non-inline op (fallback thunk, nested region, another block)
        # also reads
        inline_ops = plan.inline_ops
        self.env_resident: Set[Value] = {
            value for value in plan.defined
            if any(use.operation not in inline_ops for use in value.uses)}
        self.defined: Set[Value] = set(plan.defined)
        self.fallback_defined: Set[Value] = set(plan.fallback_defined)
        self.inline_ops: Set[Operation] = inline_ops
        self.lines: List[Tuple[int, str]] = []
        self.ind = 1
        self._seq = itertools.count()
        self.ns: Dict[str, object] = {
            "_interp": interp, "_stats": interp.stats,
            "_np": np, "_nda": np.ndarray,
            "_Cell": Cell, "_EPtr": ElementPtr, "_FArr": FortranArray,
            "_ldel": load_element, "_stel": store_element,
            "_int": int, "_float": float, "_bool": bool,
            "_IErr": InterpreterError,
            "_boxt": (Cell, FortranArray, ElementPtr, np.ndarray),
        }
        self._bound: Dict[int, str] = {}     # id(obj) -> ns name
        self.names: Dict[Value, str] = {}    # value -> local variable
        self.keys: Dict[Value, str] = {}     # value -> bound env-key name
        self.counters: Dict[str, str] = {}   # category -> local variable
        self.pending: Dict[str, int] = {}    # category -> deferred increments
        self.pending_total = 0

    # -- low-level helpers ---------------------------------------------------
    def w(self, text: str) -> None:
        self.lines.append((self.ind, text))

    def tmp(self) -> str:
        return f"x{next(self._seq)}"

    def bind(self, obj, prefix: str = "g") -> str:
        name = self._bound.get(id(obj))
        if name is None:
            name = f"_{prefix}{next(self._seq)}"
            self._bound[id(obj)] = name
            self.ns[name] = obj
        return name

    def key(self, value: Value) -> str:
        name = self.keys.get(value)
        if name is None:
            name = self.keys[value] = self.bind(value, "k")
        return name

    # -- value access --------------------------------------------------------
    def read(self, value: Value) -> str:
        name = self.names.get(value)
        if name is not None:
            return name
        return f"env[{self.key(value)}]"

    def read_get(self, value: Value) -> str:
        """Terminator payload read: ``env.get`` tolerance like the thunks."""
        name = self.names.get(value)
        if name is not None:
            return name
        return f"env.get({self.key(value)})"

    def operand_var(self, value: Value) -> str:
        """A *named* local holding the operand (for multi-use emissions)."""
        name = self.names.get(value)
        if name is not None:
            return name
        var = self.tmp()
        self.w(f"{var} = env[{self.key(value)}]")
        return var

    def result_var(self, value: Value) -> str:
        """The variable an op result is computed into (local preferred)."""
        if value in self.env_resident or value not in self.defined:
            return self.tmp()
        name = self.names.get(value)
        if name is None:
            name = self.names[value] = f"t{next(self._seq)}"
        return name

    def store_result(self, value: Value, var: str) -> None:
        if value in self.env_resident or value not in self.defined:
            self.w(f"env[{self.key(value)}] = {var}")

    def compute(self, value: Value, expr: str) -> str:
        var = self.result_var(value)
        self.w(f"{var} = {expr}")
        self.store_result(value, var)
        return var

    # -- statistics ----------------------------------------------------------
    def counter(self, category: str) -> str:
        var = self.counters.get(category)
        if var is None:
            var = self.counters[category] = f"_c_{category}"
        return var

    def bump(self, category: str, amount: int = 1) -> None:
        self.counter(category)
        self.pending[category] = self.pending.get(category, 0) + amount
        self.pending_total += amount

    def bump_total(self, amount: int = 1) -> None:
        self.pending_total += amount

    def dyncat(self, var: str, vector_category: str, scalar_category: str) -> None:
        """Runtime ndarray-vs-scalar category choice (matches the thunks).

        ``type(x) is ndarray`` is exact here: the interpreter's value model
        only ever produces plain ndarrays (views/ufunc results), never
        subclasses, so this matches the thunks' ``isinstance`` bit for bit.
        """
        vec = self.counter(vector_category)
        scalar = self.counter(scalar_category)
        self.w(f"if type({var}) is _nda and {var}.size > 1:")
        self.w(f"    {vec} += 1")
        self.w("else:")
        self.w(f"    {scalar} += 1")

    def flush_pending(self) -> None:
        for category, amount in self.pending.items():
            self.w(f"{self.counter(category)} += {amount}")
        if self.pending_total:
            self.w(f"_t += {self.pending_total}")
        self.pending.clear()
        self.pending_total = 0

    def flush_all(self) -> None:
        """Move every live counter into the interpreter's stats objects.

        Counters cannot be gated on ``_t``: the in-loop stride check resets
        ``_t`` (total) without flushing the per-category locals, so a unit
        can reach its exit with ``_t == 0`` but nonzero category counters.
        """
        self.flush_pending()
        if self.counters:
            self.w("_cts = _interp._ctx_counts")
        for category in self.counters:
            var = self.counters[category]
            self.w(f"if {var}:")
            self.w(f"    _cts[{category!r}] += {var} * 1.0")
            self.w(f"    {var} = 0")
        self.w("if _t:")
        self.w("    _stats.total_ops += _t")
        self.w("    _t = 0")

    def emit_stride_check(self) -> None:
        """Per-iteration execution-limit metering inside inlined loops.

        Only ``total_ops`` needs to be current for the limit check; the
        per-category counters keep accumulating in locals until block exit
        (their Counter sums are order-independent integer adds).
        """
        self.w(f"if _t > {self.interp._check_stride}:")
        self.w("    _stats.total_ops += _t")
        self.w("    _t = 0")
        self.w("    _interp._check_limit()")

    # ------------------------------------------------------------------ steps
    def emit_steps(self, steps: Sequence[Tuple]) -> None:
        for step in steps:
            kind = step[0]
            if kind == "inline":
                self.emit_inline(step[1])
            elif kind == "fused":
                self.emit_fused(step[1], step[2])
            elif kind == "fusedcoor":
                self.emit_fused_coordinate(step[1], step[2])
            elif kind == "fallback":
                self.emit_fallback(step[1])
            elif kind == "loop":
                self.emit_loop(step[1], step[2])
            elif kind == "if":
                self.emit_if(step[1], step[2], step[3])
            elif kind == "return":
                self.emit_return(step[1])
            elif kind == "br":
                self.emit_br(step[1])
            elif kind == "condbr":
                self.emit_condbr(step[1])
            elif kind == "yield":
                self.emit_root_yield(step[1])
            else:  # pragma: no cover - planner emits only the kinds above
                raise InterpreterError(f"unknown jit step {kind}")

    # -- terminators ---------------------------------------------------------
    def emit_return(self, op: Operation) -> None:
        self.flush_all()
        payload = ", ".join(self.read_get(v) for v in op.operands)
        self.w(f"return 'return', [{payload}]")

    def emit_br(self, op: Operation) -> None:
        self.bump("branch")
        self.flush_all()
        succ = self.bind(op.successors[0], "b")
        payload = ", ".join(self.read_get(v) for v in op.operands)
        self.w(f"return 'branch', ({succ}, [{payload}])")

    def emit_condbr(self, op: Operation) -> None:
        self.bump("branch")
        self.flush_all()
        n_attr = op.get_attr("num_true_operands")
        n = n_attr.value if n_attr is not None else 0
        true_vals = op.operands[1:1 + n]
        false_vals = op.operands[1 + n:]
        true_succ = self.bind(op.successors[0], "b")
        false_succ = self.bind(op.successors[1], "b")
        self.w(f"if {self.read_get(op.operands[0])}:")
        payload = ", ".join(self.read_get(v) for v in true_vals)
        self.w(f"    return 'branch', ({true_succ}, [{payload}])")
        payload = ", ".join(self.read_get(v) for v in false_vals)
        self.w(f"return 'branch', ({false_succ}, [{payload}])")

    def emit_root_yield(self, op: Operation) -> None:
        self.flush_all()
        payload = ", ".join(self.read_get(v) for v in op.operands)
        self.w(f"return 'yield', ({self.bind(op, 'o')}, [{payload}])")

    def emit_fallthrough(self) -> None:
        self.flush_all()
        self.w("return 'yield', (None, [])")

    # -- fallback ------------------------------------------------------------
    def emit_fallback(self, op: Operation) -> None:
        name = f"_f{next(self._seq)}"
        self.fallback_binds.append((name, op))
        self.w(f"{name}(env)")

    # -- straight-line ops ---------------------------------------------------
    def emit_inline(self, op: Operation) -> None:
        name = op.name
        res = op.results[0] if op.results else None
        if name == "arith.constant":
            self.compute(res, self.bind(op.get_attr("value").value, "c"))
            return
        if name in _FLOAT_BINOPS:
            a, b = self.read(op.operands[0]), self.read(op.operands[1])
            symbol = _OPERATOR_FLOAT.get(name)
            if symbol is not None:
                expr = f"{a} {symbol} {b}"
            else:
                expr = f"{self.bind(_FLOAT_BINOPS[name])}({a}, {b})"
            var = self.compute(res, expr)
            self.bump_total()
            self.dyncat(var, "vector_float", "float_arith")
            return
        if name in _INT_BINOPS:
            a, b = self.read(op.operands[0]), self.read(op.operands[1])
            symbol = _OPERATOR_INT.get(name)
            if symbol is not None:
                expr = f"{a} {symbol} {b}"
            elif name in _SEMANTIC_INT:
                expr = f"{self.bind(_SEMANTIC_INT[name])}({a}, {b})"
            else:
                expr = f"{self.bind(_INT_BINOPS[name])}({a}, {b})"
            var = self.compute(res, expr)
            scalar_cat = "index_arith" if isinstance(
                op.operands[0].type, ir_types.IndexType) else "int_arith"
            self.bump_total()
            self.dyncat(var, "vector_int", scalar_cat)
            return
        if name in _MATH_UNARY:
            a = self.operand_var(op.operands[0])
            self.compute(res, f"{self.bind(_MATH_UNARY[name])}({a})")
            self.bump_total()
            self.dyncat(a, "vector_float", "float_math")
            return
        if name in _POW_OPS:
            a = self.operand_var(op.operands[0])
            self.compute(res, f"{a} ** {self.read(op.operands[1])}")
            self.bump_total()
            self.dyncat(a, "vector_float", "float_math")
            return
        if name in _FMA_OPS:
            a = self.operand_var(op.operands[0])
            self.compute(res, f"{a} * {self.read(op.operands[1])} + "
                              f"{self.read(op.operands[2])}")
            self.bump_total()
            self.dyncat(a, "vector_float", "float_fma")
            return
        if name == "math.atan2":
            a = self.operand_var(op.operands[0])
            arctan2 = self.bind(np.arctan2)
            self.compute(res, f"{arctan2}({a}, {self.read(op.operands[1])})")
            self.bump_total()
            self.dyncat(a, "vector_float", "float_math")
            return
        if name == "arith.cmpi":
            self._emit_cmpi(op)
            return
        if name == "arith.cmpf":
            fn = self.bind(CMPF[op.get_attr("predicate").value])
            self.compute(res, f"{fn}({self.read(op.operands[0])}, "
                              f"{self.read(op.operands[1])})")
            self.bump("cmp")
            return
        if name == "arith.select":
            cond, a, b = (self.read(v) for v in op.operands)
            self.compute(res, f"{a} if {cond} else {b}")
            self.bump("int_arith")
            return
        if name == "arith.negf":
            a = self.operand_var(op.operands[0])
            self.compute(res, f"-{a}")
            self.bump_total()
            self.dyncat(a, "vector_float", "float_arith")
            return
        if name in _CAST_OPS:
            self._emit_cast(op)
            return
        if name == "fir.convert":
            self._emit_fir_convert(op)
            return
        if name == "fir.load":
            self._emit_fir_load(op)
            return
        if name == "fir.store":
            self._emit_fir_store(op)
            return
        if name in ("memref.load", "memref.store"):
            self._emit_memref_access(op)
            return
        if name == "llvm.load":
            src = self.operand_var(op.operands[0])
            self.compute(res, f"{src}.value if type({src}) is _Cell else {src}")
            self.bump("load")
            return
        if name == "llvm.store":
            dest = self.operand_var(op.operands[1])
            self.w(f"if type({dest}) is _Cell:")
            self.w(f"    {dest}.value = {self.read(op.operands[0])}")
            self.bump("store")
            return
        if name in ("affine.load", "affine.store", "affine.apply"):
            self._emit_affine(op)
            return
        if name == "fir.array_coor":
            indices = ", ".join(f"_int({self.read(v)})" for v in op.indices)
            self.compute(res, f"_EPtr({self.read(op.memref)}, "
                              f"indices=({indices}{',' if indices else ''}))")
            self.bump("index_arith")
            return
        if name == "hlfir.designate":
            base = self.operand_var(op.memref)
            unwrapped = self.tmp()
            self.w(f"{unwrapped} = {base}.value "
                   f"if type({base}) is _Cell else {base}")
            indices = ", ".join(f"_int({self.read(v)})" for v in op.indices)
            self.compute(res, f"_EPtr({unwrapped}, "
                              f"indices=({indices}{',' if indices else ''}))")
            self.bump("index_arith")
            return
        if name == "fir.box_addr":
            self.compute(res, self.read(op.operands[0]))
            self.bump("load")
            return
        if name == "fir.box_dims":
            self._emit_fir_box_dims(op)
            return
        if name == "fir.coordinate_of":
            self._emit_fir_coordinate_of(op)
            return
        if name == "fir.embox":
            self.compute(res, self.read(op.operands[0]))
            return
        if name in ("fir.shape", "fir.shape_shift"):
            items = ", ".join(f"_int({self.read(v)})" for v in op.operands)
            self.compute(res, f"({items}{',' if items else ''})")
            return
        if name in ("fir.undefined", "fir.absent", "fir.zero_bits"):
            self.compute(res, "0")
            return
        if name == "fir.string_lit":
            self.compute(res, self.bind(op.get_attr("value").value, "c"))
            return
        raise InterpreterError(
            f"jit planner marked {name} inline without an emitter")

    def _emit_fir_box_dims(self, op: Operation) -> None:
        box = self.operand_var(op.operands[0])
        dim = self.tmp()
        self.w(f"{dim} = _int({self.read(op.operands[1])})")
        shape = self.tmp()
        self.w(f"{shape} = {box}.shape "
               f"if isinstance({box}, (_FArr, _nda)) else (1,)")
        self.compute(op.results[0], "1")
        self.compute(op.results[1],
                     f"_int({shape}[{dim}]) if {dim} < len({shape}) else 1")
        self.compute(op.results[2], "1")
        self.bump("load")

    def _emit_fir_coordinate_of(self, op: Operation) -> None:
        base = self.operand_var(op.operands[0])
        flat = self.tmp()
        if len(op.operands) > 1:
            self.w(f"{flat} = _int({self.read(op.operands[1])})")
        else:
            self.w(f"{flat} = 0")
        var = self.result_var(op.results[0])
        self.w(f"if type({base}) is _FArr or type({base}) is _nda:")
        self.w(f"    {var} = _EPtr({base}, flat={flat})")
        self.w(f"elif type({base}) is _Cell:")
        self.w(f"    {var} = {base}")
        self.w("else:")
        self.w("    raise _IErr('fir.coordinate_of on a non-array value')")
        self.store_result(op.results[0], var)
        self.bump("index_arith")

    def _emit_cmpi(self, op: Operation) -> None:
        predicate = op.get_attr("predicate").value
        a, b = self.read(op.operands[0]), self.read(op.operands[1])
        signed = CMPI_SIGNED.get(predicate)
        if signed is not None:
            expr = f"{self.bind(signed)}({a}, {b})"
        else:
            width = int_width(op.operands[0].type)
            unsigned = self.bind(CMPI_UNSIGNED[predicate])
            reinterpret = self.bind(as_unsigned)
            expr = (f"{unsigned}({reinterpret}({a}, {width}), "
                    f"{reinterpret}({b}, {width}))")
        self.compute(op.results[0], expr)
        self.bump("cmp")

    def _emit_cast(self, op: Operation) -> None:
        target = op.results[0].type
        a = self.read(op.operands[0])
        if isinstance(target, ir_types.FloatType):
            expr = f"_float({a})"
        elif isinstance(target, ir_types.IntegerType) and target.width == 1:
            expr = f"_bool({a})"
        elif isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
            expr = f"_int({a})"
        else:
            expr = a
        self.compute(op.results[0], expr)
        self.bump("cast")

    def _emit_fir_convert(self, op: Operation) -> None:
        target = op.results[0].type
        if isinstance(target, ir_types.FloatType):
            convert, fast = "_float", "float"
        elif isinstance(target, (ir_types.IntegerType, ir_types.IndexType)):
            convert, fast = "_int", "int"
        else:
            convert = fast = None
        a = self.operand_var(op.operands[0])
        if convert is None:
            self.compute(op.results[0], a)
        else:
            # fast path: an exact int/float converts to itself, so the
            # common scalar case skips the box-type isinstance entirely
            var = self.result_var(op.results[0])
            self.w(f"if type({a}) is {fast}:")
            self.w(f"    {var} = {a}")
            self.w(f"elif isinstance({a}, _boxt):")
            self.w(f"    {var} = {a}")
            self.w("else:")
            self.w(f"    {var} = {convert}({a})")
            self.store_result(op.results[0], var)
        self.bump("cast")

    def _emit_fir_load(self, op: Operation) -> None:
        src = self.operand_var(op.operands[0])
        var = self.result_var(op.results[0])
        self.w(f"if type({src}) is _Cell:")
        self.w(f"    {var} = {src}.value")
        self.w(f"elif type({src}) is _EPtr:")
        self.w(f"    {var} = {src}.load()")
        self.w("else:")
        self.w(f"    {var} = {src}")
        self.store_result(op.results[0], var)
        self.bump("load")

    def _emit_fir_store(self, op: Operation) -> None:
        value = self.read(op.operands[0])
        dest = self.operand_var(op.operands[1])
        self.w(f"if type({dest}) is _Cell:")
        self.w(f"    {dest}.value = {value}")
        self.w(f"elif type({dest}) is _EPtr:")
        self.w(f"    {dest}.store({value})")
        self.w("else:")
        self.w("    raise _IErr('fir.store destination is not a "
               "storage location')")
        self.bump("store")

    def _emit_memref_access(self, op: Operation) -> None:
        load = op.name == "memref.load"
        mem_index = 0 if load else 1
        mem = self.operand_var(op.operands[mem_index])
        index_vals = op.operands[mem_index + 1:]
        subscript = ", ".join(f"_int({self.read(v)})" for v in index_vals)
        element = f"{mem}[{subscript}]" if index_vals else f"{mem}[()]"
        if load:
            var = self.result_var(op.results[0])
            self.w(f"if type({mem}) is _Cell:")
            self.w(f"    {var} = {mem}.value")
            self.w("else:")
            self.w(f"    {var} = {element}")
            self.store_result(op.results[0], var)
            self.bump("load")
        else:
            value = self.read(op.operands[0])
            self.w(f"if type({mem}) is _Cell:")
            self.w(f"    {mem}.value = {value}")
            self.w("else:")
            self.w(f"    {element} = {value}")
            self.bump("store")

    def affine_results(self, amap, operands: Sequence[Value]) -> List[str]:
        """Inline arithmetic for ``amap``'s results over ``operands``.

        Each operand is ``_int()``-ed once into a local (all operands are
        dims, as in the other engines' ``amap.evaluate(operand_values)``),
        then every result is a plain expression over those locals."""
        dims = []
        for value in operands:
            var = self.tmp()
            self.w(f"{var} = _int({self.read(value)})")
            dims.append(var)
        return [result.python_source(dims) for result in amap.results]

    def _emit_affine(self, op: Operation) -> None:
        amap = op.get_attr("map")
        if op.name == "affine.apply":
            self.compute(op.results[0],
                         _first(self.affine_results(amap, op.operands)))
            self.bump("index_arith")
            return
        load = op.name == "affine.load"
        mem_index = 0 if load else 1
        mem = self.operand_var(op.operands[mem_index])
        exprs = self.affine_results(amap, op.operands[mem_index + 1:])
        indices = self.tmp()
        self.w(f"{indices} = {_tuple(exprs)}")
        element = f"{mem}[{indices}]"
        if load:
            var = self.result_var(op.results[0])
            self.w(f"if type({mem}) is _Cell:")
            self.w(f"    {var} = {mem}.value")
            self.w("else:")
            self.w(f"    {var} = {element}")
            self.store_result(op.results[0], var)
            self.bump("load")
        else:
            value = self.read(op.operands[0])
            self.w(f"if type({mem}) is _Cell:")
            self.w(f"    {mem}.value = {value}")
            self.w("else:")
            self.w(f"    {element} = {value}")
            self.bump("store")

    def emit_fused(self, op: Operation, follower: Operation) -> None:
        """Address computation + its single consuming load/store, with the
        intermediate ElementPtr skipped (same as the compiled engine)."""
        base = self.operand_var(op.operands[0])
        if op.name == "hlfir.designate":
            unwrapped = self.tmp()
            self.w(f"{unwrapped} = {base}.value "
                   f"if type({base}) is _Cell else {base}")
            base = unwrapped
        indices = ", ".join(f"_int({self.read(v)})" for v in op.indices)
        index_tuple = f"({indices}{',' if indices else ''})"
        self.bump("index_arith")
        if follower.name == "fir.load":
            self.compute(follower.results[0], f"_ldel({base}, {index_tuple})")
            self.bump("load")
        else:
            value = self.read(follower.operands[0])
            self.w(f"_stel({base}, {index_tuple}, {value})")
            self.bump("store")

    def emit_fused_coordinate(self, op: Operation,
                              follower: Operation) -> None:
        """``fir.coordinate_of`` + its single load/store as one direct flat
        access (the ElementPtr the pair would route through is skipped)."""
        base = self.operand_var(op.operands[0])
        flat = self.tmp()
        if len(op.operands) > 1:
            self.w(f"{flat} = _int({self.read(op.operands[1])})")
        else:
            self.w(f"{flat} = 0")
        self.bump("index_arith")
        if follower.name == "fir.load":
            var = self.result_var(follower.results[0])
            self.w(f"if type({base}) is _FArr:")
            self.w(f"    {var} = {base}.data[{flat}]")
            self.w(f"elif type({base}) is _nda:")
            self.w(f"    {var} = {base}.reshape(-1)[{flat}]")
            self.w(f"elif type({base}) is _Cell:")
            self.w(f"    {var} = {base}.value")
            self.w("else:")
            self.w("    raise _IErr('fir.coordinate_of on a non-array value')")
            self.store_result(follower.results[0], var)
            self.bump("load")
        else:
            value = self.read(follower.operands[0])
            self.w(f"if type({base}) is _FArr:")
            self.w(f"    {base}.data[{flat}] = {value}")
            self.w(f"elif type({base}) is _nda:")
            self.w(f"    {base}.reshape(-1)[{flat}] = {value}")
            self.w(f"elif type({base}) is _Cell:")
            self.w(f"    {base}.value = {value}")
            self.w("else:")
            self.w("    raise _IErr('fir.coordinate_of on a non-array value')")
            self.bump("store")

    # -- structured control flow ---------------------------------------------
    def _collect_invariant_reads(self, steps: Sequence[Tuple],
                                 out: List[Value]) -> None:
        """Values the generated code will read inside ``steps`` that are
        defined outside this unit entirely — safe to hoist into one env read
        before the loop (SSA dominance guarantees they are bound by then)."""

        def note(value: Value) -> None:
            if value in self.defined or value in self.names \
                    or value in self.fallback_defined or value in out:
                return
            defining_op = getattr(value, "op", None)
            if defining_op is not None and defining_op in self.inline_ops:
                return  # fused-away address: never materialized anywhere
            out.append(value)

        for step in steps:
            kind = step[0]
            if kind == "inline":
                for operand in step[1].operands:
                    note(operand)
            elif kind in ("fused", "fusedcoor"):
                for operand in step[1].operands:
                    note(operand)
                for operand in step[2].operands:
                    note(operand)
            elif kind == "loop":
                for operand in step[1].operands:
                    note(operand)
                self._collect_invariant_reads(step[2], out)
            elif kind == "if":
                note(step[1].operands[0])
                self._collect_invariant_reads(step[2], out)
                if step[3] is not None:
                    self._collect_invariant_reads(step[3], out)
            elif kind == "yield":
                for operand in step[1].operands:
                    note(operand)
            # fallback steps read through env by design: not hoisted

    def _hoist_invariants(self, body_steps: Sequence[Tuple]) -> None:
        invariants: List[Value] = []
        self._collect_invariant_reads(body_steps, invariants)
        for value in invariants:
            var = self.tmp()
            self.w(f"{var} = env[{self.key(value)}]")
            self.names[value] = var

    def _bind_loop_arg(self, arg: Value, var: str) -> None:
        """Expose a loop body argument: as a local, and through env when a
        fallback op (or nested non-inlined region) also reads it."""
        self.names[arg] = var
        if arg in self.env_resident:
            self.w(f"env[{self.key(arg)}] = {var}")

    def _assign_loop_results(self, op: Operation, carried: List[str],
                             prefix: Sequence[str] = ()) -> None:
        values = list(prefix) + carried
        for res, var in zip(op.results, values):
            if res in self.env_resident:
                self.w(f"env[{self.key(res)}] = {var}")
            else:
                self.names[res] = var

    def _emit_loop_body(self, op: Operation, body: Block,
                        body_steps: Sequence[Tuple],
                        carried: List[str], iv_var: str) -> None:
        """Shared per-iteration emission: arg binding, body, yield, check."""
        self.bump("loop_iter")
        self._bind_loop_arg(body.args[0], iv_var)
        for arg, var in zip(body.args[1:], carried):
            self._bind_loop_arg(arg, var)
        terminator = body_steps[-1] if body_steps \
            and body_steps[-1][0] == "yield" else None
        self.emit_steps(body_steps[:-1] if terminator else body_steps)
        if terminator is not None and terminator[1].operands and carried:
            yielded = terminator[1].operands
            targets = ", ".join(carried[:len(yielded)])
            exprs = ", ".join(self.read(v) for v in yielded)
            self.w(f"{targets} = {exprs}")
        self.flush_pending()
        self.emit_stride_check()

    def emit_loop(self, op: Operation, body_steps: Sequence[Tuple]) -> None:
        self.flush_pending()
        self._hoist_invariants(body_steps)
        body = op.regions[0].blocks[0]
        if op.name == "affine.for":
            lo, hi = self.tmp(), self.tmp()
            lower = self.affine_results(op.lower_bound_map, op.lower_operands)
            self.w(f"{lo} = {_first(lower)}")
            upper = self.affine_results(op.upper_bound_map, op.upper_operands)
            self.w(f"{hi} = {_first(upper)}")
            step = op.step_value
            inits = op.iter_args
        else:
            lo, hi, st = self.tmp(), self.tmp(), self.tmp()
            self.w(f"{lo} = _int({self.read(op.operands[0])})")
            self.w(f"{hi} = _int({self.read(op.operands[1])})")
            self.w(f"{st} = _int({self.read(op.operands[2])})")
            inits = op.operands[3:]
        carried = []
        for init in inits:
            var = self.tmp()
            self.w(f"{var} = {self.read(init)}")
            carried.append(var)
        iv = self.tmp()
        self.w(f"{iv} = {lo}")

        if op.name == "scf.for":
            self.w(f"while {iv} < {hi}:")
            self.ind += 1
            self._emit_loop_body(op, body, body_steps, carried, iv)
            self.w(f"if {st} <= 0:")
            self.w("    break")
            self.w(f"{iv} += {st}")
            self.ind -= 1
            self._assign_loop_results(op, carried)
        elif op.name == "affine.for":
            self.w(f"while {iv} < {hi}:")
            self.ind += 1
            self._emit_loop_body(op, body, body_steps, carried, iv)
            self.w(f"{iv} += {step}")
            self.ind -= 1
            self._assign_loop_results(op, carried)
        else:  # fir.do_loop: inclusive bounds, direction from the step sign
            static_step = static_constant(op.operands[2])
            if static_step is not None and static_step != 0:
                # sign known at jit-compile time: emit one specialized loop
                condition = f"{iv} <= {hi}" if static_step > 0 \
                    else f"{iv} >= {hi}"
            else:
                direction = self.tmp()
                self.w(f"if {st} == 0:")
                self.w(f"    {st} = 1")
                self.w(f"{direction} = {st} > 0")
                condition = f"({iv} <= {hi}) if {direction} " \
                            f"else ({iv} >= {hi})"
            self.w(f"while {condition}:")
            self.ind += 1
            self._emit_loop_body(op, body, body_steps, carried, iv)
            self.w(f"{iv} += {st}")
            self.ind -= 1
            self._assign_loop_results(op, carried, prefix=[iv])

    def emit_if(self, op: Operation, then_steps: Sequence[Tuple],
                else_steps: Optional[Sequence[Tuple]]) -> None:
        self.bump("branch")
        self.flush_pending()
        result_vars = [self.result_var(res) for res in op.results]

        def emit_arm(steps: Sequence[Tuple]) -> None:
            # locals registered inside the arm (hoisted preheader reads,
            # inlined-loop args/results) are only assigned when this arm
            # executes — they must not leak into code emitted after the if
            saved_names = dict(self.names)
            terminator = steps[-1] if steps and steps[-1][0] == "yield" \
                else None
            self.emit_steps(steps[:-1] if terminator else steps)
            if result_vars and terminator is not None:
                targets = ", ".join(result_vars)
                exprs = ", ".join(self.read(v)
                                  for v in terminator[1].operands)
                self.w(f"{targets} = {exprs}")
            self.flush_pending()
            if len(self.lines) == arm_start:
                self.w("pass")
            self.names = saved_names

        self.w(f"if {self.read(op.operands[0])}:")
        self.ind += 1
        arm_start = len(self.lines)
        emit_arm(then_steps)
        self.ind -= 1
        if else_steps is not None or result_vars:
            self.w("else:")
            self.ind += 1
            arm_start = len(self.lines)
            emit_arm(else_steps or [])
            self.ind -= 1
        for res, var in zip(op.results, result_vars):
            self.store_result(res, var)

    # ------------------------------------------------------------------ build
    def build(self) -> Tuple[str, Dict[str, object]]:
        self.emit_steps(self.plan.steps)
        terminal_kinds = {"return", "br", "condbr", "yield"}
        if not self.plan.steps or self.plan.steps[-1][0] not in terminal_kinds:
            self.emit_fallthrough()
        body = self.lines
        header: List[Tuple[int, str]] = [(0, "def _jit_block(env):"), (1, "_t = 0")]
        header.extend((1, f"{var} = 0") for var in self.counters.values())
        source = "\n".join("    " * indent + text
                           for indent, text in header + body)
        return source, self.ns


# ---------------------------------------------------------------------------
# Engine entry point: the tiered, persistent translation cache
# ---------------------------------------------------------------------------


#: Version of the translation format: the emitted source shape, the payload
#: layout stored on disk, and the meaning of the fingerprint salt.  Bump
#: whenever :class:`_Emitter` changes its output for the same input block —
#: every persisted translation then misses cleanly.
JIT_FORMAT_VERSION = 2


class _Translation:
    """One process-cached translation, addressed by structural fingerprint.

    ``code``/``nops``/``source`` are *structure-portable*: any block with
    the same fingerprint executes the same code object.  ``template`` and
    ``fallback_binds`` are not — the emitter binds live objects (``Value``
    env keys, successor ``Block``s, ops backing fallback thunks) into the
    namespace, so they are valid only for the exact block object they were
    planned against.  ``block`` records that object; a fingerprint hit from
    a *different* block object re-plans to rebuild the live bindings, then
    reuses ``code`` when the regenerated source matches."""

    __slots__ = ("code", "nops", "source", "block", "template",
                 "fallback_binds")

    def __init__(self, code, nops, source, block, template, fallback_binds):
        self.code = code
        self.nops = nops
        self.source = source
        self.block = block
        self.template = template
        self.fallback_binds = fallback_binds


#: process-level translation cache: structural fingerprint (see
#: :func:`translation_key`) -> :class:`_Translation`.  The expensive work —
#: planning, source emission, ``compile()`` — happens once per block
#: *structure* per process; every further interpreter only copies the
#: namespace, rebinds its own ``_interp``/``_stats``/fallback thunks and
#: ``exec``s the cached code object.  Ordered for LRU eviction: overflow
#: evicts the single least-recently-used entry, never the whole cache.
_CODE_CACHE: "OrderedDict[str, _Translation]" = OrderedDict()
_CODE_CACHE_MAX = 4096

#: Optional persistent tier (installed by the service layer): an object
#: with ``lookup(key) -> Optional[dict]``, ``store(key, payload)`` and
#: ``contains(key) -> bool``.  ``None`` keeps the cache process-local.
_TRANSLATION_STORE = None

#: Monotonic process-wide counters over :func:`_translation_for` outcomes.
_COUNTER_FIELDS = ("memory_hits", "disk_hits", "misses", "stores")
_counters = dict.fromkeys(_COUNTER_FIELDS, 0)


def set_translation_store(store) -> None:
    """Install (or with ``None`` remove) the persistent translation tier."""
    global _TRANSLATION_STORE
    _TRANSLATION_STORE = store


def get_translation_store():
    return _TRANSLATION_STORE


def translation_counters() -> Dict[str, float]:
    """Translation-cache traffic: raw counters plus derived rates."""
    snapshot = dict(_counters)
    return _derive_counters(snapshot)


def snapshot_translation_counters() -> Dict[str, int]:
    return dict(_counters)


def translation_counters_delta(before: Dict[str, int]) -> Dict[str, float]:
    """Traffic since ``before`` (a :func:`snapshot_translation_counters`)."""
    delta = {field: _counters[field] - before.get(field, 0)
             for field in _COUNTER_FIELDS}
    return _derive_counters(delta)


def _derive_counters(raw: Dict[str, int]) -> Dict[str, float]:
    hits = raw["memory_hits"] + raw["disk_hits"]
    lookups = hits + raw["misses"]
    raw["hits"] = hits
    raw["lookups"] = lookups
    raw["hit_rate"] = round(hits / lookups, 4) if lookups else 0.0
    return raw


def clear_translation_cache() -> None:
    """Drop every in-process translation (tests simulate a fresh process);
    the persistent tier and the counters are left untouched."""
    _CODE_CACHE.clear()
    _KEY_MEMO.clear()


#: (block id, check stride) -> (block, semantics version, fingerprint).
#: Fingerprinting walks the whole block; a process shared by many short
#: interpreter instances (the bench's steady state, the daemon) would
#: otherwise re-fingerprint every block once per instance.  The stored
#: block reference both validates the id (``is`` check — a recycled id can
#: never alias while the memo holds the old block alive) and ages out via
#: LRU exactly like the translations themselves.
_KEY_MEMO: "OrderedDict[Tuple[int, int], Tuple[Block, int, str]]" = \
    OrderedDict()
_KEY_MEMO_MAX = 8192


def translation_key(block: Block, check_stride: int) -> str:
    """Stable cross-process address of ``block``'s translation.

    A structural fingerprint (:func:`fingerprint_block`) salted with the
    translation-format version, the numeric-semantics version and the
    check stride the generated source hard-codes into its execution-limit
    checks.  Unlike the block's ``_uid`` — reused after unpickling and
    meaningless across processes — the fingerprint is identical for every
    rebuild of the same block, and distinct for structurally different
    blocks even when their uids collide."""
    sem_version = semantics.SEMANTICS_VERSION
    memo_key = (id(block), check_stride)
    cached = _KEY_MEMO.get(memo_key)
    if cached is not None and cached[0] is block and cached[1] == sem_version:
        _KEY_MEMO.move_to_end(memo_key)
        return cached[2]
    salt = (f"jit:v{JIT_FORMAT_VERSION}"
            f":sem{sem_version}"
            f":stride{check_stride}")
    key = fingerprint_block(block, salt=salt)
    if memo_key not in _KEY_MEMO and len(_KEY_MEMO) >= _KEY_MEMO_MAX:
        _KEY_MEMO.popitem(last=False)
    _KEY_MEMO[memo_key] = (block, sem_version, key)
    return key


def _payload_for(source: str, code, nops: int) -> Dict:
    """Disk form of one translation: source of record plus a bytecode
    fast path valid only under the exact same interpreter build."""
    return {"format": JIT_FORMAT_VERSION,
            "source": source,
            "nops": nops,
            "magic": MAGIC_NUMBER.hex(),
            "bytecode": base64.b64encode(marshal.dumps(code)).decode()}


def _code_from_payload(payload: Dict, filename: str):
    """Code object for a stored payload: unmarshal the persisted bytecode
    when the interpreter magic matches, else recompile the stored source
    (the source is authoritative; bytecode is only a shortcut)."""
    if payload.get("magic") == MAGIC_NUMBER.hex():
        try:
            return marshal.loads(base64.b64decode(payload["bytecode"]))
        except Exception:
            pass
    return compile(payload["source"], filename, "exec")


def _translation_for(interp: Interpreter, block: Block,
                     key: Optional[str] = None) -> _Translation:
    if key is None:
        key = translation_key(block, interp._check_stride)
    entry = _CODE_CACHE.get(key)
    if entry is not None and entry.block is block:
        _CODE_CACHE.move_to_end(key)
        _counters["memory_hits"] += 1
        return entry

    # Either a true miss or a fingerprint hit from a different block
    # object.  Both need a fresh plan/emit: the namespace template binds
    # live objects, so only the compiled code is structure-portable.
    plan = plan_block(block)
    emitter = _Emitter(interp, plan)
    source, ns = emitter.build()
    template = dict(ns)
    del template["_interp"], template["_stats"]    # rebound per instance
    fallback_binds = tuple(emitter.fallback_binds)
    nops = max(1, len(plan.steps))
    filename = f"<jit:{key[:12]}>"

    if entry is not None and entry.source == source:
        # same structure, new block object: keep the code, repoint the
        # instantiation material at this block's live objects
        entry.block = block
        entry.template = template
        entry.fallback_binds = fallback_binds
        _CODE_CACHE.move_to_end(key)
        _counters["memory_hits"] += 1
        return entry

    store = _TRANSLATION_STORE
    code = None
    if entry is None and store is not None:
        try:
            payload = store.lookup(key)
        except Exception:
            payload = None
        if payload is not None and payload.get("source") == source:
            # source-verified: the stored translation provably generates
            # the exact code this block needs, so warm behaviour is
            # bit-identical by construction
            try:
                code = _code_from_payload(payload, filename)
            except Exception:
                code = None
    if code is not None:
        _counters["disk_hits"] += 1
    else:
        code = compile(source, filename, "exec")
        _counters["misses"] += 1
        if store is not None:
            try:
                store.store(key, _payload_for(source, code, nops))
                _counters["stores"] += 1
            except Exception:
                pass

    entry = _Translation(code, nops, source, block, template, fallback_binds)
    if key not in _CODE_CACHE and len(_CODE_CACHE) >= _CODE_CACHE_MAX:
        _CODE_CACHE.popitem(last=False)    # evict one LRU entry, not all
    _CODE_CACHE[key] = entry
    _CODE_CACHE.move_to_end(key)
    return entry


def compile_block(interp: Interpreter, block: Block,
                  key: Optional[str] = None):
    """Translate ``block`` into one generated function; returns (fn, nops)."""
    entry = _translation_for(interp, block, key)
    ns = dict(entry.template)
    ns["_interp"] = interp
    ns["_stats"] = interp.stats
    for name, op in entry.fallback_binds:
        ns[name] = Interpreter._compile_op(interp, op, None)
    exec(entry.code, ns)
    fn = ns["_jit_block"]
    fn.__jit_source__ = entry.source
    return fn, entry.nops


#: entries of a cold block before translation pays for itself; colder
#: blocks run on the compiled engine's (cheap, cached) thunk lists instead
_PROMOTE_AFTER = 8
#: estimated ops per entry above which translation pays off immediately
_TRANSLATE_WORK = 1024


def static_constant(value: Value):
    """The Python value of ``value`` when defined by ``arith.constant``."""
    op = getattr(value, "op", None)
    if op is not None and op.name == "arith.constant":
        return op.get_attr("value").value
    return None


def static_trip_count(op: Operation) -> Optional[int]:
    """Trip count of a loop whose bounds fold at compile time, else None."""
    if op.name == "affine.for":
        if op.lower_operands or op.upper_operands:
            return None
        lo = op.lower_bound_map.evaluate([])[0]
        hi = op.upper_bound_map.evaluate([])[0]
        st = op.step_value
        if st <= 0:
            return None
        return max(0, -((lo - hi) // st))
    lo = static_constant(op.operands[0])
    hi = static_constant(op.operands[1])
    st = static_constant(op.operands[2])
    if lo is None or hi is None or st is None:
        return None
    if op.name == "scf.for":
        if st <= 0:
            return None
        return max(0, -((lo - hi) // st))
    st = st if st != 0 else 1        # fir.do_loop: inclusive, step 0 -> 1
    if st > 0:
        return (hi - lo) // st + 1 if lo <= hi else 0
    return (lo - hi) // (-st) + 1 if lo >= hi else 0


def _estimated_work(block: Block) -> Optional[int]:
    """Rough op count one entry of ``block`` executes; ``None`` = unknown
    (a loop with runtime bounds — assume hot)."""
    total = 0
    for op in block.ops:
        if op.name in _INLINE_LOOPS and _loop_inlineable(op):
            trips = static_trip_count(op)
            inner = _estimated_work(op.regions[0].blocks[0])
            if trips is None or inner is None:
                return None
            total += trips * (inner + 1)
        else:
            total += 1
    return total


def _worth_translating(block: Block) -> bool:
    """Translate on first entry only when one entry amortizes the
    ``compile()``/``exec`` price: the block's statically estimated
    per-entry work clears :data:`_TRANSLATE_WORK`, or contains a loop
    whose bounds only resolve at run time.  Everything colder pays off
    only when re-entered (:data:`_PROMOTE_AFTER`)."""
    work = _estimated_work(block)
    return work is None or work >= _TRANSLATE_WORK


class JitEngine:
    """Per-interpreter cache of generated block functions.

    Translation is tiered: loop-bearing blocks are translated on first
    entry, anything else runs on the compiled engine's dispatch until it
    has been entered :data:`_PROMOTE_AFTER` times.  Both tiers are
    observationally bit-identical, so the mix never shows in stats."""

    __slots__ = ("interp", "cache", "entries", "keys", "known")

    def __init__(self, interp: Interpreter):
        self.interp = interp
        self.cache: Dict[Block, Tuple] = {}
        self.entries: Dict[Block, int] = {}
        #: Block -> structural fingerprint, computed once per block.
        self.keys: Dict[Block, str] = {}
        #: fingerprint -> persistent-tier ``contains`` verdict, memoised so
        #: the tiering bypass costs one disk probe per structure, not one
        #: per cold entry.
        self.known: Dict[str, bool] = {}

    def _key_for(self, block: Block) -> str:
        key = self.keys.get(block)
        if key is None:
            key = self.keys[block] = \
                translation_key(block, self.interp._check_stride)
        return key

    def _translated(self, key: str) -> bool:
        """Is a translation already available (memory or disk) for pennies?"""
        if key in _CODE_CACHE:
            return True
        known = self.known.get(key)
        if known is None:
            store = _TRANSLATION_STORE
            try:
                known = store is not None and bool(store.contains(key))
            except Exception:
                known = False
            self.known[key] = known
        return known

    def run_block(self, block: Block, env: Dict) -> Tuple[str, object]:
        entry = self.cache.get(block)
        if entry is None:
            # an already-available translation (this process or the
            # persistent tier) instantiates for pennies — use it
            # regardless of how cold this block looks to the tiering
            key = self._key_for(block)
            if not self._translated(key) and not _worth_translating(block):
                count = self.entries.get(block, 0)
                if count < _PROMOTE_AFTER:
                    self.entries[block] = count + 1
                    return self.interp._run_block_compiled(block, env)
            entry = self.cache[block] = \
                compile_block(self.interp, block, key=key)
        fn, nops = entry
        interp = self.interp
        budget = interp._budget - nops
        if budget <= 0:
            interp._check_limit()
            budget = interp._check_stride
        interp._budget = budget
        return fn(env)

    def source_for(self, block: Block) -> str:
        """The generated Python source for ``block`` (debugging aid)."""
        entry = self.cache.get(block)
        if entry is None:
            entry = self.cache[block] = compile_block(self.interp, block)
        return entry[0].__jit_source__


__all__ = ["JitEngine", "compile_block", "plan_block",
           "translation_key", "set_translation_store",
           "get_translation_store", "translation_counters",
           "snapshot_translation_counters", "translation_counters_delta",
           "clear_translation_cache", "JIT_FORMAT_VERSION"]
