"""Block-compile-time binding of affine maps and FIR descriptor ops.

The compiled engine and the jit run affine maps as generated arithmetic
(``AffineExpr.python_source``) instead of walking the expression tree per
executed op, and the compiled engine runs ``fir.box_addr`` /
``fir.box_dims`` / ``fir.coordinate_of`` through dedicated thunk makers.
The tree walk (``AffineMapAttr.evaluate``) and the one-op ``reference``
engine stay the oracles these tests compare against.
"""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dialects import fir
from repro.dialects.affine import AffineForOp, AffineYieldOp
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.flows import ENGINES, get_flow
from repro.ir import types as T
from repro.ir.attributes import AffineExpr, AffineMapAttr
from repro.ir.core import create_operation
from repro.machine import Interpreter
from repro.machine.interpreter import _affine_indexer
from repro.machine.values import Cell, FortranArray
from repro.service.serialization import stats_to_dict
from repro.service.tables import enumerate_jobs
from repro.workloads import get_workload

N_DIMS = 3
N_SYMS = 2
DIM_NAMES = [f"d{i}" for i in range(N_DIMS)]
SYM_NAMES = [f"s{i}" for i in range(N_SYMS)]

_leaves = st.one_of(
    st.integers(0, N_DIMS - 1).map(AffineExpr.dim),
    st.integers(0, N_SYMS - 1).map(AffineExpr.symbol),
    st.integers(-20, 20).map(AffineExpr.constant))
_divisors = st.integers(-9, 9).filter(bool).map(AffineExpr.constant)


def _node(kind, children, rhs):
    return st.tuples(children, rhs).map(
        lambda pair: AffineExpr(kind, 0, pair[0], pair[1]))


def _extend(children):
    return st.one_of(_node("add", children, children),
                     _node("mul", children, children),
                     _node("mod", children, _divisors),
                     _node("floordiv", children, _divisors),
                     _node("ceildiv", children, _divisors))


EXPRS = st.recursive(_leaves, _extend, max_leaves=12)
VALUES = st.integers(-60, 60)


def _run_source(expr, dims, syms=()):
    scope = dict(zip(DIM_NAMES, dims))
    scope.update(zip(SYM_NAMES, syms))
    return eval(expr.python_source(DIM_NAMES, SYM_NAMES), {}, scope)


class TestPythonSource:
    @settings(max_examples=300, deadline=None)
    @given(EXPRS, st.lists(VALUES, min_size=N_DIMS, max_size=N_DIMS),
           st.lists(VALUES, min_size=N_SYMS, max_size=N_SYMS))
    def test_matches_tree_walk(self, expr, dims, syms):
        assert _run_source(expr, dims, syms) == expr.evaluate(dims, syms)

    @pytest.mark.parametrize("kind", ["add", "mul", "mod", "floordiv",
                                      "ceildiv"])
    def test_every_binary_kind_on_negative_and_positive_operands(self, kind):
        for value, divisor in itertools.product(range(-7, 8), (-3, -1, 2, 5)):
            expr = AffineExpr(kind, 0, AffineExpr.dim(0),
                              AffineExpr.constant(divisor))
            dims = [value, 0, 0]
            assert _run_source(expr, dims) == expr.evaluate(dims), \
                (kind, value, divisor)

    def test_lhs_is_emitted_before_rhs(self):
        expr = AffineExpr.dim(0) + AffineExpr.dim(1) * 2
        assert expr.python_source(["a", "b"]) == "(a + (b * 2))"

    def test_symbols_without_names_raise_like_the_tree_walk(self):
        # callers pass every operand as a dim with syms=(): a symbol
        # reference fails at run time, with the same error, in both
        expr = AffineExpr.dim(0) + AffineExpr.symbol(0)
        with pytest.raises(IndexError):
            expr.evaluate([1, 2])
        source = expr.python_source(["a", "b"])
        with pytest.raises(IndexError):
            eval(source, {}, {"a": 1, "b": 2})

    @settings(max_examples=150, deadline=None)
    @given(st.lists(EXPRS, max_size=3),
           st.lists(VALUES, min_size=N_DIMS + N_SYMS,
                    max_size=N_DIMS + N_SYMS))
    def test_compiled_indexer_matches_map_evaluate(self, results, values):
        amap = AffineMapAttr(N_DIMS, N_SYMS, results)
        operands = [f"v{i}" for i in range(len(values))]
        env = dict(zip(operands, values))
        try:
            expected = amap.evaluate(values)
        except IndexError:  # a symbol reference, see above
            with pytest.raises(IndexError):
                _affine_indexer(amap, operands)(env)
            return
        assert _affine_indexer(amap, operands)(env) == expected


def _table_maps():
    """Every affine map in the ``ours`` modules of the table workloads."""
    maps, seen = set(), set()
    for job in enumerate_jobs():
        build = (job.workload_name, job.options, job.threads, job.gpu)
        if job.flow != "ours" or build in seen:
            continue
        seen.add(build)
        result = get_flow(job.flow).run(job.resolve_workload(),
                                        job.options_dict(), job.execution(),
                                        collect_statistics=False)
        for op in result.module.walk():
            for attr in op.attributes.values():
                if isinstance(attr, AffineMapAttr):
                    maps.add(attr)
    return maps


class TestTableWorkloadMaps:
    def test_generated_code_matches_evaluate_on_every_map(self):
        maps = _table_maps()
        assert len(maps) > 20
        samples = (-65, -7, -1, 0, 1, 2, 31, 64)
        for amap in maps:
            n = amap.num_dims + amap.num_symbols
            operands = [f"v{i}" for i in range(n)]
            index = _affine_indexer(amap, operands)
            for values in itertools.product(samples, repeat=n):
                values = list(values)
                assert index(dict(zip(operands, values))) == \
                    amap.evaluate(values), amap.mlir()


class TestJitInlinesMaps:
    def test_affine_kernel_source_has_no_tree_walk(self):
        module = get_flow("ours").run(get_workload("jacobi")).module
        reference = Interpreter(module, engine="reference")
        reference.run_main()
        jit = Interpreter(module, engine="jit")
        jit.run_main()
        assert jit.printed == reference.printed
        assert stats_to_dict(jit.stats) == stats_to_dict(reference.stats)
        functions = [fn for fn, _ in jit._jit.cache.values()]
        sources = [fn.__jit_source__ for fn in functions]
        assert any("_int(" in text and "while " in text for text in sources)
        for text in sources:
            assert ".evaluate(" not in text
        for fn in functions:
            assert not any(isinstance(value, AffineMapAttr)
                           for value in fn.__globals__.values())

    def test_multi_result_loop_bounds_use_the_first_result(self):
        # runtime-bound loop: the jit translates it on first entry
        lower = AffineMapAttr(1, 0, [AffineExpr.dim(0) + -2,
                                     AffineExpr.constant(100)])
        upper = AffineMapAttr(1, 0, [AffineExpr.dim(0) * 3,
                                     AffineExpr.constant(-100)])

        def build(args):
            loop = AffineForOp([args[0]], lower, [args[0]], upper,
                               iter_args=[args[1]])
            iv, acc = loop.body.args
            add = create_operation("arith.addi", operands=[acc, iv],
                                   result_types=[T.index])
            loop.body.add_op(add)
            loop.body.add_op(AffineYieldOp([add.results[0]]))
            return [loop], [loop.results[0]]
        assert _run_all_engines([T.index, T.index], build,
                                [lambda: 5, lambda: 0]) == [sum(range(3, 15))]


# ---------------------------------------------------------------------------
# FIR descriptor thunk makers vs the reference engine
# ---------------------------------------------------------------------------

BOX = fir.BoxType(fir.SequenceType([3, 4], T.f64))
REF = fir.ReferenceType(T.f64)


def _run_all_engines(arg_types, build, args):
    """Run main(args) built by ``build`` on every engine; return the
    reference engine's results after checking the others match it
    bit for bit (return values, printed output, statistics)."""
    observed = {}
    for engine in ENGINES:
        fn = FuncOp("main", T.FunctionType(tuple(arg_types), ()))
        ops, results = build(fn.entry_block.args)
        for op in ops:
            fn.entry_block.add_op(op)
        fn.entry_block.add_op(ReturnOp(results))
        interp = Interpreter(ModuleOp([fn]), engine=engine)
        returned = interp.call("main", [arg() for arg in args])
        observed[engine] = (returned, interp.printed,
                            stats_to_dict(interp.stats))
    reference = observed["reference"]
    for engine, seen in observed.items():
        assert seen == reference, engine
    return reference[0]


def _array():
    return FortranArray((3, 4), data=np.arange(12, dtype=np.float64))


def _box_dims(args):
    op = fir.BoxDimsOp(args[0], args[1])
    return [op], list(op.results)


class TestDescriptorMakers:
    @pytest.mark.parametrize("dim, extent", [(0, 3), (1, 4), (2, 1), (7, 1)])
    def test_box_dims_on_array(self, dim, extent):
        results = _run_all_engines([BOX, T.index], _box_dims,
                                   [_array, lambda: dim])
        assert results == [1, extent, 1]

    @pytest.mark.parametrize("dim", [0, 1])
    def test_box_dims_on_scalar_box_has_shape_one(self, dim):
        results = _run_all_engines([BOX, T.index], _box_dims,
                                   [lambda: Cell(2.5), lambda: dim])
        assert results == [1, 1, 1]

    def test_box_addr_then_load(self):
        def build(args):
            addr = fir.BoxAddrOp(args[0], REF)
            coord = fir.CoordinateOfOp(addr.results[0], [args[1]], REF)
            load = fir.LoadOp(coord.results[0])
            return [addr, coord, load], [load.results[0]]
        assert _run_all_engines([BOX, T.index], build,
                                [_array, lambda: 5]) == [5.0]

    def test_coordinate_of_on_cell(self):
        def build(args):
            coord = fir.CoordinateOfOp(args[0], [args[1]], REF)
            store = fir.StoreOp(args[2], coord.results[0])
            load = fir.LoadOp(coord.results[0])
            return [coord, store, load], [load.results[0]]
        assert _run_all_engines([REF, T.index, T.f64], build,
                                [lambda: Cell(1.0), lambda: 3,
                                 lambda: 7.5]) == [7.5]

    def test_coordinate_of_without_index_is_element_zero(self):
        def build(args):
            coord = fir.CoordinateOfOp(args[0], [], REF)
            load = fir.LoadOp(coord.results[0])
            return [coord, load], [load.results[0]]
        assert _run_all_engines([BOX], build, [_array]) == [0.0]

    def test_coordinate_of_on_derived_type_field(self):
        record = fir.RecordType("t", [("x", T.f64)])

        def build(args):
            coord = fir.CoordinateOfOp(args[0], [], REF, field="x")
            store = fir.StoreOp(args[1], coord.results[0])
            load = fir.LoadOp(coord.results[0])
            return [coord, store, load], [load.results[0]]
        assert _run_all_engines([fir.ReferenceType(record), T.f64], build,
                                [lambda: Cell({}), lambda: 4.25]) == [4.25]

    def test_only_the_field_form_keeps_the_generic_handler(self):
        fn = FuncOp("main", T.FunctionType((REF, T.index), ()))
        base, index = fn.entry_block.args
        interp = Interpreter(ModuleOp([fn]), engine="compiled")
        ops = [fir.BoxAddrOp(base, REF), fir.BoxDimsOp(base, index),
               fir.CoordinateOfOp(base, [index], REF),
               fir.CoordinateOfOp(base, [], REF, field="x")]
        thunks = [interp._compile_op(op, None) for op in ops]
        assert [isinstance(thunk, partial) for thunk in thunks] == \
            [False, False, False, True]
