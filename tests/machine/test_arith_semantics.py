"""Integer/float comparison and division semantics, plus dispatch-cache
regression tests: every interpreter engine (compiled thunks, the jit and
the one-op reference) must implement LLVM/MLIR arith semantics identically.
"""

import numpy as np
import pytest

from repro.dialects import arith
from repro.dialects.builtin import ModuleOp
from repro.dialects.func import FuncOp, ReturnOp
from repro.flows import ENGINES as ENGINE_LIST
from repro.ir import types as T
from repro.ir.core import create_operation
from repro.machine import Interpreter
from repro.service.serialization import stats_to_dict

from ..conftest import run_flang, run_ours

ENGINES = pytest.mark.parametrize("engine", ENGINE_LIST)

NAN = float("nan")


def _interpret(arg_types, build, *, engine, args=()):
    """Build main(arg_types) from ``build(block_args)`` and run it.

    ``build`` returns (ops, result_values); the function is executed with
    ``args`` on the requested engine and the return values are returned.
    """
    fn = FuncOp("main", T.FunctionType(tuple(arg_types), ()))
    ops, results = build(fn.entry_block.args)
    for op in ops:
        fn.entry_block.add_op(op)
    fn.entry_block.add_op(ReturnOp(results))
    module = ModuleOp([fn])
    interp = Interpreter(module, engine=engine)
    return interp.call("main", list(args))


def _eval_binary(op_name, a, b, operand_type, *, engine):
    def build(args):
        op = create_operation(op_name, operands=list(args),
                              result_types=[operand_type])
        return [op], [op.results[0]]
    (result,) = _interpret([operand_type, operand_type], build,
                           engine=engine, args=[a, b])
    return result


def _eval_cmpi(predicate, a, b, operand_type, *, engine):
    def build(args):
        op = arith.CmpIOp(predicate, args[0], args[1])
        return [op], [op.results[0]]
    (result,) = _interpret([operand_type, operand_type], build,
                           engine=engine, args=[a, b])
    return result


def _eval_cmpf(predicate, a, b, *, engine):
    def build(args):
        op = arith.CmpFOp(predicate, args[0], args[1])
        return [op], [op.results[0]]
    (result,) = _interpret([T.f64, T.f64], build,
                           engine=engine, args=[a, b])
    return result


class TestCmpISemantics:
    @ENGINES
    def test_signed_predicates_on_negatives(self, engine):
        assert _eval_cmpi("slt", -1, 1, T.i32, engine=engine)
        assert _eval_cmpi("sge", 1, -1, T.i32, engine=engine)
        assert not _eval_cmpi("sgt", -5, -3, T.i32, engine=engine)

    @ENGINES
    def test_unsigned_predicates_reinterpret_negatives(self, engine):
        # -1 is the largest i32 when reinterpreted as unsigned
        assert _eval_cmpi("ugt", -1, 1, T.i32, engine=engine)
        assert not _eval_cmpi("ult", -1, 1, T.i32, engine=engine)
        assert _eval_cmpi("uge", -1, 2**31, T.i32, engine=engine)
        # ordering among negatives is preserved (both wrap high)
        assert _eval_cmpi("ult", -5, -3, T.i32, engine=engine)
        assert _eval_cmpi("ule", -3, -3, T.i32, engine=engine)

    def test_reinterpretation_is_width_aware(self):
        from repro.machine.semantics import as_unsigned
        assert as_unsigned(-1, 32) == 2**32 - 1
        assert as_unsigned(-1, 64) == 2**64 - 1
        assert as_unsigned(-1, 8) == 255
        assert as_unsigned(True, 1) == 1
        # out-of-range values wrap at the declared width, scalar and ndarray
        assert as_unsigned(2**33, 32) == 0
        arr = np.array([-1, -128], dtype=np.int32)
        assert list(as_unsigned(arr, 32)) == [2**32 - 1, 2**32 - 128]
        assert as_unsigned(arr, 32).dtype == np.uint32
        assert as_unsigned(np.array([-1], dtype=np.int64), 64).dtype == np.uint64

    @ENGINES
    def test_unsigned_predicates_at_both_widths(self, engine):
        # -1 reinterprets to 2^64-1 at i64 and 2^32-1 at i32; both exceed 2^31
        assert _eval_cmpi("ugt", -1, 2**31, T.i64, engine=engine)
        assert _eval_cmpi("ugt", -1, 2**31, T.i32, engine=engine)

    @ENGINES
    def test_unsigned_predicates_on_ndarrays(self, engine):
        a = np.array([-1, 2, -5], dtype=np.int32)
        b = np.array([1, 2, -3], dtype=np.int32)
        result = _eval_cmpi("ult", a, b, T.i32, engine=engine)
        assert list(result) == [False, False, True]
        result = _eval_cmpi("uge", a, b, T.i32, engine=engine)
        assert list(result) == [True, True, False]


class TestCmpFSemantics:
    @ENGINES
    def test_ordered_predicates_false_on_nan(self, engine):
        for pred in ("oeq", "one", "olt", "ole", "ogt", "oge"):
            assert not _eval_cmpf(pred, NAN, 1.0, engine=engine)
            assert not _eval_cmpf(pred, 1.0, NAN, engine=engine)

    @ENGINES
    def test_unordered_predicates_true_on_nan(self, engine):
        for pred in ("ueq", "une", "ult", "ule", "ugt", "uge"):
            assert _eval_cmpf(pred, NAN, 1.0, engine=engine)
            assert _eval_cmpf(pred, 1.0, NAN, engine=engine)

    @ENGINES
    def test_ord_uno_detect_nan(self, engine):
        assert _eval_cmpf("ord", 1.0, 2.0, engine=engine)
        assert not _eval_cmpf("ord", NAN, 2.0, engine=engine)
        assert not _eval_cmpf("uno", 1.0, 2.0, engine=engine)
        assert _eval_cmpf("uno", 1.0, NAN, engine=engine)

    @ENGINES
    def test_behave_as_ordered_without_nan(self, engine):
        assert _eval_cmpf("ueq", 2.0, 2.0, engine=engine)
        assert not _eval_cmpf("ueq", 1.0, 2.0, engine=engine)
        assert _eval_cmpf("one", 1.0, 2.0, engine=engine)
        assert not _eval_cmpf("une", 2.0, 2.0, engine=engine)

    @ENGINES
    def test_vectorized_nan_semantics(self, engine):
        a = np.array([1.0, NAN, 3.0])
        b = np.array([1.0, 2.0, NAN])
        assert list(_eval_cmpf("oeq", a, b, engine=engine)) == \
            [True, False, False]
        assert list(_eval_cmpf("ueq", a, b, engine=engine)) == \
            [True, True, True]
        assert list(_eval_cmpf("one", a, b, engine=engine)) == \
            [False, False, False]
        assert list(_eval_cmpf("ord", a, b, engine=engine)) == \
            [True, False, False]
        assert list(_eval_cmpf("uno", a, b, engine=engine)) == \
            [False, True, True]


class TestIntegerDivision:
    """divsi/remsi follow LLVM sdiv/srem (truncate toward zero, remainder
    takes the dividend's sign); floordivsi/ceildivsi round toward -inf/+inf.
    Division by zero consistently yields 0 on every path."""

    CASES = [(-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1), (7, 2, 3, 1),
             (-6, 3, -2, 0), (5, 0, 0, 0)]

    @ENGINES
    def test_divsi_remsi_scalar(self, engine):
        for a, b, q, r in self.CASES:
            assert _eval_binary("arith.divsi", a, b, T.i32,
                                engine=engine) == q, (a, b)
            assert _eval_binary("arith.remsi", a, b, T.i32,
                                engine=engine) == r, (a, b)

    @ENGINES
    def test_divsi_remsi_ndarray_matches_scalar(self, engine):
        a = np.array([c[0] for c in self.CASES], dtype=np.int64)
        b = np.array([c[1] for c in self.CASES], dtype=np.int64)
        q = _eval_binary("arith.divsi", a, b, T.i64,
                         engine=engine)
        r = _eval_binary("arith.remsi", a, b, T.i64,
                         engine=engine)
        assert list(q) == [c[2] for c in self.CASES]
        assert list(r) == [c[3] for c in self.CASES]

    @ENGINES
    def test_floordiv_ceildiv_negative_operands(self, engine):
        for a, b, floor_q, ceil_q in [(-7, 2, -4, -3), (7, -2, -4, -3),
                                      (7, 2, 3, 4), (-7, -2, 3, 4),
                                      (5, 0, 0, 0)]:
            assert _eval_binary("arith.floordivsi", a, b, T.i64,
                                engine=engine) == floor_q, (a, b)
            assert _eval_binary("arith.ceildivsi", a, b, T.i64,
                                engine=engine) == ceil_q, (a, b)

    @ENGINES
    def test_floordiv_ceildiv_ndarray(self, engine):
        a = np.array([-7, 7, 7, -7, 5], dtype=np.int64)
        b = np.array([2, -2, 2, -2, 0], dtype=np.int64)
        floor_q = _eval_binary("arith.floordivsi", a, b, T.i64,
                               engine=engine)
        ceil_q = _eval_binary("arith.ceildivsi", a, b, T.i64,
                              engine=engine)
        assert list(floor_q) == [-4, -4, 3, 3, 0]
        assert list(ceil_q) == [-3, -3, 4, 4, 0]

    def test_fortran_division_and_mod_on_negatives(self):
        """End-to-end: Fortran ``/`` truncates toward zero and ``mod`` takes
        the dividend's sign, through both compilation flows."""
        src = """
program p
  implicit none
  integer :: q, r
  q = (-7) / 2
  r = mod(-7, 2)
  print *, q, r
end program p
"""
        for interp in (run_flang(src), run_ours(src)):
            assert interp.printed[-1].split() == ["-3", "-1"]


class TestDispatchCacheRegression:
    """The compiled (cached-dispatch) engine must be observationally
    identical to the one-op reference engine: same printed output, same
    statistics, bit for bit."""

    def _assert_engines_identical(self, module):
        reference = Interpreter(module, engine="reference")
        reference.run_main()
        for engine in ("compiled", "jit"):
            other = Interpreter(module, engine=engine)
            other.run_main()
            assert other.printed == reference.printed, engine
            assert stats_to_dict(other.stats) == \
                stats_to_dict(reference.stats), engine

    def test_polyhedron_workload_stats_equality(self, flang_compiler,
                                                standard_compiler):
        from repro.workloads import get_workload
        source = get_workload("ac").source(scaled=True)
        self._assert_engines_identical(
            flang_compiler.compile(source, stop_at="fir").fir_module)
        self._assert_engines_identical(
            standard_compiler.compile(source).optimised_module)

    def test_stencil_workload_stats_equality(self, standard_compiler,
                                             simple_program_source):
        self._assert_engines_identical(
            standard_compiler.compile(simple_program_source).optimised_module)

    @ENGINES
    def test_execution_limit_still_enforced(self, engine,
                                            standard_compiler,
                                            simple_program_source):
        from repro.machine import ExecutionLimitExceeded
        result = standard_compiler.compile(simple_program_source)
        interp = Interpreter(result.optimised_module, max_ops=50,
                             engine=engine)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_main()
