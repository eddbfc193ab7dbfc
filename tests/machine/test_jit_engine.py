"""Trace-compiling jit engine corners.

The registry-wide parity suite (``test_engine_parity``) covers the broad
guarantee; these tests target the jit's *generator* mechanics specifically:
loop-body inlining (upward, downward, runtime-sign and zero-trip loops),
structured-if inlining with results, fallback thunks embedded inside
generated loops (calls, runtime intrinsics), env-residency of values that
cross the generated/fallback boundary, and the execution limit firing from
inside an inlined loop.
"""

import pytest

from repro.core import StandardMLIRCompiler
from repro.flang import FlangCompiler
from repro.machine import ExecutionLimitExceeded, Interpreter
from repro.service.serialization import stats_to_dict


def _compile_fir(source: str):
    return FlangCompiler().compile(source, stop_at="fir").fir_module


def _compile_ours(source: str):
    return StandardMLIRCompiler(vector_width=4).compile(source).optimised_module


def _assert_jit_identical(module):
    reference = Interpreter(module, engine="reference")
    reference.run_main()
    jit = Interpreter(module, engine="jit")
    jit.run_main()
    assert jit.printed == reference.printed
    assert stats_to_dict(jit.stats) == stats_to_dict(reference.stats)
    return jit


def _program(body: str) -> str:
    return f"program p\n  implicit none\n{body}\nend program p\n"


class TestLoopInlining:
    def test_upward_do_loop_with_reduction(self):
        source = _program("""
  integer :: i
  real(kind=8) :: total
  total = 0.0d0
  do i = 1, 100
    total = total + real(i, 8)
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "5050.0"

    def test_downward_do_loop_negative_step(self):
        source = _program("""
  integer :: i, total
  total = 0
  do i = 10, 1, -1
    total = total + i
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "55"

    def test_zero_trip_loop(self):
        source = _program("""
  integer :: i, total
  total = 7
  do i = 5, 1
    total = total + 1000
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "7"

    def test_runtime_step_sign(self):
        """A step held in a variable: the jit cannot specialize the loop
        direction at generate time and must pick it at run time."""
        source = _program("""
  integer :: i, st, total
  total = 0
  st = -2
  do i = 9, 1, st
    total = total + i
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "25"

    def test_nested_loops_with_array_accesses(self):
        source = _program("""
  integer :: i, j
  real(kind=8), dimension(8, 8) :: a
  real(kind=8) :: total
  total = 0.0d0
  do j = 1, 8
    do i = 1, 8
      a(i, j) = real(i * j, 8)
    end do
  end do
  do j = 1, 8
    do i = 1, 8
      total = total + a(i, j)
    end do
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_jit_identical(module)


class TestStructuredIfInlining:
    def test_if_else_inside_loop(self):
        source = _program("""
  integer :: i, evens, odds
  evens = 0
  odds = 0
  do i = 1, 20
    if (mod(i, 2) == 0) then
      evens = evens + 1
    else
      odds = odds + 1
    end if
  end do
  print *, evens, odds
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].split() == ["10", "10"]

    def test_untaken_arm_loop_hoist_does_not_leak(self):
        """Regression: a loop inside an if-arm hoists env reads into the
        arm-local preheader; values registered there must not shadow env
        reads emitted *after* the if, or the untaken-arm path crashes with
        UnboundLocalError."""
        source = """
subroutine work(flag, x)
  implicit none
  integer, intent(in) :: flag
  integer, intent(inout) :: x
  integer :: i
  if (flag > 0) then
    do i = 1, 3
      x = x + i
    end do
  end if
  x = x + 1
end subroutine work

program p
  implicit none
  integer :: x
  x = 1
  call work(0, x)
  print *, x
  call work(1, x)
  print *, x
end program p
"""
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert [line.strip() for line in jit.printed] == ["2", "9"]

    def test_conditional_exit_falls_back_cleanly(self):
        """EXIT desugars to guarded control flow; whatever shape the flows
        produce, the jit must stay bit-identical to the reference."""
        source = _program("""
  integer :: i, total
  total = 0
  do i = 1, 100
    total = total + i
    if (total > 50) then
      exit
    end if
  end do
  print *, i, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_jit_identical(module)


class TestFallbackInsideGeneratedCode:
    def test_call_inside_inlined_loop(self):
        """func.call is a fallback thunk; its operands/results must cross
        the generated-code boundary through env."""
        source = """
subroutine double_it(x, y)
  implicit none
  integer, intent(in) :: x
  integer, intent(out) :: y
  y = 2 * x
end subroutine double_it

program p
  implicit none
  integer :: i, r, total
  total = 0
  do i = 1, 10
    call double_it(i, r)
    total = total + r
  end do
  print *, total
end program p
"""
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
            assert jit.printed[-1].strip() == "110"

    def test_intrinsic_reduction_inside_loop(self):
        source = _program("""
  integer :: i
  real(kind=8), dimension(16) :: v
  real(kind=8) :: total
  total = 0.0d0
  do i = 1, 16
    v(i) = real(i, 8)
  end do
  do i = 1, 4
    total = total + sum(v)
  end do
  print *, total
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            _assert_jit_identical(module)


class TestGeneratorMechanics:
    def test_loop_bodies_are_inlined_as_while_loops(self):
        source = _program("""
  integer :: i
  real(kind=8) :: total
  total = 0.0d0
  do i = 1, 50
    total = total + real(i, 8)
  end do
  print *, total
""")
        module = _compile_fir(source)
        jit = Interpreter(module, engine="jit")
        jit.run_main()
        sources = [fn.__jit_source__ for fn, _ in jit._jit.cache.values()]
        assert any("while " in text for text in sources)
        # deferred stats: counters are integer locals flushed via _ctx_counts
        assert any("_ctx_counts" in text for text in sources)

    def test_engine_name_is_validated(self):
        from repro.dialects.builtin import ModuleOp
        with pytest.raises(Exception):
            Interpreter(ModuleOp([]), engine="turbo")

    def test_static_trip_count_on_static_and_runtime_bounds(self):
        """Constant bounds fold to a trip count (which sizes the
        translate-on-first-entry estimate); a runtime bound yields None."""
        from repro.dialects import arith, scf
        from repro.ir import Block
        from repro.ir import types as T
        from repro.machine.jit import static_trip_count

        def loop(trips):
            block = Block()
            lo = arith.ConstantOp(0, T.index)
            hi = arith.ConstantOp(trips, T.index)
            st = arith.ConstantOp(1, T.index)
            block.add_ops([lo, hi, st])
            op = scf.ForOp(lo.result, hi.result, st.result)
            block.add_op(op)
            op.regions[0].blocks[0].add_op(scf.YieldOp())
            return op

        assert static_trip_count(loop(8)) == 8
        assert static_trip_count(loop(8192)) == 8192

        # runtime bounds (block arguments) have no static trip count
        block = Block()
        arg = block.add_argument(T.index)
        st = arith.ConstantOp(1, T.index)
        block.add_op(st)
        op = scf.ForOp(st.result, arg, st.result)
        block.add_op(op)
        op.regions[0].blocks[0].add_op(scf.YieldOp())
        assert static_trip_count(op) is None

    def test_execution_limit_fires_inside_inlined_loop(self):
        source = _program("""
  integer :: i
  real(kind=8) :: total
  total = 0.0d0
  do i = 1, 100000
    total = total + 1.0d0
  end do
  print *, total
""")
        module = _compile_fir(source)
        interp = Interpreter(module, max_ops=200, engine="jit")
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_main()

    def test_parallel_context_stats_survive_stride_flushes(self):
        """Regression: a unit whose last inlined-loop iteration lands exactly
        on a stride-check boundary exits with ``_t == 0``; the exit flush
        must still move the accumulated category counters into the (parallel)
        context Counter.  Caught by table4 regeneration diverging on jit."""
        from repro.flows import get_flow
        from repro.workloads import get_workload

        workload = get_workload("pw-advection", openmp=True)
        module = get_flow("flang").run(workload).module
        _assert_jit_identical(module)

    def test_division_semantics_inside_generated_loops(self):
        """divsi/remsi corners run through generated code, not thunks."""
        source = _program("""
  integer :: i, q, r
  do i = -3, 3
    q = i / 2
    r = mod(i, 2)
    print *, q, r
  end do
""")
        for module in (_compile_fir(source), _compile_ours(source)):
            jit = _assert_jit_identical(module)
        # spot-check LLVM trunc semantics on the last flow's output
        assert jit.printed[0].split() == ["-1", "-1"]
