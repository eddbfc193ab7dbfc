"""Registry-wide cross-engine stats parity.

PR 3 spot-checked one polyhedron kernel and one stencil; this extends the
guarantee to **every registered workload family** (and the conformance
generator's family) and to **all registered engines**: the cached-dispatch
engine, the trace-compiling jit engine and the one-op reference engine
must produce bit-identical :class:`ExecutionStats` and printed output for
the same compiled module.  ``TestKernelShapes`` adds small loop shapes that
stress the engines' loop handling (zero-trip, negative-step and
runtime-bound loops, nests, fallbacks inside a nest, and accumulation
under an outer loop).
"""

from functools import lru_cache

import pytest

from repro.core import StandardMLIRCompiler
from repro.flang import FlangCompiler
from repro.flows import ENGINES, get_flow
from repro.machine import ExecutionLimitExceeded, Interpreter
from repro.service.serialization import stats_to_dict
from repro.workloads import all_workloads, get_workload


def _families():
    """One representative per category: the smallest kernel by modelled work."""
    by_category = {}
    for workload in all_workloads():
        by_category.setdefault(workload.category, []).append(workload)
    return sorted(
        (category,
         min(members,
             key=lambda w: w.work_model(dict(w.interp_params))).name)
        for category, members in by_category.items())


FAMILIES = _families()


def _assert_engines_identical(module):
    reference = Interpreter(module, engine="reference")
    reference.run_main()
    for engine in ENGINES:
        if engine == "reference":
            continue
        other = Interpreter(module, engine=engine)
        other.run_main()
        assert other.printed == reference.printed, engine
        assert stats_to_dict(other.stats) == \
            stats_to_dict(reference.stats), engine
        assert not other.stats.diff(reference.stats), engine


class TestEngineParityAcrossRegistry:
    def test_every_category_is_covered(self):
        assert [category for category, _ in FAMILIES] == \
            ["intrinsic", "polyhedron", "stencil"]

    @pytest.mark.parametrize(("category", "name"), FAMILIES,
                             ids=[c for c, _ in FAMILIES])
    def test_family_representative_flang_flow(self, category, name):
        result = get_flow("flang").run(get_workload(name))
        _assert_engines_identical(result.module)

    @pytest.mark.parametrize(("category", "name"), FAMILIES,
                             ids=[c for c, _ in FAMILIES])
    def test_family_representative_ours_flow(self, category, name):
        result = get_flow("ours").run(get_workload(name))
        _assert_engines_identical(result.module)

    def test_conformance_family_representative(self):
        workload = get_workload("conformance/0")
        for flow in ("flang", "ours"):
            _assert_engines_identical(get_flow(flow).run(workload).module)


def _program(body: str) -> str:
    return f"program p\n  implicit none\n{body}\nend program p\n"


#: name -> (program body, expected last printed line or None)
SHAPES = {
    "elementwise_nest": ("""
  integer :: i
  real(kind=8), dimension(64) :: a, b
  do i = 1, 64
    a(i) = real(i, 8)
  end do
  do i = 1, 64
    b(i) = a(i) * 2.0d0 + 1.0d0
  end do
  print *, b(1), b(64)
""", None),
    "zero_trip_loop": ("""
  integer :: i
  real(kind=8), dimension(8) :: a
  a = 3.0d0
  do i = 5, 1
    a(i) = 1000.0d0
  end do
  print *, a(1)
""", "3.0"),
    "negative_step_loop": ("""
  integer :: i
  real(kind=8), dimension(16) :: a
  do i = 16, 1, -1
    a(i) = real(i * i, 8)
  end do
  print *, a(1), a(16)
""", None),
    # bounds held in variables: trip counts are only known at run time
    "runtime_bound_loop": ("""
  integer :: i, n
  real(kind=8), dimension(32) :: a
  real(kind=8) :: total
  n = 27
  total = 0.0d0
  do i = 1, n
    a(i) = real(i, 8) * 0.5d0
  end do
  do i = 1, n
    total = total + a(i)
  end do
  print *, total
""", None),
    "nested_stencil": ("""
  integer :: i, j
  real(kind=8), dimension(12, 12) :: a, b
  do j = 1, 12
    do i = 1, 12
      a(i, j) = real(i + j, 8)
    end do
  end do
  b = 0.0d0
  do j = 2, 11
    do i = 2, 11
      b(i, j) = 0.25d0 * (a(i-1, j) + a(i+1, j) + a(i, j-1) + a(i, j+1))
    end do
  end do
  print *, b(2, 2), b(11, 11)
""", None),
    # an intrinsic call in the loop body runs on fallback thunks
    "fallback_inside_nest": ("""
  integer :: i
  real(kind=8), dimension(16) :: a
  real(kind=8) :: s
  do i = 1, 16
    a(i) = sqrt(real(i, 8))
  end do
  s = 0.0d0
  do i = 1, 16
    s = s + a(i)
  end do
  print *, s
""", None),
    # a few static iterations and a long static loop: both ends of the
    # trip counts known at compile time
    "tiny_static_nest": ("""
  integer :: i
  real(kind=8), dimension(8) :: a
  do i = 1, 8
    a(i) = real(i, 8) * 2.0d0
  end do
  print *, a(1), a(8)
""", "2.0 16.0"),
    "large_static_nest": ("""
  integer :: i
  real(kind=8), dimension(4096) :: a
  do i = 1, 4096
    a(i) = real(i, 8) * 2.0d0
  end do
  print *, a(1), a(4096)
""", "2.0 8192.0"),
    # a scalar reset in the outer body and accumulated in the inner loop
    "scalar_accumulation_under_outer_loop": ("""
  integer :: i, k
  real(kind=8), dimension(8) :: a
  real(kind=8) :: s
  do i = 1, 8
    a(i) = real(i, 8)
  end do
  do k = 1, 2
    s = 0.0d0
    do i = 1, 8
      s = s + a(i)
    end do
    print *, s
  end do
""", "36.0"),
    # each outer iteration must read the previous iteration's stores
    "array_read_modify_write_under_outer_loop": ("""
  integer :: i, k
  real(kind=8), dimension(8) :: a
  a = 1.0d0
  do k = 1, 3
    do i = 1, 8
      a(i) = a(i) + real(k, 8)
    end do
  end do
  print *, a(1), a(8)
""", "7.0 7.0"),
}


@lru_cache(maxsize=None)
def _shape_modules(name):
    source = _program(SHAPES[name][0])
    return (FlangCompiler().compile(source, stop_at="fir").fir_module,
            StandardMLIRCompiler(vector_width=4).compile(source)
            .optimised_module)


class TestKernelShapes:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shape_matches_reference(self, shape, engine):
        expected = SHAPES[shape][1]
        for module in _shape_modules(shape):
            reference = Interpreter(module, engine="reference")
            reference.run_main()
            other = Interpreter(module, engine=engine)
            other.run_main()
            assert other.printed == reference.printed
            assert stats_to_dict(other.stats) == stats_to_dict(reference.stats)
            if expected is not None:
                assert " ".join(other.printed[-1].split()) == expected

    @pytest.mark.parametrize("engine", ENGINES)
    def test_execution_limit_fires_inside_a_nest(self, engine):
        """The op budget is charged inside a loop nest too: a nest whose
        cost exceeds ``max_ops`` must raise on every engine."""
        source = _program("""
  integer :: i
  real(kind=8), dimension(1000) :: a
  do i = 1, 1000
    a(i) = real(i, 8) * 3.0d0
  end do
  print *, a(1000)
""")
        module = FlangCompiler().compile(source, stop_at="fir").fir_module
        interp = Interpreter(module, max_ops=200, engine=engine)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run_main()


class TestStatsDiff:
    def test_diff_is_empty_for_identical_stats(self):
        from repro.machine import ExecutionStats
        assert ExecutionStats().diff(ExecutionStats()) == []

    def test_diff_does_not_mutate_either_side(self):
        from repro.machine import ExecutionStats
        from repro.service.serialization import stats_to_dict
        a, b = ExecutionStats(), ExecutionStats()
        b.bump("gpu", "x")
        before_a, before_b = stats_to_dict(a), stats_to_dict(b)
        a.diff(b)
        assert "gpu" not in a.counts
        assert stats_to_dict(a) == before_a and stats_to_dict(b) == before_b

    def test_diff_names_the_diverging_field(self):
        from repro.machine import ExecutionStats
        a, b = ExecutionStats(), ExecutionStats()
        a.bump("serial", "arith")
        b.bump("parallel", "mem")
        b.runtime_calls["_FortranASumReal8"] += 1
        details = a.diff(b)
        text = "\n".join(details)
        assert "counts[serial][arith]" in text
        assert "counts[parallel][mem]" in text
        assert "runtime_calls[_FortranASumReal8]" in text
