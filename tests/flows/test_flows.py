"""Flow registry behaviour: registration, options schemas, capability
checks, uniform FlowResults, and the acceptance criterion that a newly
registered flow is cacheable and measurable with zero service/adapter edits."""

import math

import pytest

from repro.compilers import CompilerAdapter
from repro.flows import (CapabilityError, ExecutionContext, Flow, FlowError,
                         FlowOption, FlowResult, OptionError, OptionsSchema,
                         available_flows, get_flow, register_flow, registered)
from repro.flows.builtin import OursFlow
from repro.service import ArtifactCache, CompileJob, CompileService, run_job
from repro.service import use_service
from repro.workloads import get_workload


class TestRegistry:
    def test_builtin_flows_are_registered(self):
        assert set(available_flows()) >= {"flang", "ours"}

    def test_get_flow_unknown_names_alternatives(self):
        with pytest.raises(FlowError, match="flang.*ours|ours.*flang"):
            get_flow("definitely-not-a-flow")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(FlowError, match="already registered"):
            register_flow(OursFlow())

    def test_temporary_registration_cleans_up(self):
        class TmpFlow(Flow):
            name = "tmp-flow"

        with registered(TmpFlow):
            assert "tmp-flow" in available_flows()
        assert "tmp-flow" not in available_flows()

    def test_unnamed_flow_rejected(self):
        class Nameless(Flow):
            pass

        with pytest.raises(FlowError, match="no name"):
            register_flow(Nameless())

    def test_builtin_collision_fails_cleanly_without_poisoning_lookup(self):
        # even in a fresh process where no lookup has loaded the builtins
        # yet, registering over a builtin name must fail immediately and
        # leave the registry fully usable
        class Impostor(Flow):
            name = "flang"

        with pytest.raises(FlowError, match="already registered"):
            register_flow(Impostor())
        assert set(available_flows()) >= {"flang", "ours"}
        assert get_flow("ours") is not None


class TestOptionsSchema:
    schema = OptionsSchema(
        FlowOption("width", int, 4, "a width"),
        FlowOption("fast", bool, False),
        FlowOption("factor", float, 1.0),
    )

    def test_defaults_fill_in(self):
        assert self.schema.coerce({}) == {"width": 4, "fast": False,
                                          "factor": 1.0}

    def test_values_are_type_coerced(self):
        out = self.schema.coerce({"width": "8", "fast": "true",
                                  "factor": 2})
        assert out == {"width": 8, "fast": True, "factor": 2.0}
        assert isinstance(out["factor"], float)

    def test_dashes_normalise(self):
        assert self.schema.coerce({"width": 2})["width"] == 2

    def test_unknown_option_strict_raises_with_names(self):
        with pytest.raises(OptionError, match="width"):
            self.schema.coerce({"nope": 1})

    def test_unknown_option_lenient_drops(self):
        assert self.schema.coerce({"nope": 1}, strict=False) == \
            self.schema.defaults()

    def test_bad_type_raises(self):
        with pytest.raises(OptionError, match="width"):
            self.schema.coerce({"width": "many"})
        with pytest.raises(OptionError, match="fast"):
            self.schema.coerce({"fast": "maybe"})


class TestBuiltinFlows:
    def test_flang_rejects_openacc(self):
        from repro.workloads import pw_advection
        flow = get_flow("flang")
        with pytest.raises(Exception, match="acc dialect"):
            flow.run(pw_advection(openacc=True))

    def test_ours_normalises_derived_options(self):
        flow = get_flow("ours")
        workload = get_workload("dotproduct")
        opts = flow.normalise_options({}, workload, ExecutionContext(threads=8))
        assert opts["parallelise"] is True
        assert opts["vector_width"] == 4

    def test_ours_pipeline_is_nested_and_tunable(self):
        flow = get_flow("ours")
        workload = get_workload("dotproduct")
        opts = flow.normalise_options({"vector_width": 8}, workload,
                                      ExecutionContext())
        pm = flow.pipeline(opts)
        text = pm.describe()
        assert text.startswith("builtin.module(func.func(")
        assert "affine-super-vectorize{virtual-vector-size=8}" in text

    def test_flow_results_are_uniform(self):
        workload = get_workload("dotproduct")
        for name in ("flang", "ours"):
            result = get_flow(name).run(workload)
            assert isinstance(result, FlowResult)
            assert result.ok
            assert result.module is result.stages[result.stage_names[-1]] or \
                result.module is not None
            assert "hlfir" in result.stage_names
            assert result.timing is not None and result.timing.timings

    def test_flow_run_records_timing_report(self):
        result = get_flow("ours").run(get_workload("sum"))
        names = [t.pass_name for t in result.timing.timings]
        assert "canonicalize" in names
        assert result.pipeline.startswith("builtin.module(")


class NoOptFlow(Flow):
    """The acceptance-criterion flow: ours, with every optimisation off."""

    name = "ours-noopt"
    description = "standard flow with optimisation disabled"
    schema = OptionsSchema()

    def compile(self, workload, options, execution, **kw):
        from repro.core import StandardMLIRCompiler
        compiler = StandardMLIRCompiler(vector_width=0)
        return compiler.compile(workload.source(scaled=True))


class TestNewFlowNeedsNoServiceEdits:
    """Registering a flow must make it cacheable and measurable as-is."""

    def test_distinct_cache_keys(self):
        with registered(NoOptFlow):
            noopt = CompileJob("ours-noopt", "dotproduct").key()
            ours = CompileJob("ours", "dotproduct").key()
            flang = CompileJob("flang", "dotproduct").key()
        assert len({noopt, ours, flang}) == 3

    def test_service_executes_and_caches_the_new_flow(self):
        service = CompileService(ArtifactCache())
        with registered(NoOptFlow):
            first = service.execute(CompileJob("ours-noopt", "dotproduct"))
            second = service.execute(CompileJob("ours-noopt", "dotproduct"))
        assert first.ok and second.ok
        assert second.cached and service.recompilations == 1
        assert first.flow == "ours-noopt"

    def test_custom_flow_batches_stay_in_process(self):
        # the flow registry is per-process: a pool worker would not know
        # ours-noopt, so batch submission must execute it in-process and
        # still populate the submitter's key
        service = CompileService(ArtifactCache(), max_workers=4)
        with registered(NoOptFlow):
            job = CompileJob("ours-noopt", "dotproduct")
            report = service.submit([job, CompileJob("ours-noopt", "sum")])
            assert report.executed == 2
            assert report.pool_executed == 0
            assert not report.failures
            assert service.cache.contains(job.key())

    def test_harness_measurement_via_generic_adapter(self):
        workload = get_workload("dotproduct")
        service = CompileService(ArtifactCache())
        with registered(NoOptFlow), use_service(service):
            measurement = CompilerAdapter(flow="ours-noopt").measure(workload)
        assert measurement.compiled
        assert math.isfinite(measurement.runtime_s)

    def test_unknown_flow_is_a_cacheable_failure(self):
        service = CompileService(ArtifactCache())
        job = CompileJob("no-such-flow", "dotproduct")
        first = service.execute(job)
        second = service.execute(CompileJob("no-such-flow", "dotproduct"))
        assert not first.ok and not second.ok
        assert "no-such-flow" in first.error
        assert "flang" in first.error  # the error names the registered flows
        assert second.cached and service.recompilations == 1

    def test_flow_result_error_becomes_a_failure_artifact(self):
        # a flow that encodes failure in the result (instead of raising)
        # must not be cached as a success built from a partial stage
        class ErrFlow(Flow):
            name = "err-flow"

            def compile(self, workload, options, execution, **kw):
                from repro.flang import FlangCompiler
                return FlangCompiler().compile(workload.source(scaled=True))

        from repro.workloads import pw_advection
        with registered(ErrFlow):
            artifact = run_job(CompileJob("err-flow", "pw-advection",
                                          workload=pw_advection(openacc=True)))
        assert not artifact.ok
        assert "acc" in artifact.error and "dialect" in artifact.error

    def test_run_job_unknown_flow_artifact(self):
        artifact = run_job(CompileJob("no-such-flow", "dotproduct"))
        assert not artifact.ok
        assert artifact.key == CompileJob("no-such-flow",
                                          "dotproduct").safe_key()
        assert "unknown compiler flow" in artifact.error


class TestEngineNameSync:
    def test_flows_engines_match_interpreter_engine_names(self):
        """flows.ENGINES and machine's ENGINE_NAMES cannot import each other
        (cycle through the flang driver); this asserts they stay in sync,
        including the order — the first entry is the oracle's baseline."""
        from repro.flows import ENGINES
        from repro.machine.interpreter import ENGINE_NAMES
        assert tuple(ENGINES) == tuple(ENGINE_NAMES)
        assert ENGINES[0] == "compiled"

    def test_stale_engine_name_is_a_declared_error_everywhere(self, capsys):
        """Old clients and scripts may still ask for the retired whole-array
        engine; every entry point rejects the name with the same message."""
        from repro.conformance.__main__ import main as conformance_main
        from repro.dialects.builtin import ModuleOp
        from repro.machine import Interpreter, InterpreterError

        stale = "vector"
        message = ("unknown interpreter engine 'vector' "
                   "(known: compiled, reference, jit)")

        service = CompileService(ArtifactCache())
        report = service.submit([CompileJob("ours", "dotproduct",
                                            engine=stale)])
        assert report.failures == [("dotproduct", f"FlowError: {message}")]

        with pytest.raises(InterpreterError) as excinfo:
            Interpreter(ModuleOp([]), engine=stale)
        assert str(excinfo.value) == message

        with pytest.raises(SystemExit) as excinfo:
            conformance_main(["run", "--engines", stale, "--no-daemon"])
        assert excinfo.value.code == 2
        assert f"argument --engines: {message}" in capsys.readouterr().err
