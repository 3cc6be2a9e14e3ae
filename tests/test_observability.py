"""The observability layer: spans, metrics, exporters, run manifests.

ISSUE 4 tentpole.  The integration test at the bottom is the
acceptance criterion: a traced ``--jobs 2`` sweep yields a merged trace
containing worker-process spans whose per-stage totals match the
sweep's own cache counters exactly.
"""

import json
import os

import pytest

from repro import observability as obs
from repro.observability import (
    MetricsRegistry,
    Span,
    Tracer,
    export,
    manifest as manifest_mod,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    obs.uninstall()


class TestSpanTracer:
    def test_nesting_records_parentage(self):
        tracer = Tracer()
        with tracer.span("chain.run") as outer:
            with tracer.span("stage.slice") as inner:
                assert inner.parent_id == outer.span_id
        spans = tracer.drain()
        assert [s.name for s in spans] == ["stage.slice", "chain.run"] or \
            [s.name for s in spans] == ["chain.run", "stage.slice"]
        assert all(s.duration_s >= 0 for s in spans)
        assert all(s.pid == os.getpid() for s in spans)

    def test_escaping_exception_marks_outcome(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("stage.slice"):
                raise ValueError("degenerate")
        (span,) = tracer.drain()
        assert span.attrs["outcome"] == "error"
        assert span.attrs["error_type"] == "ValueError"

    def test_annotate_and_event_target_innermost(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.annotate(hit=True)
                tracer.event("fault", site="worker")
        spans = {s.name: s for s in tracer.drain()}
        assert spans["inner"].attrs["hit"] is True
        assert spans["inner"].events[0]["event"] == "fault"
        assert "hit" not in spans["outer"].attrs
        assert not spans["outer"].events

    def test_to_dict_roundtrip(self):
        tracer = Tracer()
        with tracer.span("x", a=1):
            tracer.event("e", k="v")
        (span,) = tracer.drain()
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()

    def test_adopt_merges_foreign_spans_and_metrics(self):
        """Worker spans shipped as dict rows land in the parent's
        buffer and feed its metrics registry."""
        worker = Tracer()
        with worker.span("cache.get", stage="slice"):
            worker.annotate(hit=False, tier="compute", run_s=0.1)
        rows = [s.to_dict() for s in worker.drain()]

        metrics = MetricsRegistry()
        parent = Tracer(metrics=metrics)
        assert parent.adopt(rows) == 1
        (adopted,) = parent.drain()
        assert adopted.attrs["tier"] == "compute"
        assert metrics.counter("cache.misses").value == 1

    def test_module_level_noop_without_tracer(self):
        assert not obs.enabled()
        with obs.span("anything") as span:
            assert span is None
        obs.annotate(hit=True)
        obs.event("fault")
        obs.inc("counter")
        obs.observe("hist", 1.0)  # all silently dropped

    def test_module_level_install_routes_spans(self):
        tracer = obs.install(Tracer(metrics=MetricsRegistry()))
        with obs.span("cache.get", stage="s"):
            obs.annotate(hit=True, tier="memory")
        obs.inc("custom.counter", 3)
        assert obs.uninstall() is tracer
        (span,) = tracer.drain()
        assert span.attrs["hit"] is True
        assert tracer.metrics.counter("cache.hits").value == 1
        assert tracer.metrics.counter("custom.counter").value == 3


class TestMetrics:
    def test_histogram_percentiles_nearest_rank(self):
        metrics = MetricsRegistry()
        for v in range(1, 101):
            metrics.observe("h", float(v))
        h = metrics.histogram("h")
        assert h.percentile(50) == 50.0
        assert h.percentile(90) == 90.0
        assert h.percentile(99) == 99.0
        assert h.summary()["max"] == 100.0

    def test_empty_histogram_summary(self):
        assert MetricsRegistry().histogram("h").summary() == {"count": 0}

    def test_merge_sums_counters_and_concatenates_samples(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2)
        b.inc("c", 3)
        a.observe("h", 1.0)
        b.observe("h", 3.0)
        b.set_gauge("g", 7.0)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.histogram("h").count == 2
        assert a.gauge("g").value == 7.0

    def test_render_and_to_dict(self):
        metrics = MetricsRegistry()
        metrics.inc("cache.hits", 4)
        metrics.observe("stage.slice.s", 0.25)
        text = "\n".join(metrics.render())
        assert "cache.hits" in text and "4" in text
        assert "stage.slice.s" in text
        payload = metrics.to_dict()
        assert payload["counters"]["cache.hits"] == 4
        assert payload["histograms"]["stage.slice.s"]["count"] == 1
        assert MetricsRegistry().render() == ["(no metrics recorded)"]


class TestExport:
    def _spans(self):
        tracer = Tracer()
        with tracer.span("cache.get", stage="slice"):
            tracer.annotate(hit=False, tier="compute", run_s=0.5)
        with tracer.span("cache.get", stage="slice"):
            tracer.annotate(hit=True, tier="memory")
        return tracer.drain()

    def test_jsonl_roundtrip_atomic(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        export.write_jsonl(self._spans(), path)
        rows = export.read_jsonl(path)
        assert len(rows) == 2
        for row in rows:
            assert export.validate_span_row(row) == []
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_validate_span_row_flags_problems(self):
        assert export.validate_span_row({}) != []
        good = self._spans()[0].to_dict()
        assert export.validate_span_row(good) == []
        bad = dict(good, duration_s=-1.0)
        assert any("negative" in p for p in export.validate_span_row(bad))

    def test_chrome_trace_structure(self):
        doc = export.chrome_trace(self._spans())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == 0.0

    def test_stage_totals_from_cache_get_spans(self):
        totals = export.stage_totals(self._spans())
        assert totals == {
            "slice": {"hits": 1, "misses": 1, "run_s": 0.5},
        }


class TestManifest:
    def _report(self):
        from repro.pipeline.cache import CacheStats
        from repro.pipeline.parallel import SweepCellResult, SweepReport

        report = SweepReport(jobs=2, wall_s=1.5)
        report.cells.append(SweepCellResult(
            resolution="Coarse", orientation="x-y",
            fingerprint="f" * 16, assessment=None, attempts=2,
        ))
        stats = CacheStats()
        entry = stats.stage("slice")
        entry.hits, entry.misses, entry.run_s = 1, 1, 0.5
        report.stats = stats
        return report

    def test_sweep_manifest_schema_and_counters(self):
        doc = manifest_mod.sweep_manifest(
            self._report(), model_name="bar", model_digest="d" * 12,
            config={"jobs": 2},
        )
        assert manifest_mod.validate_manifest(doc) == []
        assert doc["counters"]["cache_hits"] == 1
        assert doc["counters"]["retries"] == 1  # attempts=2 -> 1 retry
        assert doc["fingerprints"]["Coarse/x-y"] == "f" * 16
        assert doc["stages"]["_cache"] == {
            "integrity_failures": 0, "store_failures": 0,
            "zero_copy_hits": 0, "mmap_bytes": 0, "pickle_bytes": 0,
        }

    def test_write_read_roundtrip(self, tmp_path):
        doc = manifest_mod.sweep_manifest(self._report())
        path = tmp_path / "m" / "manifest.json"
        manifest_mod.write_manifest(doc, path)
        assert manifest_mod.read_manifest(path) == json.loads(
            json.dumps(doc)
        )

    def test_validate_flags_missing_blocks(self):
        problems = manifest_mod.validate_manifest({"schema": "nope"})
        assert any("missing top-level key" in p for p in problems)
        assert any("schema is" in p for p in problems)
        doc = manifest_mod.sweep_manifest(self._report())
        del doc["stages"]["_cache"]
        assert any("_cache" in p for p in manifest_mod.validate_manifest(doc))


class TestTracedSweepIntegration:
    """The ISSUE 4 acceptance criterion, end to end."""

    def test_parallel_sweep_merges_worker_spans(self, tmp_path):
        from repro.cad import COARSE
        from repro.obfuscade.obfuscator import Obfuscator
        from repro.obfuscade.quality import assess_print
        from repro.pipeline import ParallelSweep
        from repro.printer.orientation import PrintOrientation

        protected = Obfuscator(seed=7).protect_tensile_bar()
        tracer = obs.install(Tracer(metrics=MetricsRegistry()))
        try:
            report = ParallelSweep(
                jobs=2, cache_dir=str(tmp_path / "cache")
            ).run(
                protected.model, (COARSE,),
                (PrintOrientation.XY, PrintOrientation.XZ),
                assess=assess_print,
            )
        finally:
            obs.uninstall()
        assert report.ok

        spans = [s.to_dict() for s in tracer.drain()]
        # Worker-process spans were shipped back and merged: the trace
        # spans more than one pid.
        assert len({row["pid"] for row in spans}) >= 2
        names = {row["name"] for row in spans}
        assert {"sweep.run", "sweep.cell", "graph.run", "cache.get"} <= names

        # Span-derived per-stage totals match the report's own counters.
        totals = export.stage_totals(spans)
        for stage, entry in report.stats.stages.items():
            assert totals[stage]["hits"] == entry.hits, stage
            assert totals[stage]["misses"] == entry.misses, stage
            assert totals[stage]["run_s"] == pytest.approx(
                entry.run_s, abs=0.2
            ), stage

        # Metrics saw the adopted worker spans too.
        metrics = tracer.metrics
        assert metrics.counter("cache.hits").value == report.stats.total_hits
        assert (
            metrics.counter("cache.misses").value
            == report.stats.total_misses
        )
        assert metrics.counter("sweep.cells").value == len(report.cells)

        # And the manifest built from this run validates.
        doc = manifest_mod.sweep_manifest(
            report, model_name=protected.model.name,
            trace_spans=len(spans), metrics=metrics,
        )
        assert manifest_mod.validate_manifest(doc) == []
        assert doc["counters"]["cache_hits"] == report.stats.total_hits
