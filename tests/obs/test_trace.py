"""Tracer semantics: JSON-lines schema, span nesting and ordering,
summaries, and the disabled null-object path."""

import asyncio
import json
import os
import threading

import pytest

from repro.obs.trace import (NULL_SPAN, NULL_TRACER, disable_tracing,
                             enable_tracing, tracer, tracing_enabled)

SCHEMA_KEYS = {"name", "span", "ts", "dur", "pid", "parent", "attrs"}
REQUIRED_KEYS = {"name", "span", "ts", "dur", "pid"}


def read_lines(path):
    with open(path) as handle:
        return [json.loads(line) for line in handle]


@pytest.fixture
def sink(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    enable_tracing(path)
    yield path
    disable_tracing()


class TestDisabled:
    def test_null_tracer_by_default(self):
        assert tracer() is NULL_TRACER
        assert not tracing_enabled()

    def test_null_spans_are_inert(self):
        span = tracer().start_span("anything", k=1)
        assert span is NULL_SPAN
        span.set(x=2)
        span.finish()
        with tracer().span("scoped"):
            pass
        assert tracer().summary() == {}


class TestEnable:
    def test_enable_exports_env_for_workers(self, sink):
        assert tracing_enabled()
        assert os.environ["REPRO_TRACE"] == sink

    def test_disable_clears_env(self, sink):
        disable_tracing()
        assert "REPRO_TRACE" not in os.environ
        assert not tracing_enabled()

    def test_reenable_same_path_keeps_tracer(self, sink):
        first = tracer()
        assert enable_tracing(sink) is first


class TestSchema:
    def test_line_schema_round_trips(self, sink):
        with tracer().span("alpha", key="value"):
            pass
        (line,) = read_lines(sink)
        assert REQUIRED_KEYS <= set(line) <= SCHEMA_KEYS
        assert line["name"] == "alpha"
        assert line["attrs"] == {"key": "value"}
        assert line["pid"] == os.getpid()
        pid, seq = line["span"].split(":")
        assert int(pid) == os.getpid() and int(seq) >= 1
        assert line["dur"] >= 0

    def test_every_line_is_standalone_json(self, sink):
        for index in range(3):
            with tracer().span("s", i=index):
                pass
        assert [line["attrs"]["i"] for line in read_lines(sink)] == [0, 1, 2]


class TestNesting:
    def test_child_records_parent_and_finishes_first(self, sink):
        with tracer().span("outer") as outer:
            with tracer().span("inner"):
                pass
        inner_line, outer_line = read_lines(sink)
        assert inner_line["name"] == "inner"
        assert inner_line["parent"] == outer.span_id
        assert outer_line["name"] == "outer"
        assert "parent" not in outer_line

    def test_explicit_span_outlives_scope(self, sink):
        held = tracer().start_span("held")
        with tracer().span("sibling"):
            pass
        held.finish(done=True)
        names = [line["name"] for line in read_lines(sink)]
        assert names == ["sibling", "held"]

    def test_sibling_nests_under_held_span(self, sink):
        held = tracer().start_span("held")
        with tracer().span("child"):
            pass
        held.finish()
        child_line, _ = read_lines(sink)
        assert child_line["parent"] == held.span_id

    def test_out_of_order_finish_leaves_no_stale_parent(self, sink):
        outer = tracer().start_span("outer")
        inner = tracer().start_span("inner")
        outer.finish()
        inner.finish()
        with tracer().span("after"):
            pass
        assert "parent" not in read_lines(sink)[-1]


class TestConcurrency:
    """Nesting follows the running context: concurrent asyncio tasks on
    one thread are independent, and so are threads."""

    def test_concurrent_asyncio_spans_are_roots(self, sink):
        async def request(index):
            with tracer().span("serve.request", index=index):
                await asyncio.sleep(0.01)
                with tracer().span("serve.compile"):
                    await asyncio.sleep(0)

        async def main():
            await asyncio.gather(*(request(i) for i in range(3)))

        asyncio.run(main())
        lines = read_lines(sink)
        requests = {line["span"]: line for line in lines
                    if line["name"] == "serve.request"}
        assert len(requests) == 3
        assert all("parent" not in line for line in requests.values())
        compiles = [line for line in lines if line["name"] == "serve.compile"]
        assert len(compiles) == 3
        # Each nested span parents to its own task's request.
        assert {line["parent"] for line in compiles} == set(requests)
        for line in compiles:
            assert line["ts"] >= requests[line["parent"]]["ts"]

    def test_task_inherits_the_span_open_at_creation(self, sink):
        async def child():
            with tracer().span("child"):
                pass

        async def main():
            with tracer().span("parent") as parent:
                await asyncio.create_task(child())
            return parent.span_id

        parent_id = asyncio.run(main())
        child_line = read_lines(sink)[0]
        assert child_line["parent"] == parent_id

    def test_threads_nest_independently(self, sink):
        started = threading.Barrier(2)

        def work(name):
            with tracer().span(name):
                started.wait(timeout=5)
                with tracer().span(name + ".inner"):
                    pass

        with tracer().span("main"):
            threads = [threading.Thread(target=work, args=(f"t{i}",))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        lines = {line["name"]: line for line in read_lines(sink)}
        assert "parent" not in lines["t0"] and "parent" not in lines["t1"]
        assert lines["t0.inner"]["parent"] == lines["t0"]["span"]
        assert lines["t1.inner"]["parent"] == lines["t1"]["span"]
        assert "parent" not in lines["main"]


class TestAttrs:
    def test_set_and_finish_attrs_merge(self, sink):
        span = tracer().start_span("s", a=1)
        span.set(b=2)
        span.finish(c=3)
        (line,) = read_lines(sink)
        assert line["attrs"] == {"a": 1, "b": 2, "c": 3}

    def test_exception_sets_error_attr(self, sink):
        with pytest.raises(RuntimeError):
            with tracer().span("failing"):
                raise RuntimeError("boom")
        (line,) = read_lines(sink)
        assert line["attrs"]["error"] == "RuntimeError"

    def test_double_finish_emits_once(self, sink):
        span = tracer().start_span("once")
        span.finish()
        span.finish()
        assert len(read_lines(sink)) == 1


class TestSummary:
    def test_counts_and_totals_per_name(self, sink):
        for _ in range(3):
            with tracer().span("hot"):
                pass
        with tracer().span("cold"):
            pass
        summary = tracer().summary()
        assert summary["hot"]["count"] == 3
        assert summary["cold"]["count"] == 1
        assert summary["hot"]["total_s"] >= 0
