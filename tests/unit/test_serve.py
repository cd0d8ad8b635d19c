"""Unit tests for the HTTP serving layer's codecs, job registry and the
service-side cancellation plumbing it leans on."""

import datetime
import threading

import pytest

import repro.core.cuboid as cuboid_module
from repro.core.cuboid import SCuboid
from repro.core.stats import QueryStats
from repro.obs.spans import NULL_SPAN, Tracer, span
from repro.errors import (
    QueryCancelledError,
    QueryNotFoundError,
    QueryTimeoutError,
    ServiceOverloadedError,
)
from repro.serve import JobRegistry, codecs
from repro.service import QueryService
from repro.service.deadline import CancelScope, CancelToken, Deadline
from tests.conftest import figure8_spec, make_figure8_db


@pytest.fixture()
def service():
    svc = QueryService(make_figure8_db())
    yield svc
    svc.shutdown()


@pytest.fixture()
def spec():
    return figure8_spec(("A", "B"))


# ----------------------------------------------------------------------
# CancelToken / CancelScope
# ----------------------------------------------------------------------
class TestCancelPrimitives:
    def test_token_check_is_noop_until_cancelled(self):
        token = CancelToken()
        token.check()
        assert not token.cancelled
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        with pytest.raises(QueryCancelledError):
            token.check()

    def test_scope_without_token_is_the_plain_deadline(self):
        deadline = Deadline(5.0)
        assert CancelScope.wrap(deadline, None) is deadline
        assert CancelScope.wrap(None, None) is None

    def test_scope_fuses_token_and_deadline(self):
        token = CancelToken()
        scope = CancelScope.wrap(Deadline(30.0), token)
        scope.check()
        assert scope.budget_seconds == 30.0
        assert scope.remaining() > 0
        assert not scope.expired()
        token.cancel()
        with pytest.raises(QueryCancelledError):
            scope.check()

    def test_scope_cancel_beats_expired_deadline(self):
        token = CancelToken()
        token.cancel()
        scope = CancelScope.wrap(Deadline(1e-9), token)
        # Both tripped: the explicit cancel wins the race deliberately.
        with pytest.raises(QueryCancelledError):
            scope.check()

    def test_unbounded_scope_reports_no_deadline(self):
        scope = CancelScope.wrap(None, CancelToken())
        assert scope.budget_seconds is None
        assert scope.remaining() is None
        assert scope.elapsed() == 0.0
        assert not scope.expired()
        scope.check()

    def test_expired_deadline_still_raises_through_scope(self):
        scope = CancelScope.wrap(Deadline(1e-9), CancelToken())
        with pytest.raises(QueryTimeoutError):
            scope.check()


# ----------------------------------------------------------------------
# Service-side cancellation
# ----------------------------------------------------------------------
class TestServiceCancel:
    def test_cancel_while_waiting_for_engine_lock(self, service, spec):
        """A cancel that lands while the query is queued is observed."""
        token = CancelToken()
        errors = []
        started = threading.Event()

        def run():
            started.set()
            try:
                service.execute(spec, cancel=token)
            except Exception as error:  # noqa: BLE001 - collected for assert
                errors.append(error)

        with service._engine_lock:
            thread = threading.Thread(target=run)
            thread.start()
            started.wait(5.0)
            token.cancel()
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(errors) == 1
        assert isinstance(errors[0], QueryCancelledError)
        assert service.metrics["cancelled_total"] == 1

    def test_uncancelled_token_does_not_disturb_query(self, service, spec):
        cuboid, stats = service.execute(spec, cancel=CancelToken())
        plain, __ = service.engine.execute(spec)
        assert cuboid.to_dict() == plain.to_dict()
        assert service.metrics["cancelled_total"] == 0

    def test_stream_query_final_matches_blocking_path(self, service, spec):
        estimates = list(service.stream_query(spec, chunk_size=1))
        assert len(estimates) >= 2
        assert estimates[-1].is_final
        cuboid, __ = service.execute(spec)
        assert estimates[-1].partial.to_dict() == cuboid.to_dict()
        assert service.metrics["streams_total"] == 1
        assert service.metrics["stream_chunks_total"] == len(estimates)

    def test_stream_cancel_mid_flight(self, service, spec):
        token = CancelToken()
        stream = service.stream_query(spec, chunk_size=1, cancel=token)
        first = next(stream)
        assert not first.is_final
        token.cancel()
        with pytest.raises(QueryCancelledError):
            next(stream)
        assert service.metrics["cancelled_total"] == 1
        # The execution slot must have been released.
        assert service.inflight == 0

    def test_abandoned_stream_releases_slot_and_counts_cancel(
        self, service, spec
    ):
        stream = service.stream_query(spec, chunk_size=1)
        next(stream)
        stream.close()  # what the HTTP layer does on client disconnect
        assert service.metrics["cancelled_total"] == 1
        assert service.inflight == 0

    def test_session_stream_records_final_cuboid(self, service, spec):
        session_id = service.open_session(spec)
        estimates = list(service.session_stream(session_id, chunk_size=2))
        assert estimates[-1].is_final
        cached = service.session_result(session_id)
        assert cached is not None
        assert cached.to_dict() == estimates[-1].partial.to_dict()


# ----------------------------------------------------------------------
# Codecs
# ----------------------------------------------------------------------
class TestCodecs:
    @pytest.fixture()
    def cuboid(self, service, spec):
        cuboid, __ = service.execute(spec)
        return cuboid

    def test_encode_cells_matches_canonical_order(self, cuboid):
        encoded = codecs.encode_cells(cuboid)
        assert len(encoded) == len(cuboid)
        flattened = [
            (cell["group"], cell["cell"]) for cell in encoded
        ]
        expected = [
            (
                [codecs._json_value(v) for v in g],
                [codecs._json_value(v) for v in c],
            )
            for g, c, __ in cuboid
        ]
        assert flattened == expected

    def test_page_cells_cursor_walk_covers_everything(self, cuboid):
        seen = []
        offset = 0
        while offset is not None:
            page = codecs.page_cells(cuboid, offset=offset, limit=2)
            assert len(page["cells"]) <= 2
            seen.extend(page["cells"])
            offset = page["page"]["next_offset"]
        assert seen == codecs.encode_cells(cuboid)

    def test_page_cells_rejects_bad_windows(self, cuboid):
        with pytest.raises(ValueError):
            codecs.page_cells(cuboid, offset=-1)
        with pytest.raises(ValueError):
            codecs.page_cells(cuboid, limit=0)
        with pytest.raises(ValueError):
            codecs.page_cells(cuboid, limit=codecs.MAX_PAGE_LIMIT + 1)

    def test_page_beyond_end_is_empty_with_no_cursor(self, cuboid):
        page = codecs.page_cells(cuboid, offset=10_000, limit=5)
        assert page["cells"] == []
        assert page["page"]["next_offset"] is None

    def test_parse_page_params(self):
        assert codecs.parse_page_params({}) == (0, codecs.DEFAULT_PAGE_LIMIT)
        assert codecs.parse_page_params(
            {"offset": "4", "limit": "9"}
        ) == (4, 9)
        for bad in (
            {"offset": "x"},
            {"limit": "x"},
            {"offset": "-1"},
            {"limit": "0"},
            {"limit": str(codecs.MAX_PAGE_LIMIT + 1)},
        ):
            with pytest.raises(ValueError):
                codecs.parse_page_params(bad)

    def test_parse_timeout(self):
        assert codecs.parse_timeout({}) == "absent"
        assert codecs.parse_timeout({"timeout": None}) is None
        assert codecs.parse_timeout({"timeout": 2}) == 2.0
        for bad in ({"timeout": 0}, {"timeout": -1}, {"timeout": "2"},
                    {"timeout": True}):
            with pytest.raises(ValueError):
                codecs.parse_timeout(bad)

    def test_estimate_frames_scale_counts(self, service, spec):
        frames = [
            codecs.encode_estimate(e)
            for e in service.stream_query(spec, chunk_size=1)
        ]
        assert len(frames) >= 2
        partial = frames[0]
        assert not partial["is_final"]
        for cell in partial["cells"]:
            expected = round(
                cell["values"]["COUNT(*)"] / partial["fraction"], 3
            )
            assert cell["estimated"]["COUNT(*)"] == expected
        final = frames[-1]
        assert final["is_final"]
        assert all("estimated" not in cell for cell in final["cells"])

    def test_dumps_round_trips(self, cuboid):
        import json

        doc = codecs.page_cells(cuboid, 0, 3)
        assert json.loads(codecs.dumps(doc)) == doc


def big_cuboid(n_cells=5_000):
    """A cuboid of mixed-type keys, inserted out of canonical order."""
    spec = figure8_spec(("X", "Y"))
    cells = {}
    for i in reversed(range(n_cells)):
        group = (i % 7,) if i % 2 else (f"g{i % 5}",)
        pattern = (f"x{i % 97}", (i, datetime.date(2024, 1, 1 + i % 28)))
        cells[(group, pattern)] = {"COUNT(*)": i, "AVG(amount)": i / 3}
    return SCuboid(spec, cells)


class TestPagingCost:
    """A poll costs O(limit): one sort per cuboid, only the window encoded."""

    def test_page_encodes_only_its_window(self, monkeypatch):
        cuboid = big_cuboid()
        calls = []
        encode = codecs.encode_cell
        monkeypatch.setattr(
            codecs,
            "encode_cell",
            lambda *args: calls.append(1) or encode(*args),
        )
        page = codecs.page_cells(cuboid, offset=1234, limit=10)
        assert len(calls) == 10
        assert len(page["cells"]) == 10
        assert page["page"]["total_cells"] == 5_000

    def test_walking_every_page_sorts_once(self, monkeypatch):
        cuboid = big_cuboid()
        sorts = []
        monkeypatch.setattr(
            cuboid_module,
            "sorted",
            lambda *args, **kwargs: sorts.append(1) or sorted(*args, **kwargs),
            raising=False,
        )
        offset = 0
        while offset is not None:
            page = codecs.page_cells(cuboid, offset=offset, limit=997)
            offset = page["page"]["next_offset"]
        list(cuboid)  # a repeat answer (exact repository hit) reuses it
        assert sorts == [1]

    def test_pages_are_byte_identical_to_the_full_encoding(self):
        cuboid = big_cuboid(2_000)
        # the canonical order, computed independently of the memo
        full = [
            codecs.encode_cell(g, c, cuboid.cells[(g, c)])
            for g, c in sorted(cuboid.cells, key=repr)
        ]
        assert codecs.dumps(codecs.encode_cells(cuboid)) == codecs.dumps(full)
        for limit in (1, 7, 100, 2_000):
            offset = 0
            while offset is not None:
                page = codecs.page_cells(cuboid, offset=offset, limit=limit)
                assert codecs.dumps(page["cells"]) == codecs.dumps(
                    full[offset : offset + limit]
                )
                offset = page["page"]["next_offset"]

    def test_page_and_encode_spans_under_a_tracer(self, service, spec):
        cuboid = big_cuboid(50)
        stream = service.stream_query(spec, chunk_size=1)
        estimate = next(stream)
        stream.close()
        with Tracer("request") as tracer:
            codecs.page_cells(cuboid, offset=40, limit=20)
            codecs.encode_estimate(estimate)
        page_span = tracer.root.find("serve.page")
        assert page_span is not None
        assert page_span.attrs["cells_sent"] == 10
        assert page_span.attrs["total_cells"] == 50
        encode_span = tracer.root.find("serve.encode")
        assert encode_span is not None
        assert encode_span.attrs["cells"] == len(estimate.partial)

    def test_spans_are_noops_without_a_tracer(self):
        assert span("serve.page") is NULL_SPAN
        assert span("serve.encode") is NULL_SPAN


# ----------------------------------------------------------------------
# Job registry
# ----------------------------------------------------------------------
class TestJobRegistry:
    def test_submit_poll_result(self, service, spec):
        jobs = JobRegistry(service)
        job = jobs.submit(spec)
        assert job.wait(10.0)
        assert job.status == "done"
        cuboid, stats = jobs.result(job.job_id)
        plain, __ = service.engine.execute(spec)
        assert cuboid.to_dict() == plain.to_dict()
        assert isinstance(stats, QueryStats)
        doc = job.describe()
        assert doc["status"] == "done"
        assert doc["cell_count"] == len(cuboid)

    def test_unknown_job_raises_not_found(self, service):
        jobs = JobRegistry(service)
        with pytest.raises(QueryNotFoundError):
            jobs.get("nope")
        with pytest.raises(QueryNotFoundError):
            jobs.cancel("nope")

    def test_result_of_unfinished_job_raises(self, service, spec):
        jobs = JobRegistry(service)
        with service._engine_lock:
            job = jobs.submit(spec)
            with pytest.raises(QueryNotFoundError):
                jobs.result(job.job_id)
            job.token.cancel()
        assert job.wait(10.0)

    def test_cancel_inflight_job(self, service, spec):
        jobs = JobRegistry(service)
        with service._engine_lock:
            job = jobs.submit(spec)
            jobs.cancel(job.job_id)
        assert job.wait(10.0)
        assert job.status == "cancelled"
        assert job.error_type == "QueryCancelledError"
        with pytest.raises(QueryNotFoundError):
            jobs.result(job.job_id)

    def test_bad_query_becomes_job_error(self, service):
        bad = figure8_spec(("A", "B"), group_by=(("no-such-attr", "x"),))
        jobs = JobRegistry(service)
        job = jobs.submit(bad)
        assert job.wait(10.0)
        assert job.status == "error"
        assert job.error

    def test_history_pruning_drops_oldest_finished(self, service, spec):
        jobs = JobRegistry(service, history_limit=2)
        finished = [jobs.submit(spec) for __ in range(3)]
        for job in finished:
            assert job.wait(10.0)
        # Exactly history_limit jobs remain pollable.
        assert len(jobs) == 2
        remaining = {job.job_id for job in finished if job.job_id in
                     jobs._jobs}
        assert len(remaining) == 2

    def test_submit_sheds_when_service_overloaded(self, service, spec):
        import time

        jobs = JobRegistry(service)
        limit = service.config.admission_limit
        blocked = []
        with service._engine_lock:
            try:
                for __ in range(limit):
                    blocked.append(jobs.submit(spec))
                # The workers bump the service's inflight count from
                # their own threads; wait for the window to fill before
                # asserting the over-limit submit is shed at the door.
                deadline = time.monotonic() + 10.0
                while (
                    service.inflight < limit
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                assert service.inflight >= limit
                with pytest.raises(ServiceOverloadedError):
                    jobs.submit(spec)
            finally:
                for job in blocked:
                    job.token.cancel()
        for job in blocked:
            assert job.wait(10.0)

    def test_history_limit_validation(self, service):
        with pytest.raises(ValueError):
            JobRegistry(service, history_limit=0)
