"""Unit tests for the engine lane (repro.service.batcher).

A stub engine stands in for :class:`CitationEngine` — the lane only
needs ``cite_batch`` — so coalescing, admission control, ordering, and
timeout semantics are tested deterministically without citation work.
"""

import asyncio
import threading
import time

import pytest

from repro.service.batcher import (
    AdmissionFull,
    EngineLane,
    LaneClosed,
    wait_bounded,
)


class StubEngine:
    """Records every batch; returns the queries themselves as results."""

    def __init__(self, delay_s: float = 0.0):
        self.batches: list[list[str]] = []
        self.calls: list[str] = []
        self.delay_s = delay_s

    def cite_batch(self, queries):
        # Runs on the lane's worker thread, like the real engine.
        self.batches.append(list(queries))
        if self.delay_s:
            time.sleep(self.delay_s)
        return [f"cited:{query}" for query in queries]


class TestCoalescing:
    def test_queued_cites_coalesce_into_one_batch(self):
        async def go():
            engine = StubEngine()
            lane = EngineLane(engine)
            futures = [lane.submit_cite(f"q{i}") for i in range(4)]
            lane.start()
            results = await asyncio.gather(*futures)
            await lane.stop()
            return engine.batches, results

        batches, results = asyncio.run(go())
        assert batches == [["q0", "q1", "q2", "q3"]]
        assert results == [f"cited:q{i}" for i in range(4)]

    def test_max_batch_splits(self):
        async def go():
            engine = StubEngine()
            lane = EngineLane(engine, max_batch=2)
            futures = [lane.submit_cite(f"q{i}") for i in range(5)]
            lane.start()
            await asyncio.gather(*futures)
            await lane.stop()
            return engine.batches

        batches = asyncio.run(go())
        assert [len(batch) for batch in batches] == [2, 2, 1]

    def test_call_job_breaks_the_batch(self):
        async def go():
            engine = StubEngine()
            lane = EngineLane(engine)
            order = []
            first = lane.submit_cite("a")
            call = lane.submit(lambda: order.append("call") or "mid")
            second = lane.submit_cite("b")
            lane.start()
            results = await asyncio.gather(first, call, second)
            await lane.stop()
            return engine.batches, results

        batches, results = asyncio.run(go())
        # The exclusive job separates the two cites: two batches of one.
        assert batches == [["a"], ["b"]]
        assert results == ["cited:a", "mid", "cited:b"]


class TestAdmission:
    def test_admission_full(self):
        async def go():
            engine = StubEngine(delay_s=0.2)
            lane = EngineLane(engine, max_pending=2)
            lane.start()
            first = lane.submit_cite("a")
            second = lane.submit_cite("b")
            with pytest.raises(AdmissionFull):
                lane.submit_cite("c")
            assert lane.outstanding == 2
            await asyncio.gather(first, second)
            # Completion frees admission slots again.
            assert lane.outstanding == 0
            third = lane.submit_cite("c")
            await third
            await lane.stop()

        asyncio.run(go())

    def test_closed_lane_rejects(self):
        async def go():
            lane = EngineLane(StubEngine())
            lane.start()
            await lane.stop()
            with pytest.raises(LaneClosed):
                lane.submit_cite("q")
            with pytest.raises(LaneClosed):
                lane.submit(lambda: None)

        asyncio.run(go())

    def test_stop_drains_admitted_jobs(self):
        async def go():
            engine = StubEngine(delay_s=0.02)
            lane = EngineLane(engine)
            futures = [lane.submit_cite(f"q{i}") for i in range(3)]
            lane.start()
            await lane.stop()
            return await asyncio.gather(*futures)

        assert asyncio.run(go()) == [f"cited:q{i}" for i in range(3)]


class TestErrorsAndTimeouts:
    def test_call_exception_forwarded(self):
        async def go():
            lane = EngineLane(StubEngine())
            lane.start()

            def boom():
                raise ValueError("nope")

            with pytest.raises(ValueError, match="nope"):
                await lane.submit(boom)
            await lane.stop()

        asyncio.run(go())

    def test_batch_exception_forwarded_to_every_member(self):
        class FailingEngine(StubEngine):
            def cite_batch(self, queries):
                raise RuntimeError("engine died")

        async def go():
            lane = EngineLane(FailingEngine())
            first = lane.submit_cite("a")
            second = lane.submit_cite("b")
            lane.start()
            outcomes = await asyncio.gather(
                first, second, return_exceptions=True
            )
            await lane.stop()
            return outcomes

        outcomes = asyncio.run(go())
        assert all(
            isinstance(outcome, RuntimeError) for outcome in outcomes
        )

    def test_failing_query_fails_only_its_own_job(self):
        class PickyEngine(StubEngine):
            def cite_batch(self, queries):
                self.batches.append(list(queries))
                if "bad" in queries:
                    raise ValueError("bad query")
                return [f"cited:{query}" for query in queries]

        async def go():
            engine = PickyEngine()
            lane = EngineLane(engine)
            lane.start()
            running, release = threading.Event(), threading.Event()

            def block():
                running.set()
                return release.wait(5.0)

            blocker = lane.submit(block)
            assert await asyncio.to_thread(running.wait, 5.0)
            # Both cites queue behind the running job, so they coalesce
            # into one batch.
            good = lane.submit_cite("good")
            bad = lane.submit_cite("bad")
            release.set()
            outcomes = await asyncio.gather(
                blocker, good, bad, return_exceptions=True
            )
            await lane.stop()
            return engine.batches, outcomes

        batches, (blocked, good, bad) = asyncio.run(go())
        # The failed batch is retried one job at a time.
        assert batches == [["good", "bad"], ["good"], ["bad"]]
        assert blocked is True
        assert good == "cited:good"
        assert isinstance(bad, ValueError)

    def test_timeout_abandons_waiter_not_job(self):
        async def go():
            engine = StubEngine(delay_s=0.1)
            lane = EngineLane(engine)
            lane.start()
            future = lane.submit_cite("slow")
            with pytest.raises(asyncio.TimeoutError):
                await wait_bounded(future, 0.01)
            # The job still completes on the lane.
            result = await wait_bounded(future, 5.0)
            await lane.stop()
            return result

        assert asyncio.run(go()) == "cited:slow"

    def test_wait_bounded_without_timeout(self):
        async def go():
            lane = EngineLane(StubEngine())
            lane.start()
            result = await wait_bounded(lane.submit_cite("q"), None)
            await lane.stop()
            return result

        assert asyncio.run(go()) == "cited:q"


class TestValidation:
    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            EngineLane(StubEngine(), max_pending=0)
        with pytest.raises(ValueError):
            EngineLane(StubEngine(), max_batch=0)
