"""Integration tests: the full HTTP service over a warm engine."""

import json
import logging
import threading
import time

import pytest

from repro.citation.generator import CitationEngine
from repro.citation.policy import focused_policy
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceThread,
    server,
)

GPCR = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'
VGIC = 'Q(N) :- Family(F, N, Ty), Ty = "vgic"'
JOIN = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx)'
UNION = GPCR + " ; " + VGIC
EMPTY = 'Q(N) :- Family(F, N, Ty), Ty = "a", Ty = "b"'


@pytest.fixture
def trips(service, monkeypatch):
    """The lane jobs made: ``"cite"`` per ``submit_cite`` call, ``"call"``
    per ``submit`` call."""
    lane = service.service.lane
    made = []
    for name, kind in (("submit", "call"), ("submit_cite", "cite")):
        submit = getattr(lane, name)

        def counted(*args, _submit=submit, _kind=kind):
            made.append(_kind)
            return _submit(*args)

        monkeypatch.setattr(lane, name, counted)
    return made


class TestCite:
    def test_cite_matches_direct_engine(self, client):
        reply = client.cite(GPCR)
        assert reply.status == 200
        registry = paper_registry()
        engine = CitationEngine(
            paper_database(), registry, policy=focused_policy(registry)
        )
        assert reply.data == engine.cite(GPCR).citation()

    def test_include_tuples(self, client):
        reply = client.cite(GPCR, include_tuples=True)
        assert reply.status == 200
        assert reply.data["tuples"]
        for entry in reply.data["tuples"]:
            assert set(entry) == {"tuple", "citations"}

    def test_union_query(self, client):
        reply = client.cite(UNION)
        assert reply.status == 200
        assert reply.data["citations"]
        assert reply.data["query"] == f"{GPCR}\n{VGIC}"

    @pytest.mark.parametrize("family_type", ["a;b", "a\nb"])
    def test_quoted_separator_stays_one_rule(self, client, family_type):
        text = f'Q(N) :- Family(F, N, Ty), Ty = "{family_type}"'
        inserted = client.insert("Family", [["99", "Semi", family_type]])
        assert inserted.status == 200
        reply = client.cite(text)
        assert reply.status == 200
        registry = paper_registry()
        engine = CitationEngine(
            paper_database(), registry, policy=focused_policy(registry)
        )
        engine.db.insert("Family", "99", "Semi", family_type)
        assert reply.data == engine.cite(text).citation()

    def test_sql_query(self, client):
        reply = client.cite(
            "SELECT FName FROM Family WHERE Type = 'gpcr'", sql=True
        )
        assert reply.status == 200
        # Same citations as the Datalog formulation (the rendered query
        # text differs: SQL parsing names variables by column).
        assert reply.data["citations"] == client.cite(GPCR).data["citations"]

    def test_provably_empty_is_422(self, client):
        reply = client.cite(EMPTY)
        assert reply.status == 422
        assert reply.data["error"] == "query provably returns no rows"
        assert reply.data["diagnostics"]

    @pytest.mark.parametrize("text", [
        "Q(X) :- Nope(X)",
        # The rewriter proves this empty and plans nothing, yet the
        # unknown relation is still a 400, decided from the schema.
        "Q(X) :- Nope(X, Y), X < Y, Y < X",
        'Q(N) :- Family(F, N, Ty), Ty = "gpcr"; Q(X) :- Nope(X)',
    ])
    def test_unknown_relation_in_query_is_400(self, client, trips, text):
        reply = client.cite(text)
        assert reply.status == 400
        assert reply.data == {
            "error": "unknown relation: 'Nope'",
            "kind": "UnknownRelationError",
        }
        assert trips == []

    def test_parse_error_is_400(self, client):
        reply = client.cite("this is not datalog")
        assert reply.status == 400
        assert "kind" in reply.data

    def test_lambda_query_is_400_even_after_its_twin(self, client):
        # The λ-parameterized text and its unparameterized twin must not
        # share a rewriting-cache entry: citing the twin first must not
        # turn the λ text's refusal into the twin's citation.
        assert client.cite("Q(N) :- Family(F, N, Ty)").status == 200
        reply = client.cite("lambda X. Q(N) :- Family(X, N, Ty)")
        assert reply.status == 400
        assert reply.data["kind"] == "RewritingError"

    def test_repeat_hits_plan_cache(self, client):
        client.cite(GPCR)
        before = client.stats()["engine"]["plan_cache"]
        client.cite(GPCR)
        after = client.stats()["engine"]["plan_cache"]
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]


class TestCiteBatch:
    def test_batch_matches_singles(self, client):
        reply = client.cite_batch([GPCR, VGIC, JOIN])
        assert reply.status == 200
        assert reply.data["count"] == 3
        singles = [client.cite(text).data for text in (GPCR, VGIC, JOIN)]
        assert reply.data["citations"] == singles

    def test_mixed_batch_with_union(self, client):
        reply = client.cite_batch([GPCR, UNION, VGIC])
        assert reply.status == 200
        assert reply.data["count"] == 3
        # Results come back in request order.
        assert reply.data["citations"][1] == client.cite(UNION).data

    def test_empty_member_is_422_with_index(self, client):
        reply = client.cite_batch([GPCR, EMPTY])
        assert reply.status == 422
        (bad,) = reply.data["queries"]
        assert bad["index"] == 1
        assert bad["diagnostics"]

    def test_not_a_list_is_400(self, client):
        reply = client.post("/cite-batch", {"queries": "just one"})
        assert reply.status == 400

    def test_empty_member_is_refused_after_one_trip(self, client, trips):
        reply = client.cite_batch([GPCR, EMPTY, VGIC])
        assert reply.status == 422
        (bad,) = reply.data["queries"]
        assert (bad["index"], bad["query"]) == (1, EMPTY)
        assert bad["diagnostics"]
        assert len(trips) == 1


class TestPlanAndAnalyze:
    def test_plan_returns_explain(self, client):
        reply = client.plan(GPCR)
        assert reply.status == 200
        assert reply.data["explain"].startswith("plan for ")
        assert "estimated cost" in reply.data["explain"]

    def test_plan_union(self, client):
        reply = client.plan(UNION)
        assert reply.status == 200
        assert reply.data["explain"]

    def test_plan_union_uses_engine_plans_not_its_memo(self, client):
        union = ('Q(N) :- Family(F, N, Ty), FC(F, P), Ty = "gpcr"\n'
                 'Q(N) :- Family(F, N, Ty), FIC(F, P), Ty = "gpcr"')
        first = client.plan(union)
        before = client.stats()["engine"]
        second = client.plan(union)
        after = client.stats()["engine"]
        assert first.status == second.status == 200
        assert "shared prefix: step 1" in first.data["explain"]
        # EXPLAIN reserves nothing in the engine's sub-plan memo…
        assert after["subplan_memo"]["reserved"] == 0
        # …and plans through the engine's plan cache.
        assert after["plan_cache"]["hits"] - before["plan_cache"]["hits"] == 2

    def test_plan_of_empty_query_is_422(self, client):
        reply = client.plan(EMPTY)
        assert reply.status == 422
        assert reply.data["explain"]  # the plan still renders

    def test_analyze_clean_query(self, client):
        reply = client.analyze(GPCR)
        assert reply.status == 200
        assert reply.data["provably_empty"] is False

    def test_analyze_empty_query(self, client):
        reply = client.analyze(EMPTY)
        assert reply.status == 422
        assert reply.data["provably_empty"] is True
        codes = {d["code"] for d in reply.data["diagnostics"]}
        assert any(code.startswith("QA2") for code in codes)


class TestLaneJobs:
    """Each request is one lane job; only a refused query pays one
    for the database-backed findings its 422 lists."""

    def test_cold_cite_is_one_cite_job(self, client, trips):
        assert client.cite(GPCR).status == 200
        assert client.cite(UNION).status == 200
        assert trips == ["cite", "cite"]

    def test_refused_cite_is_one_call_job_and_never_cites(
        self, client, trips, fresh_engine, monkeypatch
    ):
        cited = []
        monkeypatch.setattr(
            fresh_engine, "cite_batch",
            lambda queries: cited.append(queries),
        )
        reply = client.cite(EMPTY)
        assert reply.status == 422
        assert reply.data["diagnostics"]
        assert trips == ["call"]
        assert cited == []

    def test_cold_batch_is_one_lane_job(self, client, trips):
        reply = client.cite_batch([GPCR, VGIC, JOIN])
        assert reply.status == 200
        assert trips == ["call"]
        assert client.cite_batch([GPCR, VGIC, JOIN]).status == 200
        assert trips == ["call", "call"]

    def test_plan_and_analyze_are_one_job_each(self, client, trips):
        assert client.plan(GPCR).status == 200
        assert trips == ["call"]
        assert client.plan(EMPTY).status == 422
        assert trips == ["call"] * 2
        assert client.analyze(GPCR).status == 200
        assert trips == ["call"] * 3


def fresh_citation(engine, query):
    """``query``'s citation from a new engine over ``engine``'s data."""
    registry = paper_registry()
    return CitationEngine(
        engine.db, registry, policy=focused_policy(registry)
    ).cite(query).citation()


class TestMutations:
    def test_insert_then_cite_sees_row(self, client):
        before = client.cite(GPCR, include_tuples=True).data["tuples"]
        reply = client.insert("Family", [["F9999", "ServiceFam", "gpcr"]])
        assert reply.status == 200
        assert reply.data["inserted"] == 1
        after = client.cite(GPCR, include_tuples=True).data["tuples"]
        names = {tuple(entry["tuple"]) for entry in after}
        assert ("ServiceFam",) in names
        assert len(after) == len(before) + 1

    def test_delete_restores(self, client):
        client.insert("Family", [["F9999", "ServiceFam", "gpcr"]])
        reply = client.delete_rows(
            "Family", [["F9999", "ServiceFam", "gpcr"]]
        )
        assert reply.status == 200
        assert reply.data["deleted"] == 1
        after = client.cite(GPCR, include_tuples=True).data["tuples"]
        names = {tuple(entry["tuple"]) for entry in after}
        assert ("ServiceFam",) not in names

    def test_mutation_bumps_stats_version(self, client):
        version = client.stats()["engine"]["stats_version"]
        reply = client.insert("Family", [["F9998", "X", "gpcr"]])
        assert reply.data["stats_version"] > version

    def test_queued_writes_report_their_own_version(
        self, service, client, fresh_engine, monkeypatch
    ):
        """Writes queued behind a running lane job each report the
        stats_version their own job left, not the one the lane reached
        by the time the reply was written."""
        db = fresh_engine.db
        seen = {}
        insert_all, delete = db.insert_all, db.delete

        def recorded_insert_all(relation, rows):
            inserted = insert_all(relation, rows)
            seen["insert", rows[0][0]] = db.stats_version
            return inserted

        def recorded_delete(relation, *values):
            deleted = delete(relation, *values)
            seen["delete", values[0]] = db.stats_version
            return deleted

        monkeypatch.setattr(db, "insert_all", recorded_insert_all)
        monkeypatch.setattr(db, "delete", recorded_delete)
        original = fresh_engine.cite_batch
        occupied, release = threading.Event(), threading.Event()

        def held_cite_batch(queries):
            occupied.set()
            release.wait(30.0)
            return original(queries)

        monkeypatch.setattr(fresh_engine, "cite_batch", held_cite_batch)
        writes = [("insert", f"F900{i}") for i in range(3)]
        writes.append(("delete", "F9001"))
        replies = {}

        def run(op, key):
            writer = ServiceClient(service.base_url)
            send = writer.insert if op == "insert" else writer.delete_rows
            try:
                replies[op, key] = send(
                    "Family", [[key, f"Queued {key}", "gpcr"]]
                )
            finally:
                writer.close()

        threads = [threading.Thread(target=client.cite, args=(GPCR,))]
        threads[0].start()
        try:
            assert occupied.wait(5.0)
            for position, write in enumerate(writes, start=2):
                threads.append(threading.Thread(target=run, args=write))
                threads[-1].start()
                # Queue the writes in a known order behind the held job.
                deadline = time.monotonic() + 5.0
                while (
                    service.service.lane.outstanding < position
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
            release.set()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            release.set()
        versions = [replies[write].data["stats_version"] for write in writes]
        assert versions == [seen[write] for write in writes]
        assert versions == sorted(set(versions))

    def test_warm_caches_survive_mutation(self, client):
        """Graceful invalidation: plan-cache entries are not dropped
        wholesale — the version-keyed cache keeps serving structurally
        unaffected queries."""
        client.cite(GPCR)
        client.insert("Ligand2Family", [["L9999", "F0001"]])
        size_after = client.stats()["engine"]["plan_cache"]["size"]
        assert size_after > 0  # not flushed

    def test_metadata_writes_reach_the_database_citation(
        self, client, fresh_engine
    ):
        text = 'Q(N) :- Family(F, N, Ty), F = "11"'
        assert client.cite(text).data["database"][0]["Version"] == "23"
        assert client.delete_rows(
            "MetaData", [["Version", "23"]]
        ).data["deleted"] == 1
        assert client.insert(
            "MetaData", [["Version", "24"]]
        ).data["inserted"] == 1
        reply = client.cite(text)
        assert reply.data["database"][0]["Version"] == "24"
        assert reply.data == fresh_citation(fresh_engine, text)

    def test_committee_writes_reach_the_family_citation(
        self, client, fresh_engine
    ):
        text = 'Q(N) :- Family(F, N, Ty), F = "11"'
        before = client.cite(text).data
        assert "Clapham" not in json.dumps(before)
        client.insert("FC", [["11", "p11"]])
        added = client.cite(text).data
        assert "Clapham" in json.dumps(added)
        assert added == fresh_citation(fresh_engine, text)
        client.delete_rows("FC", [["11", "p11"]])
        assert client.cite(text).data == before

    def test_unknown_relation_is_400(self, client):
        reply = client.insert("Nonexistent", [["x"]])
        assert reply.status == 400

    def test_failed_delete_is_400_and_drops_stale_views(
        self, client, fresh_engine
    ):
        client.cite(GPCR)  # materialize the views before the mutation
        gpcr = next(
            row.values for row in fresh_engine.db.relation("Family")
            if row.values[2] == "gpcr"
        )
        reply = client.delete_rows("Family", [list(gpcr), [[1], "x", "y"]])
        assert reply.status == 400
        assert reply.data["kind"] == "TypeMismatchError"
        # Rows before the failing one stay applied (per-row semantics),
        # so the views materialized before the request are stale.
        assert fresh_engine.db.relation("Family").lookup_key(gpcr[:1]) is None
        reply = client.cite(GPCR)
        assert reply.status == 200
        assert reply.data == fresh_citation(fresh_engine, GPCR)

    def test_failed_insert_is_400_and_drops_stale_views(
        self, client, fresh_engine
    ):
        client.cite(GPCR)
        reply = client.insert(
            "Family", [["99", "Fresh", "gpcr"], ["98", "Other"]]
        )
        assert reply.status == 400
        assert reply.data["kind"] == "ArityError"
        assert fresh_engine.db.relation("Family").lookup_key(("99",))
        reply = client.cite(GPCR)
        assert reply.status == 200
        assert reply.data == fresh_citation(fresh_engine, GPCR)

    def test_wrong_arity_delete_is_400(self, client):
        reply = client.delete_rows("Family", [["11", "x"]])
        assert reply.status == 400
        assert reply.data["kind"] == "ArityError"

    def test_bad_rows_are_400(self, client):
        reply = client.post("/insert", {"relation": "Family", "rows": []})
        assert reply.status == 400
        reply = client.post(
            "/insert", {"relation": "Family", "rows": ["not-a-list"]}
        )
        assert reply.status == 400


class TestStatsAndHealth:
    def test_healthz(self, client):
        assert client.get("/healthz").data == {"status": "ok"}

    def test_stats_shape(self, client):
        client.cite(GPCR)
        stats = client.stats()
        assert set(stats) == {"service", "admission", "engine"}
        engine = stats["engine"]
        for cache in ("plan_cache", "rewriting_cache", "subplan_memo",
                      "record_cache", "absorption_memo"):
            assert {"hits", "misses", "evictions", "size"} <= set(
                engine[cache]
            )
        assert "reserved" in engine["subplan_memo"]
        service = stats["service"]
        assert "POST /cite" in service["endpoints"]
        latency = service["endpoints"]["POST /cite"]["latency"]
        assert latency["count"] >= 1
        assert latency["buckets"]

    def test_unknown_endpoint_404_lists_routes(self, client):
        reply = client.get("/nope")
        assert reply.status == 404
        assert "POST /cite" in reply.data["endpoints"]

    def test_wrong_method_405(self, client):
        reply = client.request("GET", "/cite")
        assert reply.status == 405


class TestKeepAlive:
    def test_many_requests_one_connection(self, service):
        client = ServiceClient(service.base_url)
        try:
            for __ in range(5):
                assert client.cite(GPCR).status == 200
            stats = client.stats()
            # All traffic rode a single accepted connection.
            assert stats["service"]["connections_accepted"] == 1
        finally:
            client.close()


class TestReplay:
    def test_replay_workload_reports_cache_deltas(self, service):
        from repro.workload import replay_workload

        report = replay_workload(
            service.base_url, [GPCR, VGIC, GPCR, GPCR]
        )
        assert report.ok_count == 4
        assert report.error_count == 0
        assert report.statuses == {200: 4}
        # The repeats hit the warm plan cache across HTTP requests.
        assert report.plan_hits >= 2
        text = report.describe()
        assert "4 requests" in text
        assert "plan" in text

    def test_replay_cli(self, service, tmp_path, capsys):
        from repro.cli import main

        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# comment\n\n" + GPCR + "\n" + VGIC + "\n"
        )
        code = main([
            "replay", str(queries), "--url", service.base_url,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 requests" in out


class TestServiceThreadLifecycle:
    def test_draining_health_and_clean_stop(self, fresh_engine):
        handle = ServiceThread(fresh_engine).start()
        client = ServiceClient(handle.base_url)
        try:
            assert client.cite(GPCR).status == 200
        finally:
            client.close()
        handle.stop()
        # Idempotent stop.
        handle.stop()

    def test_startup_failure_surfaces(self, fresh_engine):
        # An unresolvable bind host fails fast; start() must raise.
        config = ServiceConfig(host="host.invalid", port=0)
        with pytest.raises(RuntimeError, match="failed to start"):
            ServiceThread(fresh_engine, config).start()

    def test_responses_are_deterministic_json(self, client):
        first = client.cite(GPCR)
        second = client.cite(GPCR)
        assert first.body == second.body
        assert json.loads(first.body) == first.data


class TestRequestLog:
    """Each request's log line is encoded only when INFO is logged."""

    @pytest.fixture
    def encoded(self, monkeypatch):
        """The records the server module encodes for its log lines."""
        records = []

        class CountingJson:
            @staticmethod
            def dumps(record):
                records.append(record)
                return json.dumps(record)

        monkeypatch.setattr(server, "json", CountingJson())
        return records

    def test_line_unchanged_with_info(self, client, encoded, caplog):
        caplog.set_level(logging.INFO, logger="repro.service")
        assert client.cite(GPCR).status == 200
        (record,) = encoded
        (line,) = [r.getMessage() for r in caplog.records
                   if r.name == "repro.service"]
        assert line == json.dumps(record)
        assert list(record) == [
            "event", "method", "path", "status", "ms", "outstanding",
        ]
        assert record["event"] == "request"
        assert (record["method"], record["path"], record["status"]) == (
            "POST", "/cite", 200,
        )

    def test_nothing_encoded_without_info(self, client, encoded, caplog):
        caplog.set_level(logging.WARNING, logger="repro.service")
        assert client.cite(GPCR).status == 200
        assert client.cite_batch([GPCR, VGIC]).status == 200
        assert encoded == []
        assert not [r for r in caplog.records if r.name == "repro.service"]
