"""Seeded-race kill tests: each test injects a real concurrency
violation and FAILS unless the sanitizer catches it.

This mirrors the plan verifier's kill suite (PR 8): the sanitizer's
value is only proven by demonstrating that the bugs it exists for do
not slip past it.  Every scenario is deterministic — violations are
injected by monkeypatching, not by racing timers.
"""

import asyncio
import threading

import pytest

from repro.analysis.sanitizer import (
    ConcurrencySanitizerError,
    set_sanitize,
)
from repro.citation import generator
from repro.citation.generator import CitationEngine
from repro.citation.order import (
    FewestUncoveredOrder,
    FewestViewsOrder,
    token_shape,
)
from repro.citation.policy import comprehensive_policy
from repro.citation.tokens import ViewCitationToken
from repro.cq import evaluation
from repro.cq.parser import parse_query
from repro.cq.subplan import SubplanMemo
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_views
from repro.relational.database import Database
from repro.semiring.polynomial import ProvenanceMonomial, ProvenancePolynomial
from repro.service.batcher import EngineLane
from repro.views.citation_view import CitationView
from repro.views.registry import ViewRegistry


@pytest.fixture
def active():
    previous = set_sanitize("always")
    try:
        yield
    finally:
        set_sanitize(previous)


@pytest.fixture
def inactive():
    # Force the sanitizer off even when the suite runs --sanitize, so
    # the control test really exercises the unsanitized path.
    previous = set_sanitize("off")
    try:
        yield
    finally:
        set_sanitize(previous)


@pytest.fixture
def engine():
    db = paper_database()
    return CitationEngine(db, ViewRegistry(db.schema, paper_views()))


QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'


class TestWorkerThreadMutation:
    """Kill: a thread mutates the database mid-``cite_batch``."""

    def test_mutation_mid_batch_is_caught(
        self, active, engine, monkeypatch
    ):
        caught = []
        real = evaluation.enumerate_bindings

        def racing(query, db, *args, **kwargs):
            # Mid-evaluation (the execution region is open), another
            # thread mutates the database under the pipeline.
            def mutate():
                try:
                    db.insert("Family", "F999", "racer", "other")
                except ConcurrencySanitizerError as exc:
                    caught.append(exc)

            yielded = False
            for binding in real(query, db, *args, **kwargs):
                if not yielded:
                    yielded = True
                    worker = threading.Thread(target=mutate)
                    worker.start()
                    worker.join()
                yield binding

        monkeypatch.setattr(evaluation, "enumerate_bindings", racing)
        engine.cite_batch([parse_query(QUERY)])
        assert caught and all(
            e.check == "execution-affinity" for e in caught
        ), (
            "the sanitizer FAILED to catch a worker-thread mutation "
            "during an in-flight citation evaluation"
        )

    def test_same_mutation_passes_without_sanitizer(
        self, inactive, engine, monkeypatch
    ):
        # Control: with the sanitizer off the race goes undetected —
        # exactly the silent corruption the sanitizer exists for.
        caught = []
        real = evaluation.enumerate_bindings

        def racing(query, db, *args, **kwargs):
            def mutate():
                try:
                    db.insert("Family", "F999", "racer", "other")
                except ConcurrencySanitizerError as exc:
                    caught.append(exc)

            yielded = False
            for binding in real(query, db, *args, **kwargs):
                if not yielded:
                    yielded = True
                    worker = threading.Thread(target=mutate)
                    worker.start()
                    worker.join()
                yield binding

        monkeypatch.setattr(evaluation, "enumerate_bindings", racing)
        engine.cite_batch([parse_query(QUERY)])
        assert caught == []


class TestStaleCacheServe:
    """Kill: a version-keyed cache serves without re-validating."""

    #: The batch's one shared prefix scans V2, the FamilyIntro view: the
    #: comprehensive policy evaluates all three two-view rewritings of
    #: the intro query (an order would keep only ``V5("gpcr")``).
    MEMO_QUERIES = (
        QUERY,
        'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"',
    )

    @pytest.fixture
    def memo_engine(self):
        db = paper_database()
        return CitationEngine(
            db, ViewRegistry(db.schema, paper_views()),
            policy=comprehensive_policy(),
        )

    def test_patched_out_memo_validation_is_caught(
        self, active, memo_engine, monkeypatch
    ):
        engine = memo_engine
        queries = [parse_query(text) for text in self.MEMO_QUERIES]
        engine.cite_batch(queries)  # populate the sub-plan memo

        def stale_fresh(self, entry, version, token):
            return True  # BUG: serves without any validation

        monkeypatch.setattr(SubplanMemo, "_fresh", stale_fresh)
        # A FamilyIntro row changes V2; a delete keeps V2 first in the
        # plans, so the stale entry is looked up again.
        engine.db.delete("FamilyIntro", "13", "Familyb")
        with pytest.raises(ConcurrencySanitizerError) as err:
            engine.cite_batch(queries)
        assert err.value.check == "stale-cache", (
            "the sanitizer FAILED to catch a memo serving a stale entry"
        )

    def test_write_to_another_relation_serves_quietly(
        self, active, memo_engine, monkeypatch
    ):
        # Control: a Family row changes no view the memo entry reads,
        # so the entry is fresh, served, and the sanitizer stays quiet.
        engine = memo_engine
        queries = [parse_query(text) for text in self.MEMO_QUERIES]
        engine.cite_batch(queries)
        memo = engine.subplan_memo
        assert [[part[0] for part in key] for key in memo._store] == [["V2"]]

        def stale_fresh(self, entry, version, token):
            return True

        monkeypatch.setattr(SubplanMemo, "_fresh", stale_fresh)
        engine.db.insert("Family", "F998", "stale", "gpcr")
        hits = memo.hits
        engine.cite_batch(queries)
        assert memo.hits > hits

    def test_unbumped_stats_version_is_caught(
        self, active, engine, monkeypatch
    ):
        engine.cite(QUERY)  # populate the plan cache
        monkeypatch.setattr(
            Database, "_note_stats_mutations", lambda self, count: None
        )
        # The mutation lands but the version stays flat, so the plan
        # cache's own version comparison (correctly) still hits — a
        # silent stale serve only the shadow count can expose.
        engine.db.insert("Family", "F997", "unbumped", "gpcr")
        with pytest.raises(ConcurrencySanitizerError) as err:
            engine.cite(QUERY)
        assert err.value.check == "version-integrity", (
            "the sanitizer FAILED to catch a mutation path that skips "
            "the stats_version bump"
        )


class TestStaleRecordServe:
    """Kill: a row change that does not drop the records it made stale."""

    def test_patched_out_record_delta_is_caught(
        self, active, engine, monkeypatch
    ):
        text = 'Q(N) :- Family(F, N, Ty), F = "11"'
        engine.cite(text)  # caches family 11's record

        monkeypatch.setattr(
            CitationEngine, "_drop_stale_records", lambda *args: None
        )  # BUG: the record delta never runs
        engine.db.insert("FC", "11", "p5")  # a new committee member
        with pytest.raises(ConcurrencySanitizerError) as err:
            engine.cite(text)
        assert err.value.check == "stale-cache", (
            "the sanitizer FAILED to catch a maintained record served "
            "after the row change that made it stale"
        )


class TestReplayedAbsorption:
    """Kill: an absorption-memo shape that misses token equality.

    The gpcr query has three rewritings.  Its per-rewriting polynomials
    are replaced by two tuples whose shapes differ only in which tokens
    are equal: tuple a gets ``C[V1(11)]`` from two rewritings (equal
    polynomials, kept once), tuple b ``C[V1(11)]`` and ``C[V1(13)]``
    (incomparable, both kept).
    """

    @pytest.fixture
    def crafted(self, engine, monkeypatch):
        def single(family):
            return ProvenancePolynomial(
                {ProvenanceMonomial([ViewCitationToken("V1", (family,))]): 1}
            )

        per_rewriting = iter([
            {("a",): single("11"), ("b",): single("11")},
            {("a",): single("11"), ("b",): single("13")},
            {},
        ])
        monkeypatch.setattr(
            CitationEngine, "_rewriting_polynomials",
            lambda *args: next(per_rewriting),
        )

        def without_equality(polynomials):
            shape = token_shape(polynomials)
            return tuple(
                tuple(
                    (tuple((0, *token[1:]) for token in tokens), coefficient)
                    for tokens, coefficient in polynomial
                )
                for polynomial in shape
            )

        # BUG: every token gets index 0, so equal and unequal tokens
        # share a shape.
        monkeypatch.setattr(generator, "token_shape", without_equality)
        return engine

    def test_shape_without_equality_is_caught(self, active, crafted):
        with pytest.raises(ConcurrencySanitizerError) as err:
            crafted.cite(QUERY)
        assert err.value.check == "stale-cache", (
            "the sanitizer FAILED to catch a memoized +R decision "
            "replayed on a tuple the order decides differently"
        )

    def test_same_shape_passes_without_sanitizer(self, inactive, crafted):
        # Control: unchecked, tuple b silently loses C[V1(13)].
        result = crafted.cite(QUERY)
        assert repr(result.tuples[("b",)].polynomial) == "C[V1('11')]"


class TestPrunedRewritings:
    """Kill: a rewriting rank that misses what the order reads.

    The focused policy's order ranks rewritings by uncovered atoms, then
    view applications, and the engine skips the ones ranked below the
    best before evaluating them.  Each mutation ranks wrongly, or skips
    where the ranks prove nothing, and must be caught: by the
    sanitizer, which cites the query again through every rewriting, or
    by a direct check.
    """

    #: Total rewritings with two views (V1, V3 or V4, and X) against
    #: partial ones with one view (V5, FC uncovered): the total ones
    #: win, on uncovered atoms alone.
    THREE_ATOMS = "Q(N, Tx, C) :- Family(F, N, Ty), FamilyIntro(F, Tx), FC(F, C)"
    #: Nine rewritings of two view applications each, V4·V4 and V4·V1
    #: among them: one rank, nothing skipped.
    SELF_JOIN = (
        'Q(N1, N2) :- Family(F1, N1, Ty), Family(F2, N2, Ty), Ty = "gpcr"'
    )
    #: Example 2.3: ``V5("gpcr")`` against three two-view rewritings.
    INTRO = 'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"'

    @pytest.fixture
    def ranked(self):
        db = paper_database()
        registry = ViewRegistry(db.schema, paper_views() + [
            CitationView.from_strings(
                view="lambda F. X(F, Tx, C) :- FamilyIntro(F, Tx), FC(F, C)",
                citation_query="lambda F. CX(F, Tx) :- FamilyIntro(F, Tx)",
            ),
        ])
        return CitationEngine(db, registry)

    def test_rank_ignoring_uncovered_atoms_is_caught(
        self, active, ranked, monkeypatch
    ):
        # BUG: every rewriting counts as total, so V5·C_R[FC] ranks
        # first on views and the winning two-view rewritings are skipped.
        monkeypatch.setattr(
            FewestUncoveredOrder, "rewriting_rank",
            lambda self, rewriting: (("fewest uncovered", 0),),
        )
        with pytest.raises(ConcurrencySanitizerError) as err:
            ranked.cite(self.THREE_ATOMS)
        assert err.value.check == "pruned-rewritings", (
            "the sanitizer FAILED to catch a rank that ignores "
            "uncovered atoms"
        )

    def test_rank_counting_distinct_views_is_caught(
        self, active, engine, monkeypatch
    ):
        # BUG: V4·V4 counts one view, so V4·V1 and the others, which
        # tie with it in the order, are skipped.
        monkeypatch.setattr(
            FewestViewsOrder, "rewriting_rank",
            lambda self, rewriting: (("fewest views", len({
                application.view.name
                for application in rewriting.applications
            })),),
        )
        with pytest.raises(ConcurrencySanitizerError) as err:
            engine.cite(self.SELF_JOIN)
        assert err.value.check == "pruned-rewritings", (
            "the sanitizer FAILED to catch a rank that counts distinct "
            "views instead of view applications"
        )

    def test_unvalidated_rewritings_are_never_skipped(self):
        # Without Def 2.2 validation a rewriting need not derive every
        # output tuple, so no rank proves another rewriting absorbs it.
        db = paper_database()
        engine = CitationEngine(
            db, ViewRegistry(db.schema, paper_views()), validate=False
        )
        result = engine.cite(self.INTRO)
        assert len(result.rewritings) > 1
        assert result.pruned == {}
        assert all(
            None not in tc._per_rewriting for tc in result.tuples.values()
        )

    def test_true_ranks_stay_quiet(self, active, ranked):
        # Control: the shipped ranks skip rewritings on two of the three
        # queries, and citing through every rewriting agrees.
        skipped = {
            text: sorted(ranked.cite(text).pruned)
            for text in (self.THREE_ATOMS, self.SELF_JOIN, self.INTRO)
        }
        assert skipped == {
            self.THREE_ATOMS: [3, 4, 5, 6],
            self.SELF_JOIN: [],
            self.INTRO: [1, 2, 3],
        }


class TestInstantiatedRewriting:
    """Kill: a template key without the registry-order facts.

    The registry holds a view whose body names ``"gpcr"``; a gpcr query
    rewrites through it, a vgic query of the same shape cannot.  With
    the facts dropped both share one entry, so the vgic query is served
    the gpcr rewriting with the constant swapped in.
    """

    TEXTS = [
        'Q(N) :- Family(F, N, Ty), Ty = "gpcr"',
        'Q(N) :- Family(F, N, Ty), Ty = "vgic"',
        'Q(N) :- Family(F, N, Ty), Ty = "lgic"',
    ]

    @pytest.fixture
    def rewriter(self):
        db = paper_database()
        registry = ViewRegistry(db.schema, paper_views() + [
            CitationView.from_strings(
                view='G(F, N) :- Family(F, N, "gpcr")',
                citation_query='CG(F, N) :- Family(F, N, "gpcr")',
            ),
        ])
        return CitationEngine(db, registry).rewriting_engine

    def test_dropped_registry_order_is_caught(
        self, active, rewriter, monkeypatch
    ):
        # BUG: the key forgets how constants order against "gpcr".
        monkeypatch.setattr(rewriter, "registry_constants", ())
        with pytest.raises(ConcurrencySanitizerError) as err:
            for text in self.TEXTS:
                rewriter.rewrite(parse_query(text))
        assert err.value.check == "stale-cache", (
            "the sanitizer FAILED to catch rewritings served for a "
            "template key that misses the registry's constants"
        )

    def test_same_traffic_stays_quiet_with_the_facts(
        self, active, rewriter
    ):
        for text in self.TEXTS:
            rewriter.rewrite(parse_query(text))
        assert rewriter.hits == 1  # lgic: served from vgic's entry


class TestEventLoopBlocking:
    """Kill: blocking calls executed on the service event loop."""

    def test_sleep_in_coroutine_is_caught(self, active):
        import time

        async def handler():
            time.sleep(0.01)  # BUG: stalls every request on the loop

        with pytest.raises(ConcurrencySanitizerError) as err:
            asyncio.run(handler())
        assert err.value.check == "event-loop-blocking", (
            "the sanitizer FAILED to catch time.sleep on the event loop"
        )

    def test_blocking_socket_in_coroutine_is_caught(self, active):
        import socket

        async def handler():
            with socket.socket() as sock:
                sock.connect(("127.0.0.1", 9))  # BUG: sync connect

        with pytest.raises(ConcurrencySanitizerError) as err:
            asyncio.run(handler())
        assert err.value.check == "event-loop-blocking", (
            "the sanitizer FAILED to catch blocking socket I/O on the "
            "event loop"
        )


class TestLaneOwnershipBypass:
    """Kill: a mutation that bypasses the engine lane."""

    def test_direct_mutation_while_lane_runs_is_caught(
        self, active, engine
    ):
        async def scenario():
            lane = EngineLane(engine)
            lane.start()
            try:
                # Sanctioned path: mutations go through lane jobs.
                await lane.submit(
                    lambda: engine.db.insert("Family", "F996", "ok", "gpcr")
                )
                # BUG: a thread writes directly, bypassing the lane.
                with pytest.raises(ConcurrencySanitizerError) as err:
                    await asyncio.to_thread(
                        engine.db.insert, "Family", "F995", "bypass", "gpcr"
                    )
                return err.value
            finally:
                await lane.stop()

        error = asyncio.run(scenario())
        assert error.check == "lane-ownership", (
            "the sanitizer FAILED to catch a mutation bypassing the "
            "engine lane"
        )
        assert "engine lane" in str(error)
