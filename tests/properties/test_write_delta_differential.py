"""Differential: an engine that maintains itself across writes ≡ a fresh one.

Hypothesis draws write programs over the paper's GtoPdb instance with
the five demo views: single-row inserts and deletes on ``Family``,
``FamilyIntro``, ``FC``, ``FIC``, ``Person`` and ``MetaData`` — rows
that join existing data and rows that join nothing, key violations,
deletes of live and of absent rows — runs of such writes with no read
in between, a multi-row delete whose last row fails (the ``/delete``
job's per-row loop), a run longer than the engine maintains row by row,
and one large ``insert_all`` that takes the bulk path.  One warm engine
follows the whole program through the database's row-change hook, never
through ``invalidate_data()``.  After every step:

- each view's instance in its view store lists the rows of a fresh
  ``registry.materialize``, in the same order;
- a view's version names one extension: a view whose rows changed
  carries a version it never had before, and a view that reads none of
  the written relations keeps its version (so plans over it stay warm)
  unless the step made the engine re-materialize every view;
- its citation JSON of point, wide and union texts equals a fresh
  engine's, byte for byte, cited alone and as one batch;
- every record its cache would serve equals a fresh render.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.citation.generator import MAX_MAINTAINED_ROWS, CitationEngine
from repro.citation.tokens import ViewCitationToken
from repro.cq.ucq import parse_datalog
from repro.errors import ReproError
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry

FAMILIES = ["11", "12", "13", "14", "20", "f90", "f91"]
PERSONS = ["p1", "p3", "p8", "p9", "p90", "q1"]
TYPES = ["gpcr", "vgic", "lgic"]

POINT_TEXTS = [
    'Q(N, Ty) :- Family(F, N, Ty), F = "11"',
    'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), F = "13"',
    'Q(Pn) :- FC(F, C), Person(C, Pn, A), F = "12"',
    'Q(F) :- FIC(F, C), Person(C, Pn, A), C = "p9"',
    'Q(N) :- Family(F, N, Ty), FC(F, C), C = "p1"',
    'Q(N, Ty) :- Family(F, N, Ty), F = "f90"',
]
WIDE_TEXTS = [
    'Q(N, Tx) :- Family(F, N, Ty), FamilyIntro(F, Tx), Ty = "gpcr"',
    'Q(N) :- Family(F, N, Ty), Ty = "vgic"',
    'Q(N) :- Family(F, N, Ty), Ty = "lgic"',
]
UNION_TEXT = (
    'Q(N) :- Family(F, N, Ty), Ty = "gpcr"; '
    'Q(N) :- Family(F, N, Ty), FC(F, C), C = "p11"'
)

ROWS = {
    "Family": st.tuples(
        st.sampled_from(FAMILIES),
        st.sampled_from(["Calcitonin", "Fresh", "b"]),
        st.sampled_from(TYPES),
    ),
    "FamilyIntro": st.tuples(
        st.sampled_from(FAMILIES), st.sampled_from(["Intro", "Familyb"])
    ),
    "FC": st.tuples(st.sampled_from(FAMILIES), st.sampled_from(PERSONS)),
    "FIC": st.tuples(st.sampled_from(FAMILIES), st.sampled_from(PERSONS)),
    "Person": st.tuples(
        st.sampled_from(PERSONS),
        st.sampled_from(["Hay", "Newman"]),
        st.sampled_from(["U. Auckland", "Elsewhere"]),
    ),
    "MetaData": st.tuples(
        st.sampled_from(["Owner", "URL", "Version", "Note"]),
        st.sampled_from(["Tony Harmar", "23", "24"]),
    ),
}
SINGLE = st.one_of(*(
    st.tuples(st.sampled_from(["insert", "delete"]), st.just(name), rows)
    for name, rows in ROWS.items()
))
DELETE_LIVE = st.tuples(
    st.just("delete-live"), st.sampled_from(sorted(ROWS)),
    st.integers(0, 10),
)
FAILING_DELETE = st.one_of(*(
    st.tuples(
        st.just("delete-failing"),
        st.just(name),
        st.lists(ROWS[name], min_size=1, max_size=2),
    )
    for name in ("Family", "FC")
))
RUN = st.tuples(
    st.just("run"), st.just(None), st.lists(SINGLE, min_size=2, max_size=4)
)
LONG_RUN = st.just(("long-run", "Family", None))
BULK = st.just(("bulk", "Person", None))
PROGRAMS = st.lists(
    st.one_of(
        SINGLE, SINGLE, DELETE_LIVE, FAILING_DELETE, RUN, LONG_RUN, BULK
    ),
    min_size=1,
    max_size=6,
)


def apply(db, step):
    op, relation, rows = step
    try:
        if op == "insert":
            db.insert(relation, *rows)
        elif op == "delete":
            db.delete(relation, *rows)
        elif op == "delete-live":
            live = db.relation(relation).rows()
            if live:
                db.delete(relation, *live[rows % len(live)].values)
        elif op == "delete-failing":
            # The /delete job's loop: rows before the malformed last
            # one stay deleted.
            for row in [*rows, ("malformed",)]:
                db.delete(relation, *row)
        elif op == "run":
            for single in rows:
                apply(db, single)
        elif op == "long-run":
            for index in range(MAX_MAINTAINED_ROWS + 2):
                db.insert(relation, f"r{index}", f"Run{index}", "vgic")
        else:
            db.insert_all(relation, [
                (f"q{index}", f"Bulk{index}", "Elsewhere")
                for index in range(70)
            ])
    except ReproError:
        pass


def citation_json(engine, text):
    result = engine.cite_union(text) if ";" in text else engine.cite(text)
    return json.dumps(result.citation(), default=str)


def written_relations(step):
    """The relations a step may write, or None when it writes so many
    rows that the engine re-materializes every view."""
    op, relation, rows = step
    if op in ("long-run", "bulk"):
        return None
    if op == "run":
        names = set()
        for single in rows:
            names |= written_relations(single)
        return names
    return {relation}


def check_views(engine, db, registry, history, written):
    """Each view's rows and version against a fresh materialization and
    against every (version, rows) pair the view showed before."""
    store = engine.materialized_views()
    fresh_views = registry.materialize(db)
    for view in registry:
        instance = store.relation(view.name)
        rows = [row.values for row in instance]
        assert rows == fresh_views[view.name], view.name
        version = instance.stats.version
        seen = history.setdefault(view.name, {})
        if seen and rows != seen[max(seen)]:
            assert version not in seen, (view.name, version)
        if written is not None and not written & set(
            view.view.relation_names()
        ):
            assert version == max(seen), view.name
        assert seen.setdefault(version, rows) == rows, (view.name, version)


def check_against_fresh(engine, db, registry):
    fresh = CitationEngine(db, registry)
    texts = [*POINT_TEXTS, *WIDE_TEXTS, UNION_TEXT]
    for text in texts:
        assert citation_json(engine, text) == citation_json(fresh, text), text
    batch = [parse_datalog(text) for text in texts]
    assert [result.citation() for result in engine.cite_batch(batch)] == [
        result.citation() for result in fresh.cite_batch(batch)
    ]
    for token in list(engine.record_cache._store):
        served = engine.record_cache.peek(token, version=engine._epoch)
        if served is not None and isinstance(token, ViewCitationToken):
            view = registry.get(token.view_name)
            assert served == view.citation_for(db, token.parameters), token


@settings(max_examples=50, deadline=None)
@given(program=PROGRAMS)
# V5 grows by family 12's intro and shrinks back to its first rows:
# each re-materialization must still carry a version never seen.
@example(program=[
    ("insert", "FamilyIntro", ("12", "Intro")),
    ("delete", "FamilyIntro", ("12", "Intro")),
])
def test_maintained_engine_equals_fresh_engine(program):
    db = paper_database()
    registry = paper_registry()
    engine = CitationEngine(db, registry)
    history = {}
    check_views(engine, db, registry, history, None)
    check_against_fresh(engine, db, registry)
    for step in program:
        apply(db, step)
        check_views(engine, db, registry, history, written_relations(step))
        check_against_fresh(engine, db, registry)
