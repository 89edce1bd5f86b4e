"""Property: the mutation endpoints never answer 5xx or serve stale views.

Hypothesis draws ``/insert`` and ``/delete`` bodies for ``Family`` whose
rows have arity 0-4 and hold arbitrary JSON values (text, ints, floats,
booleans, null, small lists and objects), mixed with well-formed rows
over a small key pool so that inserts, key violations and deletes of
live rows all happen.  Every reply must be a 200 or a 4xx carrying an
``error`` string, and after every reply ``/cite`` of a type-wide query
must equal a fresh engine's citation over the same database: rows
applied before a failing one must not leave the pre-mutation views
behind.  The service runs once over the typed paper schema and once
over the same data loaded from a project file, which carries no column
domains (what ``repro serve`` loads).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.citation.generator import CitationEngine
from repro.citation.policy import focused_policy
from repro.gtopdb.sample import paper_database
from repro.gtopdb.views import paper_registry
from repro.relational.io import dump_project, load_project
from repro.service import ServiceClient, ServiceThread

QUERY = 'Q(N) :- Family(F, N, Ty), Ty = "gpcr"'

SCALARS = st.one_of(
    st.sampled_from(["11", "12", "gpcr", "vgic", "b"]),
    st.text(max_size=3),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=2),
        st.dictionaries(st.text(max_size=2), inner, max_size=2),
    ),
    max_leaves=3,
)
WELL_FORMED = st.tuples(
    st.sampled_from(["11", "12", "90", "91"]),
    st.sampled_from(["Fresh", "Other"]),
    st.sampled_from(["gpcr", "vgic"]),
).map(list)
ROWS = st.one_of(WELL_FORMED, st.lists(VALUES, max_size=4))


def engine_over(db):
    registry = paper_registry(db.schema)
    return CitationEngine(db, registry, policy=focused_policy(registry))


@pytest.fixture(scope="module", params=["typed", "untyped"])
def served(request, tmp_path_factory):
    db = paper_database()
    if request.param == "untyped":
        path = tmp_path_factory.mktemp("project") / "paper.json"
        dump_project(db, path)
        db, __ = load_project(path)
    engine = engine_over(db)
    with ServiceThread(engine) as handle:
        client = ServiceClient(handle.base_url)
        try:
            yield engine, client
        finally:
            client.close()


@settings(max_examples=50, deadline=None)
@given(
    path=st.sampled_from(["/insert", "/delete"]),
    rows=st.lists(ROWS, min_size=1, max_size=3),
)
def test_mutation_bodies_answer_typed_and_leave_no_stale_view(
    served, path, rows
):
    engine, client = served
    assert client.cite(QUERY).status == 200  # views materialized
    reply = client.post(path, {"relation": "Family", "rows": rows})
    assert reply.status == 200 or 400 <= reply.status < 500, reply.data
    if reply.status != 200:
        assert isinstance(reply.data.get("error"), str)
    cited = client.cite(QUERY)
    assert cited.status == 200
    assert cited.data == engine_over(engine.db).cite(QUERY).citation()
