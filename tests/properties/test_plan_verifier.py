"""Property: every plan the planner emits passes the plan verifier.

The verifier (:mod:`repro.analysis.verifier`) re-derives the pushdown
closures and access-path discipline from first principles; if the
planner and the verifier ever disagree on a random query, one of them
has a bug. This suite drives random queries — serial, cached/rebound,
and union-shaped — through planning and asserts a clean bill
of health, which is what lets ``--verify-plans`` run over the whole
test suite without false positives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_plan, verify_plan
from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.plan import QueryPlanner, plan_query, set_plan_verification
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Variable
from repro.cq.ucq import UnionQuery
from repro.relational.database import Database, view_store
from repro.relational.expressions import ComparisonOp
from repro.relational.schema import RelationSchema, Schema

BASE_ARITIES = {"R": 2, "S": 2, "T": 3}
VIRTUAL_ARITIES = {"VR": 2}
ARITIES = {**BASE_ARITIES, **VIRTUAL_ARITIES}

VALUES = st.integers(min_value=0, max_value=4)
MIXED_VALUES = st.one_of(
    VALUES, st.sampled_from(["a", "b"]), st.just(float("nan"))
)
VARIABLES = [Variable(f"X{i}") for i in range(6)]


def make_schema() -> Schema:
    return Schema([
        RelationSchema(name, [f"c{i}" for i in range(arity)])
        for name, arity in BASE_ARITIES.items()
    ])


@st.composite
def databases(draw, values=VALUES):
    db = Database(make_schema())
    for name, arity in BASE_ARITIES.items():
        rows = draw(
            st.lists(st.tuples(*[values] * arity), min_size=0, max_size=8)
        )
        db.insert_all(name, rows)
    return db


@st.composite
def queries(draw, relations=tuple(sorted(ARITIES)), values=VALUES,
            max_comparisons=3):
    atom_count = draw(st.integers(1, 3))
    atoms = []
    for __ in range(atom_count):
        relation = draw(st.sampled_from(relations))
        terms = [
            draw(
                st.one_of(
                    st.sampled_from(VARIABLES),
                    st.builds(Constant, values),
                )
            )
            for __ in range(ARITIES[relation])
        ]
        atoms.append(RelationalAtom(relation, terms))

    relational_vars = sorted(
        {v for atom in atoms for v in atom.variables()}
    )
    comparisons = []
    if relational_vars:
        for __ in range(draw(st.integers(0, max_comparisons))):
            left = draw(st.sampled_from(relational_vars))
            right = draw(
                st.one_of(
                    st.sampled_from(relational_vars),
                    st.builds(Constant, values),
                )
            )
            op = draw(st.sampled_from(list(ComparisonOp)))
            comparisons.append(ComparisonAtom(left, op, right))

    if relational_vars:
        head_size = draw(st.integers(1, min(3, len(relational_vars))))
        head = draw(
            st.lists(
                st.sampled_from(relational_vars),
                min_size=head_size,
                max_size=head_size,
            )
        )
    else:
        head = []
    return ConjunctiveQuery("Q", head, atoms, comparisons)


@st.composite
def virtual_relations(draw):
    virtual = view_store(VIRTUAL_ARITIES)
    for name, arity in VIRTUAL_ARITIES.items():
        virtual.relation(name).insert_many(draw(
            st.lists(st.tuples(*[VALUES] * arity), min_size=0, max_size=6)
        ))
    return virtual


@settings(max_examples=120, deadline=None)
@given(db=databases(), query=queries(relations=tuple(sorted(BASE_ARITIES))))
def test_serial_plans_verify(db, query):
    plan = plan_query(query, db)
    assert check_plan(plan) == []


@settings(max_examples=80, deadline=None)
@given(db=databases(), virtual=virtual_relations(), query=queries())
def test_virtual_relation_plans_verify(db, virtual, query):
    plan = plan_query(query, db, virtual)
    assert check_plan(plan) == []


@settings(max_examples=80, deadline=None)
@given(db=databases(), query=queries(relations=tuple(sorted(BASE_ARITIES))))
def test_cached_and_rebound_plans_verify(db, query):
    """Plans served from the α-equivalence cache (including rebinds of a
    cached canonical plan) satisfy every invariant the fresh plan does.
    Plan verification in always-mode makes the planner raise on the
    spot."""
    before = set_plan_verification("always")
    try:
        planner = QueryPlanner(db)
        first = planner.plan(query)
        second = planner.plan(query)
    finally:
        set_plan_verification(before)
    assert check_plan(first) == []
    assert check_plan(second) == []


@settings(max_examples=60, deadline=None)
@given(
    db=databases(values=MIXED_VALUES),
    query=queries(relations=tuple(sorted(BASE_ARITIES)), values=MIXED_VALUES),
)
def test_mixed_type_and_nan_plans_verify(db, query):
    """NaN constants and mixed-type columns exercise the verifier's
    NaN-tolerant comparison accounting (NaN != NaN under value
    equality) and the degraded scan access paths."""
    plan = plan_query(query, db)
    assert check_plan(plan) == []


@settings(max_examples=60, deadline=None)
@given(
    db=databases(),
    disjuncts=st.lists(
        queries(relations=tuple(sorted(BASE_ARITIES))),
        min_size=1,
        max_size=3,
    ),
)
def test_union_plans_verify(db, disjuncts):
    arity = disjuncts[0].arity
    aligned = [q for q in disjuncts if q.arity == arity]
    union = UnionQuery(aligned)
    planner = QueryPlanner(db)
    for plan in union.plan(db, planner=planner):
        assert check_plan(plan) == []


@settings(max_examples=60, deadline=None)
@given(db=databases(), query=queries(relations=tuple(sorted(BASE_ARITIES))))
def test_verify_plan_is_identity_on_sound_plans(db, query):
    plan = plan_query(query, db)
    assert verify_plan(plan) is plan
