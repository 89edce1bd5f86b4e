"""Property: the planned executor is binding-for-binding equivalent to
the reference evaluator.

The refactor split evaluation into statistics → plan → execute
(:mod:`repro.cq.plan` / :mod:`repro.cq.executor`); the pre-planner greedy
interpreter survives as :func:`repro.cq.evaluation.reference_bindings`.
Cost-based join ordering may enumerate bindings in a different *order*,
but the *multiset* of bindings — which is what the citation model counts
(Def 3.2 sums one monomial per binding) — must be identical on every
query, database, and virtual-relation combination.
"""

import warnings
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.atoms import ComparisonAtom, RelationalAtom
from repro.cq.evaluation import (
    enumerate_bindings,
    evaluate_query,
    reference_bindings,
)
from repro.cq.plan import QueryPlanner, plan_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.terms import Constant, Variable
from repro.relational.database import Database, view_store
from repro.relational.expressions import ComparisonOp
from repro.relational.schema import RelationSchema, Schema

BASE_ARITIES = {"R": 2, "S": 2, "T": 3}
VIRTUAL_ARITIES = {"VR": 2}
ARITIES = {**BASE_ARITIES, **VIRTUAL_ARITIES}

VALUES = st.integers(min_value=0, max_value=4)
VARIABLES = [Variable(f"X{i}") for i in range(6)]


def make_schema() -> Schema:
    return Schema([
        RelationSchema(name, [f"c{i}" for i in range(arity)])
        for name, arity in BASE_ARITIES.items()
    ])


@st.composite
def databases(draw):
    db = Database(make_schema())
    for name, arity in BASE_ARITIES.items():
        rows = draw(
            st.lists(
                st.tuples(*[VALUES] * arity), min_size=0, max_size=8
            )
        )
        db.insert_all(name, rows)
    return db


@st.composite
def virtual_relations(draw):
    virtual = view_store(VIRTUAL_ARITIES)
    for name, arity in VIRTUAL_ARITIES.items():
        virtual.relation(name).insert_many(draw(
            st.lists(st.tuples(*[VALUES] * arity), min_size=0, max_size=6)
        ))
    return virtual


@st.composite
def queries(draw, relations=tuple(sorted(ARITIES))):
    atom_count = draw(st.integers(1, 3))
    atoms = []
    for __ in range(atom_count):
        relation = draw(st.sampled_from(relations))
        terms = [
            draw(
                st.one_of(
                    st.sampled_from(VARIABLES),
                    st.builds(Constant, VALUES),
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
        for __ in range(draw(st.integers(0, 2))):
            left = draw(st.sampled_from(relational_vars))
            right = draw(
                st.one_of(
                    st.sampled_from(relational_vars),
                    st.builds(Constant, VALUES),
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


def binding_key(binding):
    return tuple(sorted((var.name, value) for var, value in binding.items()))


@settings(max_examples=120, deadline=None)
@given(db=databases(), virtual=virtual_relations(), query=queries())
def test_planned_bindings_equal_reference_multiset(db, virtual, query):
    planned = Counter(
        binding_key(b) for b in enumerate_bindings(query, db, virtual)
    )
    reference = Counter(
        binding_key(b) for b in reference_bindings(query, db, virtual)
    )
    assert planned == reference


@settings(max_examples=60, deadline=None)
@given(db=databases(), query=queries(relations=tuple(sorted(BASE_ARITIES))))
def test_planned_bindings_equal_reference_without_virtual(db, query):
    planned = Counter(binding_key(b) for b in enumerate_bindings(query, db))
    reference = Counter(binding_key(b) for b in reference_bindings(query, db))
    assert planned == reference


@settings(max_examples=60, deadline=None)
@given(db=databases(), virtual=virtual_relations(), query=queries())
def test_cached_plans_do_not_change_results(db, virtual, query):
    """Going through the α-equivalence plan cache (including the rebind of
    a cached canonical plan) never changes the binding multiset."""
    planner = QueryPlanner(db)
    first = Counter(
        binding_key(b)
        for b in enumerate_bindings(query, db, virtual, planner=planner)
    )
    second = Counter(
        binding_key(b)
        for b in enumerate_bindings(query, db, virtual, planner=planner)
    )
    reference = Counter(
        binding_key(b) for b in reference_bindings(query, db, virtual)
    )
    assert first == second == reference
    assert planner.hits >= 1


@settings(max_examples=80, deadline=None)
@given(
    db=databases(),
    query=queries(relations=tuple(sorted(BASE_ARITIES))),
    data=st.data(),
)
def test_pushdown_equality_chains_preserve_multiset(db, query, data):
    """Extra ``=`` chains (X = Y, Y = c, contradictions, transitive
    constants) are exactly what comparison pushdown folds into access
    paths; the binding multiset must never change."""
    variables = sorted(query.relational_variables())
    comparisons = list(query.comparisons)
    for __ in range(data.draw(st.integers(1, 3)) if variables else 0):
        left = data.draw(st.sampled_from(variables))
        right = data.draw(
            st.one_of(
                st.sampled_from(variables),
                st.builds(Constant, VALUES),
            )
        )
        comparisons.append(ComparisonAtom(left, ComparisonOp.EQ, right))
    chained = ConjunctiveQuery(query.name, query.head, query.atoms,
                               comparisons)
    planned = Counter(
        binding_key(b) for b in enumerate_bindings(chained, db)
    )
    reference = Counter(
        binding_key(b) for b in reference_bindings(chained, db)
    )
    assert planned == reference


# ---------------------------------------------------------------------------
# Range pushdown (ordered access paths)
# ---------------------------------------------------------------------------

RANGE_OPS = [
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
]

#: Values that stress the ordered path: NaN (excluded from sorted
#: indexes, never satisfies a range), strings (mixed-type columns
#: degrade to scan + residual re-check), and a narrow integer band
#: (so random intervals are frequently empty or selective).
MIXED_VALUES = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["a", "b"]),
    st.just(float("nan")),
)


@st.composite
def mixed_databases(draw):
    db = Database(make_schema())
    for name, arity in BASE_ARITIES.items():
        rows = draw(
            st.lists(
                st.tuples(*[MIXED_VALUES] * arity), min_size=0, max_size=8
            )
        )
        db.insert_all(name, rows)
    return db


def _with_range_chain(query, data, values=VALUES):
    """Append 1-3 random var-vs-const range comparisons to ``query``."""
    variables = sorted(query.relational_variables())
    comparisons = list(query.comparisons)
    if variables:
        for __ in range(data.draw(st.integers(1, 3))):
            left = data.draw(st.sampled_from(variables))
            op = data.draw(st.sampled_from(RANGE_OPS))
            comparisons.append(
                ComparisonAtom(left, op, Constant(data.draw(values)))
            )
    return ConjunctiveQuery(query.name, query.head, query.atoms, comparisons)


@settings(max_examples=100, deadline=None)
@given(
    db=databases(),
    query=queries(relations=tuple(sorted(BASE_ARITIES))),
    data=st.data(),
)
def test_pushdown_range_chains_preserve_multiset(db, query, data):
    """Random `<`/`<=`/`>`/`>=` chains — merged intervals, empty
    intervals, ranges interacting with equality chains — never change
    the binding multiset vs the reference evaluator."""
    chained = _with_range_chain(query, data)
    planned = Counter(
        binding_key(b) for b in enumerate_bindings(chained, db)
    )
    reference = Counter(
        binding_key(b) for b in reference_bindings(chained, db)
    )
    assert planned == reference


@settings(max_examples=100, deadline=None)
@given(db=mixed_databases(), query=queries(relations=tuple(sorted(BASE_ARITIES))),
       data=st.data())
def test_range_pushdown_on_nan_and_mixed_type_data(db, query, data):
    """Mixed-type columns and NaN values degrade to scan + residual
    re-check (warning, never a raised TypeError from bisect), with the
    reference multiset preserved."""
    chained = _with_range_chain(
        query,
        data,
        values=st.one_of(
            st.integers(min_value=0, max_value=4), st.sampled_from(["a", "b"])
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        planned = Counter(
            binding_key(b) for b in enumerate_bindings(chained, db)
        )
        reference = Counter(
            binding_key(b) for b in reference_bindings(chained, db)
        )
    assert planned == reference


# ---------------------------------------------------------------------------
# Composite pushdown (hash probe + in-bucket bisect)
# ---------------------------------------------------------------------------


def _with_equality_and_range_chain(query, data, values=VALUES):
    """Append var=const equalities *and* range comparisons, the mix that
    drives steps onto composite access paths."""
    variables = sorted(query.relational_variables())
    comparisons = list(query.comparisons)
    if variables:
        for __ in range(data.draw(st.integers(1, 2))):
            comparisons.append(
                ComparisonAtom(
                    data.draw(st.sampled_from(variables)),
                    ComparisonOp.EQ,
                    Constant(data.draw(values)),
                )
            )
        for __ in range(data.draw(st.integers(1, 2))):
            comparisons.append(
                ComparisonAtom(
                    data.draw(st.sampled_from(variables)),
                    data.draw(st.sampled_from(RANGE_OPS)),
                    Constant(data.draw(values)),
                )
            )
    return ConjunctiveQuery(query.name, query.head, query.atoms, comparisons)


@settings(max_examples=100, deadline=None)
@given(
    db=databases(),
    query=queries(relations=tuple(sorted(BASE_ARITIES))),
    data=st.data(),
)
def test_pushdown_composite_chains_preserve_multiset(db, query, data):
    """Random equality + range mixes — the shapes that plan to composite
    access paths (hash probe + in-bucket bisect), plus every degenerate
    combination around them — never change the binding multiset vs the
    reference evaluator."""
    chained = _with_equality_and_range_chain(query, data)
    planned = Counter(
        binding_key(b) for b in enumerate_bindings(chained, db)
    )
    reference = Counter(
        binding_key(b) for b in reference_bindings(chained, db)
    )
    assert planned == reference


@settings(max_examples=80, deadline=None)
@given(db=mixed_databases(), query=queries(relations=tuple(sorted(BASE_ARITIES))),
       data=st.data())
def test_composite_pushdown_on_nan_and_mixed_type_data(db, query, data):
    """Mixed-type buckets degrade to hash probe + residual re-check and
    NaN rows are excluded from composite buckets (the residual filter
    rejects them either way); the reference multiset is preserved."""
    chained = _with_equality_and_range_chain(
        query,
        data,
        values=st.one_of(
            st.integers(min_value=0, max_value=4), st.sampled_from(["a", "b"])
        ),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        planned = Counter(
            binding_key(b) for b in enumerate_bindings(chained, db)
        )
        reference = Counter(
            binding_key(b) for b in reference_bindings(chained, db)
        )
    assert planned == reference


@settings(max_examples=60, deadline=None)
@given(db=databases(), query=queries(relations=tuple(sorted(BASE_ARITIES))),
       data=st.data())
def test_empty_interval_short_circuit_matches_reference(db, query, data):
    """Contradictory bounds (lo > hi) prove emptiness at plan time; the
    short-circuited plan must agree with the reference evaluator."""
    variables = sorted(query.relational_variables())
    if not variables:
        return
    var = data.draw(st.sampled_from(variables))
    bound = data.draw(VALUES)
    comparisons = list(query.comparisons) + [
        ComparisonAtom(var, ComparisonOp.GT, Constant(bound)),
        ComparisonAtom(var, ComparisonOp.LT, Constant(bound)),
    ]
    contradictory = ConjunctiveQuery(
        query.name, query.head, query.atoms, comparisons
    )
    plan = plan_query(contradictory, db)
    assert plan.empty
    assert list(enumerate_bindings(contradictory, db)) == []
    assert list(reference_bindings(contradictory, db)) == []


@settings(max_examples=60, deadline=None)
@given(db=databases(), query=queries(relations=tuple(sorted(BASE_ARITIES))))
def test_evaluate_query_same_tuple_set(db, query):
    """Set-semantics results agree (order may differ with join order)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        planned = set(evaluate_query(query, db))
    reference_tuples = set()
    for binding in reference_bindings(query, db):
        reference_tuples.add(
            tuple(
                term.value if isinstance(term, Constant) else binding[term]
                for term in query.head
            )
        )
    assert planned == reference_tuples
