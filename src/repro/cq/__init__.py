"""Conjunctive queries: AST, parsing, evaluation, containment, minimization.

The paper (Section 2) works with queries and views expressed as conjunctive
queries (CQs) with comparison predicates, optionally λ-parameterized.  This
subpackage provides the full CQ toolchain used by the citation model:

- :mod:`repro.cq.terms` / :mod:`repro.cq.atoms` / :mod:`repro.cq.query` —
  the abstract syntax (variables, constants, relational and comparison
  atoms, λ-parameterized queries).
- :mod:`repro.cq.parser` — a Datalog-style concrete syntax matching the
  paper's notation, e.g. ``lambda F. V1(F,N,Ty) :- Family(F,N,Ty)``.
- :mod:`repro.cq.sql_parser` — a small SQL SELECT-FROM-WHERE front-end.
- :mod:`repro.cq.evaluation` — set-semantics evaluation and full binding
  enumeration over a :class:`~repro.relational.database.Database`.
- :mod:`repro.cq.containment` — homomorphism-based containment and
  equivalence (with sound handling of comparison predicates).
- :mod:`repro.cq.minimization` — core computation (query minimization).
"""

from repro.cq.terms import Term, Variable, Constant
from repro.cq.atoms import RelationalAtom, ComparisonAtom
from repro.cq.query import ConjunctiveQuery
from repro.cq.parser import parse_query, parse_atom
from repro.cq.sql_parser import parse_sql
from repro.cq.canonical import canonical_key, canonicalize
from repro.cq.plan import (
    JoinStep,
    QueryPlan,
    QueryPlanner,
    plan_query,
    prefix_keys,
)
from repro.cq.executor import execute_plan
from repro.cq.subplan import (
    SubplanMemo,
    execute_plan_shared,
    explain_with_memo,
)
from repro.cq.evaluation import (
    evaluate_query,
    enumerate_bindings,
    reference_bindings,
    Binding,
)
from repro.cq.containment import (
    is_contained_in,
    are_equivalent,
    find_homomorphism,
    ComparisonClosure,
)
from repro.cq.minimization import minimize
from repro.cq.ucq import UnionQuery, parse_union_query

__all__ = [
    "UnionQuery",
    "parse_union_query",
    "Term",
    "Variable",
    "Constant",
    "RelationalAtom",
    "ComparisonAtom",
    "ConjunctiveQuery",
    "parse_query",
    "parse_atom",
    "parse_sql",
    "canonical_key",
    "canonicalize",
    "JoinStep",
    "QueryPlan",
    "QueryPlanner",
    "plan_query",
    "prefix_keys",
    "SubplanMemo",
    "execute_plan_shared",
    "explain_with_memo",
    "execute_plan",
    "evaluate_query",
    "enumerate_bindings",
    "reference_bindings",
    "Binding",
    "is_contained_in",
    "are_equivalent",
    "find_homomorphism",
    "ComparisonClosure",
    "minimize",
]
