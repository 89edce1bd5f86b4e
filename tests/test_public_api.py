"""The public API surface: everything advertised must import and work."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_all_names_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module", [
        "repro.relational", "repro.relational.io", "repro.cq",
        "repro.cq.ucq", "repro.semiring",
        "repro.views", "repro.rewriting", "repro.citation",
        "repro.citation.explain", "repro.citation.cache",
        "repro.citation.policy_language", "repro.gtopdb", "repro.fixity",
        "repro.fixity.temporal", "repro.workload", "repro.baseline",
        "repro.cli",
    ])
    def test_submodules_importable(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} needs a module docstring"

    def test_subpackage_all_resolvable(self):
        for module_name in ("repro.cq", "repro.semiring", "repro.views",
                            "repro.rewriting", "repro.citation",
                            "repro.workload", "repro.fixity"):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.{name}"


class TestReadmeQuickstart:
    """The README quickstart must actually run."""

    def test_quickstart_snippet(self):
        from repro import CitationEngine
        from repro.gtopdb import paper_database, paper_registry

        db = paper_database()
        engine = CitationEngine(db, paper_registry())
        result = engine.cite('Q(N) :- Family(F,N,Ty), Ty = "gpcr"')
        payload = result.citation()
        assert payload["citations"]

    def test_custom_views_snippet(self):
        from repro import (
            CitationView, Database, RelationSchema, Schema, ViewRegistry,
        )

        schema = Schema([
            RelationSchema("Collection", ["CID", "CName", "Topic"],
                           key=["CID"]),
            RelationSchema("Curator", ["CID", "Name"],
                           key=["CID", "Name"]),
        ])
        view = CitationView.from_strings(
            view="lambda C. VColl(C, N, T) :- Collection(C, N, T)",
            citation_query=(
                "lambda C. CV(C, N, P) :- Collection(C, N, T), "
                "Curator(C, P)"
            ),
            labels=("Collection", "Name", "Curators"),
        )
        registry = ViewRegistry(schema, [view])
        db = Database(schema)
        db.insert("Collection", "c1", "Proteomics", "bio")
        db.insert("Curator", "c1", "Ada")
        from repro import CitationEngine
        result = CitationEngine(db, registry).cite(
            "Q(N) :- Collection(C, N, T)"
        )
        assert result.tuples


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_catching_base_class(self):
        from repro import ReproError, parse_query
        with pytest.raises(ReproError):
            parse_query("not a query at all !!!")
