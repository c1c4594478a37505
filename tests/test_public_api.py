"""Public-API hygiene: the documented surface exists and is documented.

These tests pin the package's contract: everything in ``__all__``
resolves, carries a docstring, and the subpackage exports stay
consistent with the top level — so an accidental rename or dropped
re-export fails loudly instead of surfacing in user code.
"""

import inspect

import pytest

import repro


class TestTopLevelSurface:
    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert int(major) >= 1

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_all_is_sorted_and_unique(self):
        names = [n for n in repro.__all__ if n != "__version__"]
        assert len(set(names)) == len(names)

    def test_public_callables_documented(self):
        undocumented = []
        for name in repro.__all__:
            if name == "__version__":
                continue
            member = getattr(repro, name)
            if callable(member) and not inspect.getdoc(member):
                undocumented.append(name)
        assert undocumented == []

    def test_core_entry_points_present(self):
        for name in (
            "approxrank", "idealrank", "global_pagerank",
            "local_pagerank", "stochastic_complementation", "lpr2",
            "footrule_from_scores", "l1_distance",
            "make_au_like", "make_politics_like",
        ):
            assert name in repro.__all__, name


class TestModuleDocstrings:
    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core.extended",
            "repro.core.idealrank",
            "repro.core.approxrank",
            "repro.core.precompute",
            "repro.core.bounds",
            "repro.baselines.sc",
            "repro.baselines.lpr2",
            "repro.baselines.blockrank",
            "repro.metrics.footrule",
            "repro.metrics.buckets",
            "repro.metrics.kendall_ties",
            "repro.generators.weblike",
            "repro.subgraphs.topic",
            "repro.subgraphs.frontier",
            "repro.pagerank.solver",
            "repro.p2p.network",
            "repro.updates.rerank",
            "repro.search.engine",
            "repro.crawler.bestfirst",
            "repro.objectrank.schema",
        ],
    )
    def test_module_has_substantive_docstring(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        doc = inspect.getdoc(module)
        assert doc and len(doc) > 80, module_name


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        from repro import exceptions

        error_types = [
            getattr(exceptions, name)
            for name in dir(exceptions)
            if name.endswith("Error") and name != "ReproError"
        ]
        assert error_types  # premise
        for error_type in error_types:
            assert issubclass(error_type, exceptions.ReproError), (
                error_type
            )
