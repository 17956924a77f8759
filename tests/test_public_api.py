"""Sanity checks on the public API surface."""

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_headline_types_importable(self):
        from repro import (  # noqa: F401
            ConvergenceDetector,
            ReproError,
            SNAPConfig,
            SNAPTrainer,
            Topology,
            TrainingResult,
        )


SUBPACKAGES = [
    "repro.analysis",
    "repro.baselines",
    "repro.consensus",
    "repro.core",
    "repro.data",
    "repro.faults",
    "repro.models",
    "repro.network",
    "repro.orchestrator",
    "repro.runtime",
    "repro.simulation",
    "repro.testing",
    "repro.topology",
    "repro.utils",
    "repro.weights",
]


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} has no __all__"
    for name in module.__all__:
        assert getattr(module, name, None) is not None, f"{package}.{name}"


class TestExceptionHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import exceptions

        for name in dir(exceptions):
            obj = getattr(exceptions, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not exceptions.ReproError and name.endswith("Error"):
                    assert issubclass(obj, exceptions.ReproError), name

    def test_catching_the_base_catches_everything(self):
        from repro.exceptions import ConfigurationError, ReproError

        with pytest.raises(ReproError):
            raise ConfigurationError("x")
