"""Every exported name resolves, so no deletion leaves a stale export."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["eigenmin", "eigenmin.eigen", "eigenmin.fem",
                                  "eigenmin.trial", "eigenmin.verify"])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
