"""Each module's __all__ states its public surface exactly."""

import inspect

import pytest

from rnemarket import anomalies, estimation, market, pricing


@pytest.mark.parametrize("module", [pricing, anomalies, market, estimation],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition_and_nothing_else(module):
    listed = set(module.__all__)
    assert len(listed) == len(module.__all__), "duplicate names in __all__"
    assert not [name for name in listed if not hasattr(module, name)]
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - listed == set()
