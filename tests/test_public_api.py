import pytest

import cvckit
import cvckit.reductions


@pytest.mark.parametrize("package", [cvckit, cvckit.reductions], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(package):
    assert len(set(package.__all__)) == len(package.__all__)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
