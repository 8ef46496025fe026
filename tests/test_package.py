"""The package namespace: ``__all__`` names every public attribute."""

import types

import springsim


def test_star_import_binds_every_name_in_all():
    namespace = {}
    exec("from springsim import *", namespace)
    assert len(set(springsim.__all__)) == len(springsim.__all__)
    assert set(springsim.__all__) <= namespace.keys()


def test_every_public_attribute_is_in_all():
    public = {
        name
        for name, value in vars(springsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(springsim.__all__)
