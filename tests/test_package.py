"""The public surface: every exported name resolves, and a star import binds exactly those names."""

import vmrt


def test_every_exported_name_is_an_attribute_of_the_package():
    assert len(set(vmrt.__all__)) == len(vmrt.__all__)
    assert [name for name in vmrt.__all__ if not hasattr(vmrt, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from vmrt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(vmrt.__all__)
