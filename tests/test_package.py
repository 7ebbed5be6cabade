"""The public surface: every exported name resolves, a star import binds exactly those names, and removed API stays gone."""

import vmrt


def test_every_exported_name_is_an_attribute_of_the_package():
    assert len(set(vmrt.__all__)) == len(vmrt.__all__)
    assert [name for name in vmrt.__all__ if not hasattr(vmrt, name)] == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from vmrt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(vmrt.__all__)


def test_sparse_poly_has_no_generic_compose():
    # evaluation is an integer kernel; the generic substitution lives on only as
    # the tests' reference, test_poly.reference_compose
    assert not hasattr(vmrt.SparsePoly, "compose")
