"""The package namespace: every export resolves on first use, to its submodule's object."""

from __future__ import annotations

import importlib
import inspect

import pytest

import qqwalk


def test_every_export_is_the_defining_submodules_object():
    for name in qqwalk.__all__:
        module = importlib.import_module(f"qqwalk.{qqwalk._OWNER[name]}")
        value = getattr(qqwalk, name)
        assert value is getattr(module, name), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == module.__name__, name


def test_an_export_is_read_from_its_submodule_on_every_access(monkeypatch):
    # the benchmark tracer patches a function where it is defined and then
    # restores it; the package must never hand out a binding it kept
    original = qqwalk.path_sum
    monkeypatch.setattr(qqwalk.pathsum, "path_sum", len)
    assert qqwalk.path_sum is len
    monkeypatch.undo()
    assert qqwalk.path_sum is original
    assert "path_sum" not in vars(qqwalk)


def test_dir_lists_every_export_and_submodule():
    assert {*qqwalk.__all__, *qqwalk._EXPORTS} <= set(dir(qqwalk))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from qqwalk import *", namespace)
    assert set(qqwalk.__all__) <= namespace.keys()


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qqwalk.no_such_name
    assert not hasattr(qqwalk, "no_such_name")
