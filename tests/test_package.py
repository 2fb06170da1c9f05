"""The package: exports resolve on first use, and its source builds tuples at their final size."""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
from pathlib import Path

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


ITERATOR_CALLS = {"map", "filter", "zip", "reversed"}


def _iterator(node, generators) -> bool:
    """A generator expression, an ``ITERATOR_CALLS`` call, or a name bound to either."""
    if isinstance(node, ast.Name):
        return node.id in generators
    return isinstance(node, ast.GeneratorExp) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ITERATOR_CALLS)


def test_no_tuple_is_built_from_an_iterator():
    # the rule of the quaternion module docstring: such a tuple is sized by
    # resizing and fills CPython's tuple free list of its final size
    found = []
    for path in sorted(Path(qqwalk.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        generators = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                      and _iterator(node.value, set())
                      for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if (isinstance(node.func, ast.Name) and node.func.id == "tuple" and node.args
                    and _iterator(node.args[0], generators)):
                found.append(f"{path.name}:{node.lineno} tuple() of an iterator")
            found += [f"{path.name}:{node.lineno} * of an iterator" for arg in node.args
                      if isinstance(arg, ast.Starred) and _iterator(arg.value, generators)]
    assert not found, found



_STATE = qqwalk.PeriodicState([(qqwalk.ONE, qqwalk.ONE)])

# each result class, its fields in order, one field changed, and whether it is frozen
RECORDS = [
    ("PQWord", {"blocks": (("P", 2), ("Q", 1))}, {"blocks": (("P", 3),)}, True),
    ("PQRSDecomposition", {"p": qqwalk.ONE, "q": qqwalk.I, "r": qqwalk.J, "s": qqwalk.K,
                           "residual": 0.0}, {"residual": 1e-16}, True),
    ("EigenCandidate", {"state": _STATE, "eigenvalue": qqwalk.ONE}, {"eigenvalue": qqwalk.K},
     False),
    ("TwoStepUniformityReport", {"measure_invariant": True, "spread": 0.0},
     {"measure_invariant": False}, True),
    ("MeasureClass", {"kind": "exponential", "symmetric": True, "uniform_value": None,
                      "gamma": 0.5, "c_plus": 1.0, "c_zero": 2.0, "c_minus": 1.0},
     {"c_minus": 1.5}, False),
    ("PolarInitialState", {"theta_alpha": 0.5, "theta_beta": 1.0, "xi": 0.25,
                           "axis_alpha": (0.0, 0.0, 1.0), "axis_beta": (1.0, 0.0, 0.0)},
     {"axis_beta": (0.0, 1.0, 0.0)}, True),
]


@pytest.mark.parametrize("name, fields, changed, frozen", RECORDS,
                         ids=[row[0] for row in RECORDS])
def test_result_classes_compare_by_value(name, fields, changed, frozen):
    cls = getattr(qqwalk, name)
    record = cls(*fields.values())
    assert [getattr(record, field) for field in fields] == list(fields.values())
    assert record == cls(**fields) and not record != cls(**fields)
    assert record != cls(**{**fields, **changed})
    assert record != tuple(fields.values())
    assert copy.copy(record) == record
    assert repr(record) == f"{name}({', '.join([f'{k}={v!r}' for k, v in fields.items()])})"
    first = next(iter(fields))
    if frozen:
        assert hash(record) == hash(cls(**fields))
        with pytest.raises(AttributeError):
            setattr(record, first, fields[first])
        with pytest.raises(AttributeError):
            delattr(record, first)
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, first, fields[first])
        assert record == cls(**fields)


def test_measure_class_fills_the_parameters_of_its_kind_only():
    tag = qqwalk.MeasureClass("uniform", False, 0.5)
    assert tag == qqwalk.MeasureClass(kind="uniform", symmetric=False, uniform_value=0.5)
    assert [tag.gamma, tag.c_plus, tag.c_zero, tag.c_minus] == [None] * 4
    assert tag.to_json() == {"kind": "uniform", "symmetric": False, "c": 0.5}
