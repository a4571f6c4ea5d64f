"""The report writer: `cli._emit` writes exactly the text that
json.dumps(indent=2, sort_keys=True) writes for the report tree with
its arrays and numpy scalars turned into Python values."""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kcontact import LagrangianModel, cli
from kcontact.models import MODELS
from conftest import cubic
from test_cli import membrane_trace_pair  # noqa: F401  (a fixture)


def per_point(tree):
    """Split arrays whose last axis runs over points, nested in dicts,
    into one such tree per point."""
    if isinstance(tree, dict):
        return [dict(zip(tree, row))
                for row in zip(*map(per_point, tree.values()))]
    return list(np.moveaxis(np.asarray(tree), -1, 0))


def plain(x):
    """The tree with every ndarray as its tolist(), every numpy scalar as
    its item() and a column-held list of entries split point by point."""
    if isinstance(x, cli._Columns):
        entries = {}
        for at, tree in x:
            entries.update(zip(at.tolist(), per_point(tree)))
        assert sorted(entries) == list(range(len(entries)))
        return [plain(entries[i]) for i in range(len(entries))]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return {key: plain(val) for key, val in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(val) for val in x]
    return x


def reference(tree) -> str:
    return json.dumps(plain(tree), indent=2, sort_keys=True) + "\n"


def written(tree) -> str:
    """What `_emit` writes to standard output for `tree`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(tree, None)
    return out.getvalue()


@pytest.fixture
def emitted(monkeypatch):
    """Every (report tree, destination) `_emit` is handed, recorded after
    it has written the report."""
    records, original = [], cli._emit

    def recording(report, output):
        original(report, output)
        records.append((report, output))

    monkeypatch.setattr(cli, "_emit", recording)
    return records


SPEC = {"A": [[1.0, 0.0], [0.0, -1.0]], "D": [0.0, 0.4],
        "G": {"poly": [0.0, 0.25]}}


def report_commands(spec, traces):
    yield from (["derive", "--model", name, "--num-points", "6"]
                for name in MODELS)
    yield ["derive", "--model", "membrane", "--point",
           "q=0.5;v=1,2,-1;s=0.1,0,0", "--point", "v=pi,-2*pi,1e-300"]
    yield ["derive", "--model", "string", "--point", "q=1,2;v=0.5,1,2,-1"]
    yield ["derive", "--model", "string", "--rho", "0", "--num-points", "5"]
    yield ["derive", "--model", "inverse", "--spec", spec,
           "--num-points", "4"]
    for suite in ("reeb", "legendre", "sopde", "symmetry"):
        yield ["verify", "--suite", suite, "--model", "string",
               "--num-points", "12"]
    yield ["verify", "--suite", "symmetry", "--model", "string",
           "--field", "paperY", "--num-points", "12"]
    yield ["verify", "--suite", "symmetry", "--model", "membrane",
           "--field", "scaling", "--num-points", "12"]
    yield ["verify", "--suite", "inverse-roundtrip", "--num-points", "12"]
    yield ["verify", "--suite", "dissipation", "--suite", "hdw",
           "--symmetry", "du", "--trace", traces[0], "--trace", traces[1]]
    yield ["verify", "--suite", "hdw", "--trace", traces[0]]
    yield ["inverse", "--spec", spec, "--num-points", "12"]


CUBIC = ["derive", "--model", "free", "--point", "v=1,2", "--point", "v=0,1",
         "--point", "v=1e-20,1", "--point", "v=-1,0.5", "--point", "v=0,0",
         "--point", "v=3,-1"]


def test_every_report_kind(capsys, tmp_path, emitted, membrane_trace_pair,
                           monkeypatch):
    spec = tmp_path / "telegraph.json"
    spec.write_text(json.dumps(SPEC))
    argvs = list(report_commands(str(spec), membrane_trace_pair))
    # derive of the cubic density: regular and singular points, some
    # with a null hessian_cond; no point regular; sampled points
    cubic_argvs = [CUBIC, CUBIC[:3] + CUBIC[5:7] + CUBIC[11:13],
                   ["derive", "--model", "free", "--num-points", "9"]]
    argvs += cubic_argvs
    for argv in argvs:
        with monkeypatch.context() as patch:
            if argv in cubic_argvs:
                patch.setattr(cli, "build_model", lambda name, params: (
                    LagrangianModel(n=1, k=2, name="cubic",
                                    lagrangian=cubic)))
            assert cli.main(argv) in (0, 3), argv
        out = capsys.readouterr().out
        report, output = emitted[-1]
        text = Path(output).read_text() if output else out
        assert text == reference(report), argv
    assert len(emitted) == len(argvs)
    cubic_points = [plain(report["points"]) for report, _ in emitted[-3:]]
    assert [[entry["regular"] for entry in points]
            for points in cubic_points] == [
        [True, False, False, True, False, True], [False, False], [True] * 9]
    assert [entry["hessian_cond"] is None for entry in cubic_points[0]] == [
        False, True, False, False, True, False]


leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.sampled_from([2 ** 63, -2 ** 64, 10 ** 100]),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                     -5e-324, 1e16, 1.7976931348623157e308]),
    st.text(), st.sampled_from(["é\x00\x1f \U0001F600", '"\\/\b']))
trees = st.recursive(
    leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(trees)
@example({"": [], "a": {}, "b": [[], {}], "c": ()})
@example([math.nan, {"x": -math.inf}, -0.0, True, None, 10 ** 30])
def test_nested_python_values(tree):
    assert written(tree) == reference(tree)


float_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                 max_side=3),
    elements=st.floats(width=64))


@settings(max_examples=200, deadline=None)
@given(float_arrays, st.integers(0, 2))
def test_float_arrays(arr, depth):
    tree = arr
    for _ in range(depth):
        tree = {"x": [tree, arr]}
    assert written(tree) == reference(tree)


ARRAYS = {
    "float-0d": np.array(1.5),
    "float-0d-nan": np.array(math.nan),
    "float-empty": np.zeros(0),
    "float-2x0": np.zeros((2, 0)),
    "float-0x3": np.zeros((0, 3)),
    "float-2x3x1": np.arange(6.0).reshape(2, 3, 1),
    "float-specials": np.array([math.nan, math.inf, -math.inf, -0.0,
                                5e-324, 0.1, 1e16, -1e-7]),
    "float-strided": np.arange(12.0).reshape(3, 4)[:, ::2],
    "float-transposed": np.arange(6.0).reshape(2, 3).T,
    "float-broadcast": np.broadcast_to(np.array([0.25, -0.5]), (3, 2)),
    "float32": np.array([0.1, math.inf, -0.0], dtype=np.float32),
    "int": np.arange(-3, 3),
    "int-0d": np.array(7),
    "int-big": np.array([2 ** 62, -2 ** 63], dtype=np.int64),
    "uint8": np.array([[0, 255]], dtype=np.uint8),
    "uint64-max": np.array([2 ** 64 - 1], dtype=np.uint64),
    "bool": np.array([True, False]),
    "bool-0d": np.array(True),
    "object": np.array([1.5, None, "x", math.nan], dtype=object),
    "object-where": np.where([True, False], np.array([2.0, 3.0]), None),
    "object-empty": np.zeros((0, 2), dtype=object),
    "f64-scalar": np.float64(0.1),
    "f64-scalar-nan": np.float64(math.nan),
    "f32-scalar": np.float32(0.1),
    "int64-scalar": np.int64(-3),
    "uint64-scalar": np.uint64(2 ** 64 - 1),
    "bool-scalar": np.bool_(False),
}


@pytest.mark.parametrize("name", ARRAYS)
def test_arrays_and_numpy_scalars(name):
    x = ARRAYS[name]
    for tree in (x, [x], {"a": x, "b": [{"c": x}, x]}):
        assert written(tree) == reference(tree), name


@pytest.mark.parametrize("tree", [{}, [], (), {"a": []}, [[]], [{}],
                                  {"a": {"b": {}}}, np.zeros(0)])
def test_empty_containers(tree):
    assert written(tree) == reference(tree)


@pytest.mark.parametrize("bad", [{1, 2}, np.longdouble(1.5), 1j,
                                 np.array([1j])])
def test_what_json_refuses_is_refused(bad):
    with pytest.raises(TypeError):
        json.dumps(plain({"a": bad}))
    with pytest.raises(TypeError):
        written({"a": bad})
