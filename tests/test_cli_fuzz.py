"""Property test of the CLI contract over generated and corrupted configs.

Every config that `corrdyn.cli.run` can be handed must end in exit 0, 2, 3
or 4, without a traceback or a numpy warning; a nonzero exit prints exactly
one line on stderr, starting with "error:", and a zero exit prints nothing.
An exit 2 leaves no file in the output directory.
Configs are drawn for up to 3 sites on small time grids, one in three with
numbers near the ends of the double range, and then up to three of their
entries, at any depth, are replaced by a wrong type, NaN, an infinity, a
bool or an extreme number, or deleted.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from corrdyn import cli

EXTREMES = [0.0, 1e-300, 5e-324, 1e150, -1e300, 1e300, 1.7e308]
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 10**30, -1, 0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.sampled_from(["name", "z", "x"]), st.integers(0, 2), max_size=1),
)
# labels valid on two or more sites, drawn three times as often as malformed ones
LABELS = ["z0", "x0", "+0", "-0", "y0 x1", "-0 z1"] * 3 + ["q0", "z7", "x0 x0", ""]


def _vec(numbers, size=3):
    return st.lists(numbers, min_size=size, max_size=size)


@st.composite
def states(draw, n, numbers):
    kind = draw(st.sampled_from(["product", "named", "correlators"]))
    if kind == "product":
        bloch = st.floats(-0.5, 0.5) | numbers
        return {"product": draw(st.lists(_vec(bloch), min_size=n, max_size=n))}
    if kind == "named":
        name = draw(st.sampled_from(["cat", "ghz", "w"] * 3 + ["bell"]))
        return {"named": {"name": name, "phase": draw(numbers)}}
    labels = st.sampled_from(["z0", "x0", "y0 x1", "z0 z1", "+0"])
    return {"correlators": draw(st.dictionaries(labels, st.floats(-1.0, 1.0), max_size=3))}


def _paths(node, prefix=()):
    """The key path of every entry, at any depth, of a nested JSON value."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for k in keys:
        yield prefix + (k,)
        if isinstance(node[k], (dict, list)) and node[k]:
            yield from _paths(node[k], prefix + (k,))


@st.composite
def configs(draw):
    n = draw(st.integers(1, 3))
    # one config in three may carry numbers near the ends of the double range
    numbers = st.floats(-3.0, 3.0)
    if draw(st.sampled_from([False, False, True])):
        numbers = numbers | st.sampled_from(EXTREMES)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coupled = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    cfg = {
        "sites": n,
        "fields": draw(st.lists(_vec(numbers), min_size=n, max_size=n)),
        "couplings": [
            {"i": i, "j": j, "tensor": draw(st.lists(_vec(numbers), min_size=3, max_size=3))}
            for i, j in coupled
        ],
        "initial_state": draw(states(n, numbers)),
        "time": {
            "t_max": draw(st.sampled_from([0.02, 0.05, 0.1])),
            "dt": draw(st.sampled_from([0.001, 0.005, 0.01])),
            "stride": draw(st.integers(1, 5)),
        },
        "observables": draw(st.lists(st.sampled_from(LABELS), max_size=3)),
        "tasks": draw(st.lists(st.sampled_from(list(cli._TASKS)), min_size=1, unique=True)),
        "method": draw(st.sampled_from(["rk4", "expm"])),
        "spectrum": {"broadening": draw(st.one_of(st.none(), st.floats(0.01, 2.0)))},
        "resolvent": {"z": draw(st.lists(_vec(numbers, 2), min_size=1, max_size=2))},
    }
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        path = draw(st.sampled_from(list(_paths(cfg))))
        parent = cfg
        for k in path[:-1]:
            parent = parent[k]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JUNK)
        if not cfg:
            break
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(configs())
def test_any_config_exits_by_the_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            status = cli.run(path, out)
        # every config error is found before the first task writes a file
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert status != 2 or not written, written
    assert not caught, [str(w.message) for w in caught]
    assert status in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if status:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        assert not lines, lines
