"""Property test of the CLI contract over generated and corrupted configs.

Every config that `corrdyn.cli.run` can be handed must end in exit 0, 2, 3
or 4, without a traceback or a numpy warning; a nonzero exit prints exactly
one line on stderr, starting with "error:", and a zero exit prints nothing.
A nonzero exit leaves no file in the output directory.
Configs are drawn for up to 3 sites on small time grids, one in three with
numbers near the ends of the double range, and then up to three of their
entries, at any depth, are replaced by a wrong type, NaN, an infinity, a
bool or an extreme number, or deleted.

A second strategy draws only configs past an exit-4 cap, up to 64 sites:
each must exit 4 with one error line before it writes a file, enters a task
or allocates 1 MiB.  Its "work" kind also draws a step too large for M next
to a task that needs M or the state: that exits 3 in the first timed task,
before any other task.
"""

import contextlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import pytest
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
        # files are written only once every task has returned
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert status == 0 or not written, written
    assert not caught, [str(w.message) for w in caught]
    assert status in (0, 2, 3, 4)
    lines = err.getvalue().splitlines()
    if status:
        assert len(lines) == 1 and lines[0].startswith("error:"), lines
    else:
        assert not lines, lines


def _ladder_labels(n, cartesian, max_tokens):
    """Labels of up to max_tokens tokens on distinct sites below n; ladder
    tokens (+, -) only when not cartesian."""
    axes = "xyz" if cartesian else "xyz+-"
    token_sites = st.lists(st.integers(0, n - 1), min_size=1, max_size=max_tokens, unique=True)
    label = st.builds(
        lambda sites, picks: " ".join(axes[k % len(axes)] + str(i) for i, k in zip(sites, picks)),
        token_sites,
        st.lists(st.integers(0, 4), min_size=max_tokens, max_size=max_tokens),
    )
    return st.lists(label, min_size=1, max_size=3)


def _coupling(i, j, tensor):
    return {"i": i, "j": j, "tensor": tensor}


_DENSE_TENSOR = [[0.3, 0.2, 0.1], [0.2, 0.5, 0.4], [0.1, 0.4, 0.6]]


@st.composite
def refused_configs(draw, kind):
    """A valid config that breaks at least one exit-4 cap, the one `kind`
    names, and is refused before the build, the initial state or any task.

    - "sites": more than DENSE_SITE_CAP = 12 sites, anything else drawn freely;
    - "generator": 10-12 sites with every field component and coupling entry
      nonzero, past BYTES_CAP (2.7 GB of M at 10 sites);
    - "dense": 7-8 sites with a spectral task, past DENSE_DIM_CAP = 4**6;
    - "decompose": 10-12 sites with decompose, past DECOMPOSE_WORK_CAP;
    - "grid": 1-3 sites with a timed task on a grid past STEP_CAP, or
      recording more than BYTES_CAP;
    - "split": an rk4 evolve of 12 sites whose 12-20 zz couplings all join
      the low and the high half: M fits under BYTES_CAP, M with
      rk4's half split does not;
    - "work": 1-3 sites with a timed task on 1e11-1e12 steps, whose samples
      a stride of 1e7-1e9 keeps under BYTES_CAP, past WORK_CAP; or,
      refused by the step check (exit 3) instead, fields of 100 and
      dt = 0.1 next to spectrum, resolvent or decompose.
    """
    tasks = draw(st.lists(st.sampled_from(list(cli._TASKS)), min_size=1, unique=True))
    method = draw(st.sampled_from(["rk4", "expm"]))
    t_max, dt, stride = draw(st.sampled_from([0.05, 1.0, 1e6])), 1e-3, draw(st.integers(1, 10**9))
    n = draw({
        "sites": st.integers(13, 64), "generator": st.integers(10, 12), "dense": st.integers(7, 8),
        "decompose": st.integers(10, 12), "grid": st.integers(1, 3), "split": st.just(12),
        "work": st.integers(1, 3),
    }[kind])
    fields = [[0.0, 0.0, 1.0]] * n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    couplings = [
        _coupling(i, j, _DENSE_TENSOR)
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True))
    ] if pairs else []
    if kind == "generator":
        fields = [[0.3, 0.2, 0.1]] * n
        couplings = [_coupling(i, j, _DENSE_TENSOR) for i, j in pairs]
    elif kind == "dense" and not {"spectrum", "resolvent", "validate"} & set(tasks):
        tasks.append(draw(st.sampled_from(["spectrum", "resolvent", "validate"])))
    elif kind == "decompose" and "decompose" not in tasks:
        tasks.append("decompose")
    elif kind == "grid":
        if not {"evolve", "validate"} & set(tasks):
            tasks.append(draw(st.sampled_from(["evolve", "validate"])))
        if draw(st.booleans()):  # t_max / dt past 2**53, or past the double range
            a = draw(st.integers(0, 300))
            t_max, dt = 10.0**a, 10.0 ** -draw(st.integers(max(0, 16 - a), 300))
        else:  # 1e8 or more samples of at least 32 bytes
            t_max, stride = 10.0 ** draw(st.integers(6, 12)), draw(st.integers(1, 10))
    elif kind == "split":
        crossing = [(i, j) for i in range(6) for j in range(6, 12)]
        zz = draw(st.sampled_from([-1.5, -0.2, 0.3, 1.0]))
        tensor = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, zz]]
        chosen = draw(st.lists(st.sampled_from(crossing), min_size=12, max_size=20, unique=True))
        fields, couplings = [[0.0, 0.0, 0.0]] * n, [_coupling(i, j, tensor) for i, j in chosen]
        tasks, method = ["evolve"], "rk4"  # any other task is refused by another cap
        t_max, stride = 1.0, draw(st.integers(100, 1000))
    elif kind == "work":
        if not {"evolve", "validate"} & set(tasks):
            tasks.append(draw(st.sampled_from(["evolve", "validate"])))
        if draw(st.booleans()):  # rk4: 4e11 matvecs or more; expm: 5.6e8 or more
            t_max, stride = 10.0 ** draw(st.integers(8, 9)), draw(st.integers(10**7, 10**9))
        else:  # dt * ||M||_inf >= 10
            fields, t_max, dt = [[0.0, 0.0, 100.0]] * n, 1.0, 0.1
            if not {"spectrum", "resolvent", "decompose"} & set(tasks):
                tasks.append(draw(st.sampled_from(["spectrum", "resolvent", "decompose"])))
    cartesian = "resolvent" in tasks
    max_tokens = n if kind == "sites" else min(n, 6)  # never parsed past 12 sites
    return {
        "sites": n,
        "fields": fields,
        "couplings": couplings,
        "initial_state": draw(st.sampled_from([
            {"named": {"name": "ghz"}}, {"named": {"name": "w"}},
            {"named": {"name": "cat", "phase": 0.4}}, {"product": [[0.0, 0.6, 0.8]] * n},
        ])),
        "time": {"t_max": t_max, "dt": dt, "stride": stride},
        "observables": draw(_ladder_labels(n, cartesian, max_tokens)),
        "tasks": tasks,
        "method": method,
        "spectrum": {"broadening": 0.1},
        "resolvent": {"z": [[0.5, 0.25]]},
    }


def _spied_tasks(entered: list) -> dict:
    """cli._TASKS with each task appending its name to `entered` when it runs."""

    def spy(name, task):
        def run(*args):
            entered.append(name)
            return task(*args)

        return run

    return {name: spy(name, task) for name, task in cli._TASKS.items()}


@pytest.mark.parametrize(
    "kind", ["sites", "generator", "dense", "decompose", "grid", "split", "work"]
)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_configs_past_a_cap_exit_4_before_allocating(kind, data):
    cfg = data.draw(refused_configs(kind))
    entered = []
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(cli._TASKS, _spied_tasks(entered)):
        path, out = Path(tmp) / "c.json", Path(tmp) / "out"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        tracemalloc.start()
        try:
            with contextlib.redirect_stderr(err):
                status = cli.run(path, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert not written, written
    if status == 3 and kind == "work":  # the step check, in the first timed task
        assert "step too large" in lines[0], lines
        assert len(entered) == 1 and entered[0] in cli._TIMED, entered
    else:
        assert status == 4, lines
        assert "capped" in lines[0], lines
        assert not entered, entered
        assert peak < 1 << 20, peak
