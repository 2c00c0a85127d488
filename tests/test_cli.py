import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from corrdyn import cli


def write_config(path, **overrides):
    cfg = {
        "sites": 2,
        "fields": [[0.8, 0.0, 0.0], [0.6, 0.0, 0.0]],
        "couplings": [{"i": 0, "j": 1, "tensor": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]}],
        "initial_state": {"named": {"name": "cat", "phase": 0.0}},
        "time": {"t_max": 2.0, "dt": 0.01, "stride": 50},
        "observables": ["z0", "x0 x1"],
        "tasks": ["evolve"],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_run_evolve_writes_trajectory(tmp_path):
    cfg = write_config(tmp_path / "c.json")
    assert cli.run(cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,z0,x0 x1"
    assert len(lines) == 2 + 4  # header + t=0 + 4 recorded steps
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[2]) - 1.0) < 1e-12  # cat xx at t=0


def test_free_spin_larmor_trace(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        sites=1,
        fields=[[0.0, 0.0, 1.0]],
        couplings=[],
        initial_state={"product": [[1.0, 0.0, 0.0]]},
        observables=["x0"],
        time={"t_max": 2.0, "dt": 0.001, "stride": 250},
    )
    assert cli.run(cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
    for line in lines:
        t, x = (float(v) for v in line.split(","))
        assert abs(x - np.cos(t)) < 1e-9


def test_spectrum_task(tmp_path):
    cfg = write_config(tmp_path / "c.json", tasks=["spectrum"])
    assert cli.run(cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "omega,multiplicity"
    rows = [ln.split(",") for ln in lines[1:]]
    freqs = [float(r[0]) for r in rows]
    mults = [int(r[1]) for r in rows]
    e1, e2 = 0.5 * np.sqrt(2.96), 0.5 * np.sqrt(1.04)
    assert np.allclose(freqs, sorted([e1 - e2, 2 * e2, e1 + e2, 2 * e1]), atol=1e-9)
    assert mults == [2, 1, 2, 1]


def test_spectrum_density_output(tmp_path):
    cfg = write_config(tmp_path / "c.json", tasks=["spectrum"], spectrum={"broadening": 0.05})
    assert cli.run(cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "density.csv").read_text().splitlines()
    assert lines[0] == "omega,density"
    dens = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(dens[:, 1] >= 0.0)
    # peaks concentrate around the four frequencies
    assert dens[:, 1].max() > 1.0


def test_validate_task(tmp_path):
    cfg = write_config(tmp_path / "c.json", tasks=["validate"])
    assert cli.run(cfg, tmp_path / "out") == 0
    report = dict(
        line.split("=", 1)
        for line in (tmp_path / "out" / "validate.txt").read_text().splitlines()
    )
    assert report["status"] == "ok"
    assert float(report["max_abs_deviation"]) < 1e-8
    assert int(report["kernel_dim"]) == 3


def test_decompose_task(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        sites=3,
        fields=[[0, 0, 0]] * 3,
        couplings=[],
        initial_state={"named": {"name": "ghz"}},
        tasks=["decompose"],
    )
    assert cli.run(cfg, tmp_path / "out") == 0
    text = (tmp_path / "out" / "decomposition.txt").read_text()
    report = dict(
        line.split("=", 1) for line in text.splitlines() if "subset" not in line
    )
    assert float(report["reconstruction_error"]) < 1e-12
    assert float(report["cumulant_reconstruction_error"]) < 1e-12
    assert float(report["max_single_cell_trace"]) < 1e-12
    assert "subset=0,1,2 " in text


def test_resolvent_task(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        tasks=["resolvent"],
        observables=["z0", "x0 x1"],
        resolvent={"z": [[0.5, 0.5]]},
    )
    assert cli.run(cfg, tmp_path / "out") == 0
    lines = (tmp_path / "out" / "resolvent.csv").read_text().splitlines()
    assert lines[0] == "re_z,im_z,row,col,re_g,im_g"
    assert len(lines) == 1 + 4  # 2x2 entries for one z


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(
        tmp_path / "c.json", tasks=["evolve", "spectrum", "decompose", "validate"]
    )
    assert cli.run(cfg, tmp_path / "a") == 0
    assert cli.run(cfg, tmp_path / "b") == 0
    for name in ("trajectory.csv", "spectrum.csv", "decomposition.txt", "validate.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_ladder_observable_columns(tmp_path):
    cfg = write_config(tmp_path / "c.json", observables=["+0"])
    assert cli.run(cfg, tmp_path / "out") == 0
    header = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,+0.re,+0.im"


def test_product_and_correlator_initial_states(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        initial_state={"product": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
    )
    assert cli.run(cfg, tmp_path / "a") == 0
    cfg = write_config(
        tmp_path / "c2.json",
        initial_state={"correlators": {"x0": 1.0, "z1": 1.0, "x0 z1": 1.0}},
    )
    assert cli.run(cfg, tmp_path / "b") == 0
    a = (tmp_path / "a" / "trajectory.csv").read_bytes()
    b = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert a == b  # the same product state through both entrances


def test_parse_failures_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(bad, tmp_path / "out") == 2

    cfg = write_config(tmp_path / "c.json", observables=["q0"])
    assert cli.run(cfg, tmp_path / "out") == 2

    cfg = write_config(tmp_path / "c.json", observables=["z0 z0"])
    assert cli.run(cfg, tmp_path / "out") == 2

    cfg = write_config(tmp_path / "c.json", tasks=["fly"])
    assert cli.run(cfg, tmp_path / "out") == 2

    cfg = write_config(tmp_path / "c.json", couplings=[{"i": 1, "j": 0, "tensor": [[0] * 3] * 3}])
    assert cli.run(cfg, tmp_path / "out") == 2


def test_numeric_failures_exit_3(tmp_path):
    cfg = write_config(tmp_path / "c.json", time={"t_max": 1.0, "dt": 5.0})
    assert cli.run(cfg, tmp_path / "out") == 3

    cfg = write_config(
        tmp_path / "c.json",
        tasks=["resolvent"],
        resolvent={"z": [[0.0, 0.0]]},  # the kernel pole
    )
    assert cli.run(cfg, tmp_path / "out") == 3


def test_size_cap_exit_4(tmp_path):
    cfg = write_config(
        tmp_path / "c.json",
        sites=7,
        fields=[[0.0, 0.0, 1.0]] * 7,
        couplings=[],
        initial_state={"named": {"name": "ghz"}},
        tasks=["spectrum"],
    )
    assert cli.run(cfg, tmp_path / "out") == 4


def test_error_lines_are_prefixed(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert cli.run(bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path / "c.json", tasks=["spectrum"])
    # the child imports the same corrdyn as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "corrdyn.cli", "spectrum", str(cfg), "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert (tmp_path / "out" / "spectrum.csv").exists()


@pytest.mark.parametrize("command", ["validate", "spectrum"])
def test_subcommand_overrides_tasks(tmp_path, command):
    # resolvent's own rules (z given, Cartesian observables) apply only when it runs
    cfg = write_config(tmp_path / "c.json", tasks=["evolve", "resolvent"], observables=["+0"])
    assert cli.main([command, str(cfg), "--out-dir", str(tmp_path / "out")]) == 0
    output = {"validate": "validate.txt", "spectrum": "spectrum.csv"}[command]
    assert (tmp_path / "out" / output).exists()
    assert not (tmp_path / "out" / "trajectory.csv").exists()


# the time block is required when the forced task or a listed one steps in time
@pytest.mark.parametrize(
    "command, listed", [("validate", ["spectrum"]), ("spectrum", ["evolve"])],
    ids=["validate", "spectrum"],
)
def test_subcommand_without_time_block_exits_2(tmp_path, capsys, command, listed):
    cfg = write_config(tmp_path / "c.json", tasks=listed)
    raw = json.loads(cfg.read_text())
    del raw["time"]
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([command, str(cfg), "--out-dir", str(out)]) == 2
    assert _one_error_line(capsys) == "error: missing config key 'time'"
    assert not out.exists()


def test_seventeen_digit_floats(tmp_path):
    cfg = write_config(tmp_path / "c.json", tasks=["spectrum"])
    assert cli.run(cfg, tmp_path / "out") == 0
    freq = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1].split(",")[0]
    # round trips exactly through repr
    assert float(freq) == float(format(float(freq), ".17g"))
    assert len(freq.replace(".", "").replace("-", "").lstrip("0")) >= 16


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    return lines[0]


def test_malformed_resolvent_z_exits_2(tmp_path, capsys):
    for zs in ([[1]], [1, 2], [[float("nan"), 1]], [[0.5, float("inf")]], [[True, 0.5]]):
        cfg = write_config(tmp_path / "c.json", tasks=["resolvent"], resolvent={"z": zs})
        out = tmp_path / "out"
        assert cli.run(cfg, out) == 2, zs
        assert "resolvent.z" in _one_error_line(capsys)
        assert not (out / "resolvent.csv").exists()


def test_bad_broadening_exits_2(tmp_path, capsys):
    for eps in (float("nan"), -1.0, 0.0, float("inf"), "0.1"):
        cfg = write_config(tmp_path / "c.json", tasks=["spectrum"], spectrum={"broadening": eps})
        out = tmp_path / "out"
        assert cli.run(cfg, out) == 2, eps
        assert "spectrum.broadening" in _one_error_line(capsys)
        assert not (out / "density.csv").exists()


_NAN, _INF = float("nan"), float("inf")
_BAD_INPUTS = {
    "nan field": {"fields": [[_NAN, 0.0, 0.0], [0.6, 0.0, 0.0]]},
    "nan coupling": {"couplings": [{"i": 0, "j": 1, "tensor": [[0, 0, 0], [0, _NAN, 0], [0, 0, 1]]}]},
    "scalar tensor row": {"couplings": [{"i": 0, "j": 1, "tensor": [1, 2, 3]}]},
    "nan product": {"initial_state": {"product": [[_NAN, 0.0, 0.0], [0.0, 0.0, 1.0]]}},
    "inf product": {"initial_state": {"product": [[0.0, 0.0, 1.0], [0.0, -_INF, 0.0]]}},
    "nan correlator": {"initial_state": {"correlators": {"z0": _NAN}}},
    "string correlator": {"initial_state": {"correlators": {"z0": "0.5"}}},
    "repeated correlator string": {"initial_state": {"correlators": {"x0 z1": 0.3, "z1 x0": -0.5}}},
    "inf t_max": {"time": {"t_max": _INF, "dt": 0.01}},
    "nan t_max": {"time": {"t_max": _NAN, "dt": 0.01}},
    "nan dt": {"time": {"t_max": 1.0, "dt": _NAN}},
    "zero t_max": {"time": {"t_max": 0.0, "dt": 0.1}},
    "negative t_max": {"time": {"t_max": -1.0, "dt": 0.1}},
    "fractional stride": {"time": {"t_max": 1.0, "dt": 0.1, "stride": 1.5}},
    "nan phase": {"initial_state": {"named": {"name": "cat", "phase": _NAN}}},
    "named string": {"initial_state": {"named": "cat"}},
    "named list name": {"initial_state": {"named": {"name": ["cat"]}}},
    "bool sites": {"sites": True, "fields": [[0.8, 0.0, 0.0]], "couplings": [],
                   "observables": ["z0"]},
    "bool coupling sites": {"couplings": [{"i": False, "j": True, "tensor": np.eye(3).tolist()}]},
    "repeated coupling pair": {"couplings": [
        {"i": 0, "j": 1, "tensor": np.eye(3).tolist()},
        {"i": 0, "j": 1, "tensor": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]},
    ]},
    # the resolvent's own checks refuse these before evolve writes a file
    "resolvent without z": {"tasks": ["evolve", "resolvent"]},
    "ladder resolvent entry": {"tasks": ["evolve", "resolvent"], "observables": ["+0"],
                               "resolvent": {"z": [[0.5, 0.5]]}},
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_bad_config_values_exit_2(tmp_path, capsys, case):
    cfg = write_config(tmp_path / "c.json", **_BAD_INPUTS[case])
    out = tmp_path / "out"
    assert cli.run(cfg, out) == 2
    _one_error_line(capsys)
    assert not out.exists() or not any(out.iterdir())


_LARMOR = {
    "sites": 1,
    "fields": [[0.0, 0.0, 1.0]],
    "couplings": [],
    "initial_state": {"product": [[1.0, 0.0, 0.0]]},
    "observables": ["x0"],
}


@pytest.mark.parametrize(
    "method, time",
    [
        # 1e15 samples of 4 slots: 32 PB of output, far past the sample cap
        ("rk4", {"t_max": 1e12, "dt": 1e-3, "stride": 1}),
        ("expm", {"t_max": 1e12, "dt": 1e-3, "stride": 1}),
        # t_max/dt overflows to inf: no step count exists, though the stride
        # keeps the samples to two
        ("expm", {"t_max": 1e308, "dt": 1e-10, "stride": 10**30}),
        # two samples and 10**9 steps pass both caps above but would run for
        # hours: rk4 spends 4 * 10**9 matvecs, expm about 5.6e9 over 1000
        # intervals of length 10**6 (one such interval is admitted)
        ("rk4", {"t_max": 1e6, "dt": 1e-3, "stride": 10**9}),
        ("expm", {"t_max": 1e9, "dt": 1e-3, "stride": 10**9}),
    ],
)
def test_oversized_time_grid_exits_4_before_allocating(tmp_path, capsys, method, time):
    cfg = write_config(tmp_path / "c.json", **_LARMOR, method=method, time=time)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        status = cli.run(cfg, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 4
    assert "capped" in _one_error_line(capsys)
    assert not (out / "trajectory.csv").exists()
    assert peak < 1 << 20


def _dense_sites(n: int) -> dict:
    """n sites with every field component and coupling entry nonzero."""
    tensor = [[0.3, 0.2, 0.1], [0.2, 0.5, 0.4], [0.1, 0.4, 0.6]]
    return {
        "sites": n,
        "fields": [[0.3, 0.2, 0.1]] * n,
        "couplings": [
            {"i": i, "j": j, "tensor": tensor} for i in range(n) for j in range(i + 1, n)
        ],
        "initial_state": {"named": {"name": "w"}},
    }


def test_generator_and_decompose_admission_thresholds(tmp_path):
    from corrdyn.decomposition import admit_decompose
    from corrdyn.errors import SizeCapError
    from corrdyn.hierarchy import GENERATOR_BYTES_CAP, admit_generator, generator_bytes

    hams = []
    for n in (9, 10):
        path = write_config(tmp_path / f"{n}.json", **_dense_sites(n))
        hams.append(cli.load_config(path).hamiltonian)
    nine, ten = hams
    # 12 bytes per nonzero and 4 per row pointer
    assert generator_bytes(nine) == 12 * 351 * 4**9 // 2 + 4 * (4**9 + 1)  # 0.55 GB
    assert generator_bytes(ten) > 2.7e9 > GENERATOR_BYTES_CAP
    admit_generator(nine)
    with pytest.raises(SizeCapError):
        admit_generator(ten)
    for n in range(1, 10):
        admit_decompose(n)
    with pytest.raises(SizeCapError):
        admit_decompose(10)


def _refused_in_small_memory(capsys, cfg, out) -> None:
    """cfg exits 4 with one error line, no output file and a small heap peak."""
    tracemalloc.start()
    try:
        status = cli.run(cfg, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 4
    assert "capped" in _one_error_line(capsys)
    assert not out.exists() or not any(out.iterdir())
    assert peak < 1 << 20


@pytest.mark.parametrize("task", ["evolve", "decompose"])
def test_ten_dense_sites_exit_4_before_allocating(tmp_path, capsys, task):
    cfg = write_config(tmp_path / "c.json", **_dense_sites(10), tasks=[task])
    _refused_in_small_memory(capsys, cfg, tmp_path / "out")


@pytest.mark.parametrize("task", ["evolve", "decompose"])
def test_many_sites_exit_4_in_linear_time(tmp_path, capsys, task):
    n = 20_000
    cfg = write_config(
        tmp_path / "c.json", sites=n, fields=[[0.0, 0.0, 1.0]] * n, couplings=[],
        initial_state={"named": {"name": "ghz"}}, tasks=[task],
    )
    out = tmp_path / "out"
    start = time.perf_counter()
    status = cli.run(cfg, out)
    elapsed = time.perf_counter() - start
    assert status == 4
    assert "capped" in _one_error_line(capsys)
    assert elapsed < 2.0


@pytest.mark.parametrize(
    "overrides",
    [
        # the label's 18 ladder tokens would expand into 2**18 Cartesian terms
        {"sites": 18, "fields": [[0.0, 0.0, 1.0]] * 18, "couplings": [],
         "observables": [" ".join(f"+{i}" for i in range(18))], "tasks": ["decompose"]},
        # the generator is small, but the initial state needs 4**13 slots
        {"sites": 13, "fields": [[0.0, 0.0, 0.0]] * 13, "couplings": [],
         "initial_state": {"named": {"name": "ghz"}}, "observables": []},
    ],
    ids=["ladder-label", "ghz-13"],
)
def test_more_sites_than_the_dense_cap_exit_4_at_load(tmp_path, capsys, overrides):
    cfg = write_config(tmp_path / "c.json", **overrides)
    _refused_in_small_memory(capsys, cfg, tmp_path / "out")


def test_oversized_time_grid_exits_4_before_the_first_task(tmp_path, capsys):
    # validate's 2e300 steps are refused before spectrum writes its file
    cfg = write_config(
        tmp_path / "c.json", tasks=["spectrum", "validate"], time={"t_max": 2.0, "dt": 1e-300}
    )
    _refused_in_small_memory(capsys, cfg, tmp_path / "out")


@pytest.mark.parametrize("task", ["spectrum", "resolvent", "validate"])
def test_spectral_tasks_past_the_dense_cap_exit_4_before_the_build(
    tmp_path, capsys, task
):
    cfg = write_config(
        tmp_path / "c.json", **_dense_sites(8), tasks=[task], resolvent={"z": [[0.5, 0.5]]}
    )
    _refused_in_small_memory(capsys, cfg, tmp_path / "out")


@pytest.mark.parametrize(
    "tasks, method, status",
    [(["evolve"], "expm", 4), (["validate"], "rk4", 4),
     (["evolve"], "rk4", 0), (["spectrum"], "expm", 0)],
    ids=["evolve-expm", "validate", "evolve-rk4", "spectrum"],
)
def test_expm_plans_count_towards_generator_admission(
    tmp_path, capsys, monkeypatch, tasks, method, status
):
    from corrdyn import hierarchy

    cfg = write_config(tmp_path / "c.json", tasks=tasks, method=method)
    h = cli.load_config(cfg).hamiltonian
    # room for M, not for M and the scaled values of two Taylor plans
    cap = hierarchy.generator_bytes(h) + 8 * hierarchy.generator_nnz(h)
    monkeypatch.setattr(hierarchy, "GENERATOR_BYTES_CAP", cap)
    out = tmp_path / "out"
    assert cli.run(cfg, out) == status
    if status:
        assert "capped" in _one_error_line(capsys)
        assert not any(out.iterdir())
    else:
        assert any(out.iterdir())


_HUGE_FIELDS = {"fields": [[1e300, 0.0, 0.0], [0.0, 0.0, 1e300]]}


@pytest.mark.parametrize(
    "task, options, message",
    [
        # the level differences reach 2e300; squared against the grid they
        # overflow, which left a density of zeros at every omega but 0
        ("spectrum", {"spectrum": {"broadening": 0.5}}, "beyond double range"),
        # the eigenbasis resolvent cannot be certified at this scale, and the
        # cause is the residual, not a pole
        ("resolvent", {"resolvent": {"z": [[0.3, 0.2]]}}, "resolvent residual"),
    ],
)
def test_huge_fields_exit_3_without_output(tmp_path, capsys, task, options, message):
    cfg = write_config(tmp_path / "c.json", **_HUGE_FIELDS, tasks=[task], **options)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(cfg, out) == 3
    line = _one_error_line(capsys)
    assert message in line and "nearest pole" not in line
    assert not out.exists() or not any(out.iterdir())
