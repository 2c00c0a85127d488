"""Batch front end: parse a JSON run configuration, execute tasks, emit CSV.

Exit codes: 0 success, 2 config/parse failure, 3 numeric failure (pole
proximity, step too large, divergent series, numbers beyond the double
range), 4 size cap exceeded (checked before anything 4**N-sized is
allocated).  Every config error, and every size cap but evolve's work cap
(which needs expm's Taylor plans), is found before the first task runs.
Every error path prints a single line starting with "error:".  Outputs are
deterministic: floats carry 17 significant digits and no wall-clock or RNG
state enters any file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# layer functions are looked up on their modules at call time, so one that a
# test replaces there (hierarchy.build_generator, say) is the one the CLI runs
from . import decomposition, dynamics, hierarchy, oracle, states
from .combinatorics import bit_indices
from .density import (
    DENSE_SITE_CAP,
    CorrelatorVector,
    extract_correlators,
    from_correlators,
    partial_trace_array,
)
from .errors import ConfigError, NumericError, SizeCapError
from .hamiltonian import SpinHamiltonian
from .pauli import Observable, parse_label


def _fmt(x: float) -> str:
    """17 significant digits; a non-finite value never reaches a file."""
    x = float(x)
    if not math.isfinite(x):
        raise NumericError(f"non-finite value {x} in the output")
    return format(x, ".17g")


def _finite(x) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(float(x))
    except OverflowError:
        return False


def _vector3(v) -> bool:
    """A list of three finite numbers."""
    return isinstance(v, list) and len(v) == 3 and all(map(_finite, v))


@dataclass(frozen=True)
class TimeGrid:
    t_max: float
    dt: float
    stride: int = 1


@dataclass(frozen=True)
class InitialState:
    kind: str  # "product", "correlators" or a named state: "cat", "ghz", "w"
    bloch: tuple = ()  # product: one Bloch 3-vector per site
    phase: float = 0.0  # cat
    correlators: tuple = ()  # (Cartesian code, value) pairs


@dataclass(frozen=True)
class RunConfig:
    sites: int
    hamiltonian: SpinHamiltonian
    initial_state: InitialState  # checked at load, built after the size caps
    time: TimeGrid | None
    observables: list[tuple[str, Observable]]  # in the config's order
    tasks: list[str]
    method: str
    broadening: float | None
    zs: list[complex]


def load_config(path: str | Path, tasks=None) -> RunConfig:
    """Read, check and convert a config; `tasks`, when given, replace the listed ones.

    The time block is required when the tasks listed or given include one in
    _TIMED, and resolvent.z and Cartesian observables when they include resolvent.
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    def need(key, typ, default=None, required=True):
        if key not in raw:
            if required:
                raise ConfigError(f"missing config key {key!r}")
            return default
        val = raw[key]
        if typ is not None and not isinstance(val, typ):
            raise ConfigError(f"config key {key!r} has the wrong type")
        return val

    sites = need("sites", int)
    if isinstance(sites, bool) or sites < 1:
        raise ConfigError("sites must be an integer >= 1")
    fields = need("fields", list)
    if len(fields) != sites or not all(map(_vector3, fields)):
        raise ConfigError("fields must be a list of one finite 3-vector per site")
    couplings = need("couplings", list, default=[], required=False)
    pairs = set()
    for c in couplings:
        if not isinstance(c, dict) or not {"i", "j", "tensor"} <= set(c):
            raise ConfigError("each coupling needs keys i, j, tensor")
        i, j = c["i"], c["j"]
        if not (
            all(isinstance(k, int) and not isinstance(k, bool) for k in (i, j))
            and 0 <= i < j < sites
        ):
            raise ConfigError("coupling sites must be integers with 0 <= i < j < sites")
        if (i, j) in pairs:
            raise ConfigError(f"more than one coupling on the pair ({i}, {j})")
        pairs.add((i, j))
        t = c["tensor"]
        if not isinstance(t, list) or len(t) != 3 or not all(map(_vector3, t)):
            raise ConfigError("coupling tensor must be 3x3 of finite numbers")
    state = need("initial_state", dict)
    if len(set(state) & {"product", "named", "correlators"}) != 1:
        raise ConfigError(
            "initial_state must have exactly one of: product, named, correlators"
        )
    listed = need("tasks", list)
    if not listed or any(not isinstance(t, str) or t not in _TASKS for t in listed):
        raise ConfigError(f"tasks must be a nonempty subset of {tuple(_TASKS)}")
    tasks = list(listed if tasks is None else tasks)
    time_raw = need("time", dict, required=any(t in _TIMED for t in listed + tasks))
    grid = None
    if time_raw is not None:
        try:
            t_max, dt = time_raw["t_max"], time_raw["dt"]
        except KeyError as exc:
            raise ConfigError(f"bad time block: missing {exc}") from exc
        stride = time_raw.get("stride", 1)
        if not (_finite(t_max) and _finite(dt)):
            raise ConfigError("time.t_max and time.dt must be finite numbers")
        if t_max <= 0:
            raise ConfigError("time.t_max must be positive")
        if dt <= 0:
            raise ConfigError("time.dt must be positive")
        if isinstance(stride, bool) or not isinstance(stride, int) or stride < 1:
            raise ConfigError("time.stride must be an integer >= 1")
        grid = TimeGrid(float(t_max), float(dt), stride)
    labels = need("observables", list, default=[], required=False)
    method = need("method", str, default="rk4", required=False)
    if method not in ("rk4", "expm"):
        raise ConfigError("method must be 'rk4' or 'expm'")
    eps = need("spectrum", dict, default={}, required=False).get("broadening")
    if eps is not None and not (_finite(eps) and eps > 0):
        raise ConfigError("spectrum.broadening must be a finite number > 0")
    zs = need("resolvent", dict, default={}, required=False).get("z")
    if zs is not None and not (
        isinstance(zs, list)
        and all(isinstance(p, list) and len(p) == 2 and all(map(_finite, p)) for p in zs)
    ):
        raise ConfigError("resolvent.z must be a list of [re, im] pairs of finite numbers")
    # every task builds the 4**N initial state, which density caps at
    # DENSE_SITE_CAP sites; refusing here keeps a longer config from reaching
    # the label parser, whose ladder tokens expand 2**k-fold, or any 4**N array
    if sites > DENSE_SITE_CAP:
        raise SizeCapError(f"sites capped at {DENSE_SITE_CAP}, got {sites}")
    observables = [(str(o), parse_observable(str(o), sites)) for o in labels]
    if "product" in state:
        vecs = state["product"]
        if not (isinstance(vecs, list) and len(vecs) == sites and all(map(_vector3, vecs))):
            raise ConfigError("product state needs one finite Bloch 3-vector per site")
        init = InitialState("product", bloch=tuple(tuple(map(float, v)) for v in vecs))
    elif "named" in state:
        named = state["named"]
        if not isinstance(named, dict):
            raise ConfigError("named state must be an object with a name")
        name, phase = named.get("name"), named.get("phase", 0.0)
        if name not in ("cat", "ghz", "w"):
            raise ConfigError(f"unknown named state {name!r}")
        if not _finite(phase):
            raise ConfigError("named state phase must be a finite number")
        init = InitialState(name, phase=float(phase))
    else:
        table = state["correlators"]
        if not isinstance(table, dict):
            raise ConfigError("correlators state must map labels to values")
        if not all(map(_finite, table.values())):
            raise ConfigError("initial correlators must be finite numbers")
        entries = [(lb, parse_observable(lb, sites), float(v)) for lb, v in table.items()]
        seen: dict[int, str] = {}
        for label, obs, _ in entries:
            if not obs.is_single_string:
                raise ConfigError(f"initial correlators need Cartesian labels, got {label!r}")
            if obs.code in seen:
                raise ConfigError(
                    f"initial correlators {seen[obs.code]!r} and {label!r} name the same string"
                )
            seen[obs.code] = label
        pairs = tuple((obs.code, v) for _, obs, v in entries)
        init = InitialState("correlators", correlators=pairs)
    if "resolvent" in tasks:
        if not zs:
            raise ConfigError("resolvent task needs resolvent.z = [[re, im], ...]")
        if not observables or any(not o.is_single_string for _, o in observables):
            raise ConfigError("resolvent task needs Cartesian observables to select entries")
    tensors = {(c["i"], c["j"]): np.array(c["tensor"], dtype=float) for c in couplings}
    return RunConfig(
        sites=sites,
        hamiltonian=SpinHamiltonian(sites, np.array(fields, dtype=float), tensors),
        initial_state=init,
        time=grid,
        observables=observables,
        tasks=tasks,
        method=method,
        broadening=None if eps is None else float(eps),
        zs=[complex(float(re), float(im)) for re, im in zs or []],
    )


def parse_observable(label: str, n_sites: int):
    """Observable for a label under the Pauli-string grammar (ladder allowed)."""
    if not label.split():
        raise ConfigError("observable labels must be nonempty")
    try:
        return parse_label(label, n_sites)
    except ValueError as exc:
        raise ConfigError(f"bad observable {label!r}: {exc}") from exc


def _initial_correlators(cfg: RunConfig):
    init, n = cfg.initial_state, cfg.sites
    if init.kind == "correlators":
        values = np.zeros(4**n)
        values[0] = 1.0
        for code, val in init.correlators:
            values[code] = val
        try:
            return CorrelatorVector(n, values)
        except ValueError as exc:
            raise ConfigError(f"bad initial correlators: {exc}") from exc
    if init.kind == "product":
        try:
            rho = states.bloch_product(init.bloch)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif init.kind == "cat":
        rho = states.cat_state(n, init.phase)
    else:
        rho = states.ghz_state(n) if init.kind == "ghz" else states.w_state(n)
    return extract_correlators(rho)


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _task_evolve(cfg, gen, x0, out_dir: Path) -> None:
    traj = dynamics.evolve(
        gen, x0, cfg.time.t_max, cfg.time.dt, stride=cfg.time.stride, method=cfg.method
    )
    observables = cfg.observables or [("z0", parse_observable("z0", cfg.sites))]
    header = ["t"]
    columns = []
    for lb, obs in observables:
        series = traj.expectation(obs)
        if all(w.imag == 0 for w, _ in obs.terms):
            header.append(lb)
            columns.append([_fmt(v) for v in series.real])
        else:
            header += [f"{lb}.re", f"{lb}.im"]
            columns.append([_fmt(v) for v in series.real])
            columns.append([_fmt(v) for v in series.imag])
    rows = (
        [_fmt(t)] + [col[k] for col in columns] for k, t in enumerate(traj.times)
    )
    _write_csv(out_dir / "trajectory.csv", header, rows)


def _task_spectrum(cfg, gen, x0, out_dir: Path) -> None:
    rep = dynamics.spectrum(gen, broadening=cfg.broadening)
    # the broadened pole density is only emitted when a width was requested;
    # it is computed before any file is written, since it can fail
    density = None if cfg.broadening is None else rep.density
    rows = (
        [_fmt(w), str(int(m))] for w, m in zip(rep.frequencies, rep.multiplicities)
    )
    _write_csv(out_dir / "spectrum.csv", ["omega", "multiplicity"], rows)
    if density is not None:
        rows = ([_fmt(w), _fmt(d)] for w, d in zip(rep.omega, density))
        _write_csv(out_dir / "density.csv", ["omega", "density"], rows)


def _task_resolvent(cfg, gen, x0, out_dir: Path) -> None:
    labels = [lb for lb, _ in cfg.observables]
    codes = [o.code for _, o in cfg.observables]
    rows = []
    for z in cfg.zs:
        g = dynamics.resolvent(gen, z, codes)
        for r, lr in enumerate(labels):
            for c, lc in enumerate(labels):
                rows.append(
                    [_fmt(z.real), _fmt(z.imag), lr, lc,
                     _fmt(g[r, c].real), _fmt(g[r, c].imag)]
                )
    _write_csv(
        out_dir / "resolvent.csv",
        ["re_z", "im_z", "row", "col", "re_g", "im_g"],
        iter(rows),
    )


def _task_decompose(cfg, gen, x0, out_dir: Path) -> None:
    rho = from_correlators(x0)
    parts = decomposition.correlated_parts(rho)
    cparts = decomposition.cumulant_parts(rho)
    singles = {
        i: partial_trace_array(rho.data, cfg.sites, 1 << i) for i in range(cfg.sites)
    }
    lines = []
    for mask in sorted(cparts):
        sites = ",".join(str(s) for s in bit_indices(mask))
        cnorm = (
            _fmt(np.linalg.norm(parts[mask].matrix)) if mask in parts else _fmt(0.0)
        )
        lines.append(
            f"subset={sites} norm_correlated={cnorm} "
            f"norm_cumulant={_fmt(np.linalg.norm(cparts[mask].matrix))}"
        )
    defect = max((decomposition.trace_defect(p) for p in parts.values()), default=0.0)
    recon = decomposition.reconstruct(cfg.sites, singles, parts)
    crecon = decomposition.cumulant_reconstruct(cfg.sites, cparts)
    lines.append(f"max_single_cell_trace={_fmt(defect)}")
    lines.append(f"reconstruction_error={_fmt(np.max(np.abs(recon.data - rho.data)))}")
    lines.append(
        f"cumulant_reconstruction_error={_fmt(np.max(np.abs(crecon.data - rho.data)))}"
    )
    (out_dir / "decomposition.txt").write_text("\n".join(lines) + "\n")


def _task_validate(cfg, gen, x0, out_dir: Path) -> None:
    traj = dynamics.evolve(
        gen, x0, cfg.time.t_max, cfg.time.dt, stride=cfg.time.stride, method="expm"
    )
    ref = oracle.correlator_trajectory(
        cfg.hamiltonian, from_correlators(x0), traj.times, gen.eigensystem()
    )
    deviation = float(np.max(np.abs(traj.values - ref.values)))
    norms = traj.sector_norms()
    rep = dynamics.spectrum(gen)
    pair_err = dynamics.eigenpair_residual(gen)
    ok = deviation < 1e-6 and pair_err <= 1e-10 * max(1.0, gen.infinity_norm())
    lines = [
        f"sites={cfg.sites}",
        f"antisymmetry_defect={_fmt(hierarchy.antisymmetry_defect(gen))}",
        f"max_abs_deviation={_fmt(deviation)}",
        f"norm_drift={_fmt(float(np.max(np.abs(norms - norms[0]))))}",
        f"frequency_count={int(rep.multiplicities.sum())}",
        f"eigenpair_residual={_fmt(pair_err)}",
        f"kernel_dim={rep.kernel_dim}",
        f"status={'ok' if ok else 'fail'}",
    ]
    (out_dir / "validate.txt").write_text("\n".join(lines) + "\n")


# every task, in the order it runs whatever the config's order
_TASKS = {
    "evolve": _task_evolve,
    "spectrum": _task_spectrum,
    "resolvent": _task_resolvent,
    "decompose": _task_decompose,
    "validate": _task_validate,
}
# the tasks that step along the config's time grid
_TIMED = ("evolve", "validate")


def _execute(config_path, out_dir, tasks) -> None:
    cfg = load_config(config_path, tasks)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # size caps before anything 4**N-sized is allocated or any task runs
    needs_generator = bool(set(cfg.tasks) - {"decompose"})  # the others all use M
    if needs_generator:
        expm = "validate" in cfg.tasks or ("evolve" in cfg.tasks and cfg.method == "expm")
        hierarchy.admit_generator(cfg.hamiltonian, expm=expm)
    if "decompose" in cfg.tasks:
        decomposition.admit_decompose(cfg.sites)
    if {"spectrum", "resolvent", "validate"} & set(cfg.tasks):
        hierarchy.admit_dense(cfg.sites)
    if set(_TIMED) & set(cfg.tasks):
        dynamics.admit_grid(cfg.sites, cfg.time.t_max, cfg.time.dt, cfg.time.stride)
    x0 = _initial_correlators(cfg)

    gen = hierarchy.build_generator(cfg.hamiltonian) if needs_generator else None
    for name, task in _TASKS.items():
        if name in cfg.tasks:
            task(cfg, gen, x0, out)


def run(config_path: str | Path, out_dir: str | Path = ".", tasks=None) -> int:
    """Execute a config; returns the exit status without raising.

    `tasks`, when given, replace the config's task list.  numpy
    floating-point overflow and invalid operations raise during the run, so
    numbers that leave the double range end in exit 3, not in a warning and
    an output of infinities or of the zeros they collapse to.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            _execute(config_path, out_dir, tasks)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: numbers beyond double range: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="corrdyn",
        description="Correlator-hierarchy dynamics of coupled spin-1/2 systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute every task listed in the config"),
        ("validate", "run only the oracle-vs-hierarchy validation task"),
        ("spectrum", "run only the spectrum task"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config")
        p.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    tasks = None if args.command == "run" else [args.command]
    return run(args.config, args.out_dir, tasks=tasks)


if __name__ == "__main__":
    sys.exit(main())
