"""Batch front end: parse a JSON run configuration, execute tasks, emit CSV.

Exit codes: 0 success, 2 config/parse failure, 3 numeric failure (pole
proximity, step too large, divergent series, numbers beyond the double
range), 4 size cap exceeded (checked before anything 4**N-sized is
allocated).
Every error path prints a single line starting with "error:".  Outputs are
deterministic: floats carry 17 significant digits and no wall-clock or RNG
state enters any file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field as dc_field
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
class RunConfig:
    sites: int
    fields: list
    couplings: list
    initial_state: dict
    time: TimeGrid | None
    observables: list[tuple[str, Observable]]  # in the config's order
    tasks: list[str]
    method: str = "rk4"
    spectrum_options: dict = dc_field(default_factory=dict)
    resolvent_options: dict = dc_field(default_factory=dict)


def load_config(path: str | Path, tasks=None) -> RunConfig:
    """Read and check a config; `tasks`, when given, replace the listed ones.

    The time block is required when the listed or the given tasks include
    one in _TIMED.
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
    if "product" in state and not (
        isinstance(state["product"], list) and all(map(_vector3, state["product"]))
    ):
        raise ConfigError("product state needs a list of finite Bloch 3-vectors")
    named = state.get("named", {})
    if not isinstance(named, dict):
        raise ConfigError("named state must be an object with a name")
    if not _finite(named.get("phase", 0.0)):
        raise ConfigError("named state phase must be a finite number")
    table = state.get("correlators", {})
    if not isinstance(table, dict):
        raise ConfigError("correlators state must map labels to values")
    if not all(map(_finite, table.values())):
        raise ConfigError("initial correlators must be finite numbers")
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
    observables = need("observables", list, default=[], required=False)
    method = need("method", str, default="rk4", required=False)
    if method not in ("rk4", "expm"):
        raise ConfigError("method must be 'rk4' or 'expm'")
    spectrum_options = need("spectrum", dict, default={}, required=False)
    eps = spectrum_options.get("broadening")
    if eps is not None and not (_finite(eps) and eps > 0):
        raise ConfigError("spectrum.broadening must be a finite number > 0")
    resolvent_options = need("resolvent", dict, default={}, required=False)
    zs = resolvent_options.get("z")
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
    return RunConfig(
        sites=sites,
        fields=fields,
        couplings=couplings,
        initial_state=state,
        time=grid,
        observables=[(str(o), parse_observable(str(o), sites)) for o in observables],
        tasks=tasks,
        method=method,
        spectrum_options=spectrum_options,
        resolvent_options=resolvent_options,
    )


def parse_observable(label: str, n_sites: int):
    """Observable for a label under the Pauli-string grammar (ladder allowed)."""
    if not label.split():
        raise ConfigError("observable labels must be nonempty")
    try:
        return parse_label(label, n_sites)
    except ValueError as exc:
        raise ConfigError(f"bad observable {label!r}: {exc}") from exc


def _build_hamiltonian(cfg: RunConfig):
    couplings = {
        (c["i"], c["j"]): np.array(c["tensor"], dtype=float) for c in cfg.couplings
    }
    return SpinHamiltonian(cfg.sites, np.array(cfg.fields, dtype=float), couplings)


def _initial_correlators(cfg: RunConfig):
    desc = cfg.initial_state
    if "product" in desc:
        vecs = desc["product"]
        if len(vecs) != cfg.sites:
            raise ConfigError("product state needs one Bloch vector per site")
        try:
            rho = states.bloch_product(vecs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return extract_correlators(rho)
    if "named" in desc:
        named = desc["named"]
        name = named.get("name")
        phase = float(named.get("phase", 0.0))
        builders = {
            "cat": lambda: states.cat_state(cfg.sites, phase),
            "ghz": lambda: states.ghz_state(cfg.sites),
            "w": lambda: states.w_state(cfg.sites),
        }
        if not isinstance(name, str) or name not in builders:
            raise ConfigError(f"unknown named state {name!r}")
        return extract_correlators(builders[name]())
    table = desc["correlators"]
    values = np.zeros(4**cfg.sites)
    values[0] = 1.0
    for label, val in table.items():
        obs = parse_observable(label, cfg.sites)
        if not obs.is_single_string:
            raise ConfigError(
                f"initial correlators must use Cartesian labels, got {label!r}"
            )
        values[obs.code] = float(val)
    try:
        return CorrelatorVector(cfg.sites, values)
    except ValueError as exc:
        raise ConfigError(f"bad initial correlators: {exc}") from exc


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _task_evolve(cfg, ham, gen, x0, out_dir: Path) -> None:
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


def _task_spectrum(cfg, ham, gen, x0, out_dir: Path) -> None:
    eps = cfg.spectrum_options.get("broadening")
    rep = dynamics.spectrum(gen, broadening=None if eps is None else float(eps))
    # the broadened pole density is only emitted when a width was requested;
    # it is computed before any file is written, since it can fail
    density = None if eps is None else rep.density
    rows = (
        [_fmt(w), str(int(m))] for w, m in zip(rep.frequencies, rep.multiplicities)
    )
    _write_csv(out_dir / "spectrum.csv", ["omega", "multiplicity"], rows)
    if density is not None:
        rows = ([_fmt(w), _fmt(d)] for w, d in zip(rep.omega, density))
        _write_csv(out_dir / "density.csv", ["omega", "density"], rows)


def _task_resolvent(cfg, ham, gen, x0, out_dir: Path) -> None:
    zs = cfg.resolvent_options.get("z")
    if not zs:
        raise ConfigError("resolvent task needs resolvent.z = [[re, im], ...]")
    if not cfg.observables:
        raise ConfigError("resolvent task needs observables to select entries")
    if any(not o.is_single_string for _, o in cfg.observables):
        raise ConfigError("resolvent entries need Cartesian observable labels")
    labels = [lb for lb, _ in cfg.observables]
    codes = [o.code for _, o in cfg.observables]
    rows = []
    for pair in zs:
        z = complex(float(pair[0]), float(pair[1]))
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


def _task_decompose(cfg, ham, gen, x0, out_dir: Path) -> None:
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


def _task_validate(cfg, ham, gen, x0, out_dir: Path) -> None:
    traj = dynamics.evolve(
        gen, x0, cfg.time.t_max, cfg.time.dt, stride=cfg.time.stride, method="expm"
    )
    ref = oracle.correlator_trajectory(
        ham, from_correlators(x0), traj.times, gen.eigensystem()
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

    ham = _build_hamiltonian(cfg)
    # size caps before anything 4**N-sized is allocated
    needs_generator = bool(set(cfg.tasks) - {"decompose"})  # the others all use M
    if needs_generator:
        expm = "validate" in cfg.tasks or ("evolve" in cfg.tasks and cfg.method == "expm")
        hierarchy.admit_generator(ham, expm=expm)
    if "decompose" in cfg.tasks:
        decomposition.admit_decompose(cfg.sites)
    if {"spectrum", "resolvent", "validate"} & set(cfg.tasks):
        hierarchy.admit_dense(cfg.sites)
    x0 = _initial_correlators(cfg)

    gen = hierarchy.build_generator(ham) if needs_generator else None
    for name, task in _TASKS.items():
        if name in cfg.tasks:
            task(cfg, ham, gen, x0, out)


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
