"""Seeded inputs of the benchmark workloads.

A workload is a cyclic list of `corrdyn run` configs.  The runner issues them
one at a time, in order, and times `batch` consecutive runs as one batch.
Every number in a config comes from the workload seed, so the same seed gives
the same files and another seed gives other Hamiltonians of the same sizes.
The program sees only the written config files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    batch: int  # consecutive runs timed together as one batch
    configs: tuple[dict, ...]


# sites per workload: the benchmark sizes, and the tiny sizes the tests use
SIZES = {
    "full": {"trajectory": 6, "sweep": 7, "spectral": 5, "decompose": 7},
    "tiny": {"trajectory": 3, "sweep": 3, "spectral": 3, "decompose": 3},
}


def _dense_random(rng: np.random.Generator, n: int) -> dict:
    """Gaussian fields and a Gaussian 3x3 coupling on every pair."""
    return {
        "sites": n,
        "fields": rng.normal(size=(n, 3)).tolist(),
        "couplings": [
            {"i": i, "j": j, "tensor": rng.normal(size=(3, 3)).tolist()}
            for i in range(n)
            for j in range(i + 1, n)
        ],
    }


def _heisenberg_chain(rng: np.random.Generator, n: int) -> dict:
    """Isotropic nearest-neighbour chain in a uniform z field (degenerate)."""
    j = float(rng.uniform(0.5, 1.5))
    h = float(rng.uniform(0.3, 1.0))
    return {
        "sites": n,
        "fields": [[0.0, 0.0, h]] * n,
        "couplings": [
            {"i": i, "j": i + 1, "tensor": (j * np.eye(3)).tolist()}
            for i in range(n - 1)
        ],
    }


def _product_state(rng: np.random.Generator, n: int) -> dict:
    v = rng.normal(size=(n, 3))
    v *= 0.95 / np.linalg.norm(v, axis=1, keepdims=True)
    return {"product": v.tolist()}


def trajectory(rng: np.random.Generator, n: int, t_max: float, dt: float = 0.001,
               samples: int = 100) -> Workload:
    """One Hamiltonian evolved with rk4 and with expm, ~100 recorded samples."""
    base = {
        **_dense_random(rng, n),
        "initial_state": _product_state(rng, n),
        "time": {"t_max": t_max, "dt": dt, "stride": round(t_max / dt / samples)},
        "observables": ["z0", "x0 x1", f"y1 z{n - 1}", "+0 -1"],
        "tasks": ["evolve"],
    }
    return Workload(
        "trajectory", 2, ({**base, "method": "rk4"}, {**base, "method": "expm"})
    )


def sweep(rng: np.random.Generator, n: int, count: int = 8) -> Workload:
    """Distinct Hamiltonians, each built and evolved only briefly."""
    configs = tuple(
        {
            **_dense_random(rng, n),
            "initial_state": _product_state(rng, n),
            "time": {"t_max": 0.01, "dt": 0.001, "stride": 5},
            "observables": ["z0", "x0 x1"],
            "method": "expm",
            "tasks": ["evolve"],
        }
        for _ in range(count)
    )
    return Workload("sweep", 1, configs)


def spectral(rng: np.random.Generator, n: int, z_count: int = 2) -> Workload:
    """Spectrum, resolvent and validate on a generic and a degenerate H."""
    configs = []
    for ham in (_dense_random(rng, n), _heisenberg_chain(rng, n)):
        # Re z >= 0.2 keeps every z well away from the imaginary-axis poles
        zs = [
            [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.6)),
             float(rng.uniform(-1.5, 1.5))]
            for _ in range(z_count)
        ]
        configs.append({
            **ham,
            "initial_state": _product_state(rng, n),
            "time": {"t_max": 2.0, "dt": 0.005, "stride": 20},
            "observables": ["z0", "x0 x1", f"y1 z{n - 1}"],
            "resolvent": {"z": zs},
            "tasks": ["spectrum", "resolvent", "validate"],
        })
    return Workload("spectral", 2, tuple(configs))


def decompose(rng: np.random.Generator, n: int) -> Workload:
    """Named and product initial states through the decompose task only."""
    states = (
        {"named": {"name": "w"}},
        {"named": {"name": "ghz"}},
        {"named": {"name": "cat", "phase": float(rng.uniform(0.0, 2 * np.pi))}},
        _product_state(rng, n),
    )
    configs = tuple(
        {**_dense_random(rng, n), "initial_state": s, "tasks": ["decompose"]}
        for s in states
    )
    return Workload("decompose", 1, configs)


NAMES = ("trajectory", "sweep", "spectral", "decompose")


def build(name: str, seed: int, scale: str = "full") -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, NAMES.index(name)])
    n = SIZES[scale][name]
    if name == "trajectory":
        return trajectory(rng, n, t_max=2.0 if scale == "full" else 0.5)
    return {"sweep": sweep, "spectral": spectral, "decompose": decompose}[name](rng, n)


def write_configs(wl: Workload, directory: Path) -> tuple[list[Path], str]:
    """Write one JSON file per config; returns the paths and their sha256."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    paths = []
    for k, cfg in enumerate(wl.configs):
        text = json.dumps(cfg, sort_keys=True)
        path = directory / f"{wl.name}-{k}.json"
        path.write_text(text)
        digest.update(text.encode())
        paths.append(path)
    return paths, digest.hexdigest()
