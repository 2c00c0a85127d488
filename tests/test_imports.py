"""scipy is loaded by the first generator assembly, and by nothing before it.

Only the assembly of M or of an expm plan's hM, and the copy of an expm
plan, construct a CSR matrix, so importing corrdyn, a decompose-only run
and a config refused at load never pay for scipy.sparse.  Each case runs in
a fresh interpreter, whose sys.modules shows what the run imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from corrdyn import cli

_CHILD = """
import sys
from corrdyn import cli
status = cli.run(sys.argv[1], sys.argv[2]) if len(sys.argv) > 1 else 0
print(status, "scipy" in sys.modules)
"""


def _fresh(*args) -> tuple[int, bool]:
    """(exit status, whether scipy was imported) of a child running cli.run(*args)."""
    # the child imports the same corrdyn as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {"PYTHONPATH": path, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    status, loaded = proc.stdout.split()
    return int(status), loaded == "True"


def _config(path: Path, **fields) -> Path:
    cfg = {
        "sites": 3,
        "fields": [[0.5, 0.0, 0.0]] * 3,
        "couplings": [{"i": 0, "j": 1, "tensor": [[0, 0, 0], [0, 0, 0], [0, 0, 1.0]]}],
        "initial_state": {"named": {"name": "ghz"}},
        "time": {"t_max": 0.5, "dt": 0.05, "stride": 5},
        "observables": ["z0"],
    }
    path.write_text(json.dumps({**cfg, **fields}))
    return path


def test_import_loads_no_scipy():
    assert _fresh() == (0, False)


def test_decompose_run_loads_no_scipy(tmp_path):
    cfg = _config(tmp_path / "c.json", tasks=["decompose"])
    assert _fresh(cfg, tmp_path / "out") == (0, False)
    assert (tmp_path / "out" / "decomposition.txt").is_file()


def test_config_refused_at_load_loads_no_scipy(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert _fresh(bad, tmp_path / "out") == (2, False)
    big = _config(tmp_path / "big.json", sites=13, fields=[[0.5, 0.0, 0.0]] * 13, tasks=["evolve"])
    assert _fresh(big, tmp_path / "out") == (4, False)


def test_evolve_run_loads_scipy(tmp_path):
    # the checks above would pass vacuously if scipy never showed in sys.modules
    cfg = _config(tmp_path / "c.json", tasks=["evolve"])
    assert _fresh(cfg, tmp_path / "out") == (0, True)
