"""Golden outputs: the seed-1 data rows of every subcommand, and the
power-of-two scaling relation.

``tests/golden/<run>/<file>`` holds the data rows (every line not starting
with ``#``) of the seed-1 runs in ``RUNS``.  A change that moves a byte of
them re-records them in its own diff and says so:

    PYTHONPATH=src python tests/test_golden.py

Doubling every length and quartering both intensities leaves each count
lambda*pi*r^2 and each distance ratio unchanged and multiplies every path
gain d^-beta by 2^-beta; dividing the noise by 2^beta as well leaves every
SINR unchanged.  Scaling by a power of two is exact in binary floating
point, so the scaled runs must reproduce the data rows exactly: a change
that breaks the relation changed the arithmetic, not its rounding.
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest

from crancache.cli import main
from crancache.scenario import Scenario

GOLDEN = Path(__file__).parent / "golden"

ALLOCATION_FILES = ("assignment.csv", "steps.csv", "summary.txt")
RUNS = {
    "analyze": (["analyze"], ("effcap_vs_theta.csv", "cluster_vs_cache.csv")),
    "validate": (["validate"], ("validation.csv",)),
    **{f"allocate_{alg}": (["allocate", "--algorithm", alg], ALLOCATION_FILES)
       for alg in ("nested", "suboptimal", "orthogonal", "full_reuse")},
    "sweep": (["sweep", "--instances", "6"], ("sweep.csv",)),
}
OUTPUTS = [(run, name) for run, (_, names) in RUNS.items() for name in names]

# Under noise, only the beta = 4 runs scale: effcap_vs_theta.csv's beta = 6
# and 8 columns would need the noise divided by 2^6 and 2^8.
NOISE = 0.3
NOISY_OUTPUTS = [(run, name) for run, name in OUTPUTS
                 if run in ("validate", "allocate_nested", "allocate_suboptimal", "sweep")
                 or name == "cluster_vs_cache.csv"]


def config_text(scale: int = 1, noise: float = 0.0) -> str:
    """The default scenario with lengths times ``scale``, intensities over
    ``scale``^2 and ``noise`` over ``scale``^beta, at 20,000 trials."""
    base = Scenario()
    return (f"[geometry]\n"
            f"lambda_rrh = {base.lambda_rrh / scale ** 2!r}\n"
            f"lambda_user = {base.lambda_user / scale ** 2!r}\n"
            f"cluster_radius = {base.cluster_radius * scale!r}\n"
            f"sim_radius = {base.sim_radius * scale!r}\n"
            f"[radio]\n"
            f"noise = {noise / scale ** base.pathloss_exponent!r}\n"
            f"[run]\n"
            f"mc_trials = 20000\n"
            f"user_distance = {base.user_distance * scale!r}\n")


def data_rows(path: Path) -> bytes:
    return b"".join(line for line in path.read_bytes().splitlines(keepends=True)
                    if not line.startswith(b"#"))


def run_all(tmp: Path, runs, scale: int = 1, noise: float = 0.0) -> dict:
    """Seed-1 runs of ``runs`` under the scaled config: exit code per run,
    data rows per output file."""
    cfg = tmp / "scenario.ini"
    cfg.write_text(config_text(scale, noise))
    codes, rows = {}, {}
    for run in runs:
        argv, names = RUNS[run]
        codes[run] = main(argv + ["--config", str(cfg), "--seed", "1",
                                  "--out", str(tmp / run)])
        for name in names:
            rows[run, name] = data_rows(tmp / run / name)
    return {"codes": codes, "rows": rows}


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("golden"), RUNS)


@pytest.fixture(scope="module")
def scaled_runs(tmp_path_factory):
    return run_all(tmp_path_factory.mktemp("scaled"), RUNS, scale=2)


def _noisy_runs(tmp_path_factory, scale):
    runs = sorted({run for run, _ in NOISY_OUTPUTS})
    return run_all(tmp_path_factory.mktemp(f"noisy{scale}"), runs, scale, NOISE)


@pytest.fixture(scope="module")
def noisy_runs(tmp_path_factory):
    return _noisy_runs(tmp_path_factory, 1)


@pytest.fixture(scope="module")
def noisy_scaled_runs(tmp_path_factory):
    return _noisy_runs(tmp_path_factory, 2)


def test_golden_runs_succeed(golden_runs):
    assert golden_runs["codes"] == {run: 0 for run in RUNS}


@pytest.mark.parametrize("run,name", OUTPUTS, ids=lambda v: v)
def test_data_rows_match_golden(golden_runs, run, name):
    assert golden_runs["rows"][run, name] == (GOLDEN / run / name).read_bytes()


@pytest.mark.parametrize("run,name", OUTPUTS, ids=lambda v: v)
def test_power_of_two_scaling_is_exact(golden_runs, scaled_runs, run, name):
    assert scaled_runs["codes"][run] == golden_runs["codes"][run]
    assert scaled_runs["rows"][run, name] == golden_runs["rows"][run, name]


@pytest.mark.parametrize("run,name", NOISY_OUTPUTS, ids=lambda v: v)
def test_power_of_two_scaling_is_exact_under_noise(noisy_runs, noisy_scaled_runs,
                                                    run, name):
    assert noisy_scaled_runs["codes"][run] == noisy_runs["codes"][run]
    assert noisy_scaled_runs["rows"][run, name] == noisy_runs["rows"][run, name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        recorded = run_all(Path(tmp), RUNS)
    if any(recorded["codes"].values()):
        sys.exit(f"a golden run failed: {recorded['codes']}")
    for (run, name), rows in recorded["rows"].items():
        os.makedirs(GOLDEN / run, exist_ok=True)
        (GOLDEN / run / name).write_bytes(rows)
    print(f"recorded {len(recorded['rows'])} files under {GOLDEN}")
