"""Byte-level checks on what `simulate`, `analyze` and `periodic` write.

`simulate` charts the states it holds in memory and `plot` charts the
CSVs `simulate` wrote; since every CSV value is written with %.17g, which
round-trips, both must draw the same bytes.  The golden hashes pin every
file of the checked-in forgetting experiment, and the report `analyze`
and `periodic` each write for a checked-in program.
"""

import hashlib
import json
from pathlib import Path

import pytest

from socialpower.cli import main
from socialpower.fixtures import switching_program_6
from socialpower.topology import save_program

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"

# sha256 of each file `simulate --config experiments/forgetting.json` writes,
# recorded with Python 3.11, numpy 2.4.6 (scipy-openblas 0.3.31) on x86-64;
# another numpy or BLAS build may move the last bit of a state, and with it a hash
FORGETTING_SHA256 = {
    "comparison.svg": "676a4549d3cc7bd00ff9b94c40315fc6dccb09d149185f011b0012a4986ca9f2",
    "limit_gap.csv": "d7585378c3505e101e549cf2c0206d9adb959efb422bd4d33b8b134f4b556718",
    "report.json": "7ff4048cb3ffb2e8d02b8b3c7b2c189845fecffc51b687a3c885282b0fb2ade3",
    "run_hat.csv": "f5c9838b5b8e6f48afb624915e621cbfdeca229cc336d41dba03673006a8f1de",
    "run_hat.svg": "95e72aee2b48456c93a34f5a4c04a58c708db19a212c61ec8f430f66ad046594",
    "run_tilde.csv": "b668f9827d6045f6887c15c10fa73e52cd6bb413607926ef05e194b0afab761d",
    "run_tilde.svg": "ff1710d70fad469b77627cb5393e6b6908fdd61cbe6743bbcf350f8a09a27f56",
}

# sha256 of `analysis.json` from `analyze experiments/group6_random.json` and of
# `periodic.json` from `periodic --config experiments/alternating.json`, same build
REPORT_SHA256 = {
    "analysis.json": "7e016af23d330ed26bdf5264fcb701c46f689e15ee300100dc37dd0a1480e21e",
    "periodic.json": "b5cf75fddbcce03182f5231523911e0c1c6ef21b514769b52172b4b89d319927",
}


def _simulate(config: Path, out: Path) -> int:
    return main(["simulate", "--config", str(config), "--out", str(out)])


@pytest.fixture
def batch_config(tmp_path):
    """Three runs, one held at the vertex e_3, with charts."""
    save_program(switching_program_6(seed=20170825), tmp_path / "program.json")
    config = {
        "program": "program.json",
        "issues": 60,
        "seed": 7,
        "burn_in": 20,
        "plot": True,
        "initial_conditions": {
            "hat": [0.95, 0.95, 0.95, 0.0, 0.0, 0.0],
            "autocrat": "vertex:3",
            "tilde": [0.05, 0.05, 0.05, 0.9, 0.05, 0.9],
        },
    }
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(config))
    return path


@pytest.mark.parametrize("which, code", [("forgetting", 0), ("batch", 1)])
def test_plot_redraws_simulate_charts_byte_for_byte(which, code, batch_config, tmp_path, capsys):
    config = EXPERIMENTS / "forgetting.json" if which == "forgetting" else batch_config
    out, plots = tmp_path / "out", tmp_path / "plots"
    # the vertex run sits above individual 3's bound, so the batch exits 1
    assert _simulate(config, out) == code
    # the report lists the run CSVs in configuration order
    runs = [out / f for f in json.loads((out / "report.json").read_text())["runs"].values()]
    assert main(["plot", *map(str, runs), "--out", str(plots)]) == 0
    charts = sorted(p.name for p in out.glob("*.svg"))
    assert charts == sorted([p.stem + ".svg" for p in runs] + ["comparison.svg"])
    assert charts == sorted(p.name for p in plots.glob("*.svg"))
    for name in charts:
        assert (plots / name).read_bytes() == (out / name).read_bytes(), name


def test_forgetting_outputs_are_pinned(tmp_path, capsys):
    out = tmp_path / "out"
    assert _simulate(EXPERIMENTS / "forgetting.json", out) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == FORGETTING_SHA256


@pytest.mark.parametrize("argv, report", [
    (["analyze", str(EXPERIMENTS / "group6_random.json")], "analysis.json"),
    (["periodic", "--config", str(EXPERIMENTS / "alternating.json")], "periodic.json"),
])
def test_analyze_and_periodic_reports_are_pinned(argv, report, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256((out / report).read_bytes()).hexdigest() == REPORT_SHA256[report]
