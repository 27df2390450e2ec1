"""Byte-level checks on what `simulate`, `analyze` and `periodic` write.

`simulate` with `"plot": true` charts the states it holds in memory: one
chart per run and one comparison chart, each well-formed XML.  The golden
hashes pin every file of the checked-in forgetting experiment, charts
included, and the report `analyze` and `periodic` each write for a
checked-in program.
"""

import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from socialpower.cli import main
from socialpower.topology import save_program
from networks import EXPERIMENTS, switching_program_6

# sha256 of each file `simulate --config experiments/forgetting.json` writes,
# recorded with Python 3.11, numpy 2.4.6 (scipy-openblas 0.3.31) on x86-64;
# another numpy or BLAS build may move the last bit of a state, and with it a hash
FORGETTING_SHA256 = {
    "comparison.svg": "a50a4a98c0d0d338b97e6a9476b9f30ceb3a2338ecdf71cf0f24bbf990f80cb3",
    "limit_gap.csv": "d7585378c3505e101e549cf2c0206d9adb959efb422bd4d33b8b134f4b556718",
    "report.json": "7ff4048cb3ffb2e8d02b8b3c7b2c189845fecffc51b687a3c885282b0fb2ade3",
    "run_hat.csv": "f5c9838b5b8e6f48afb624915e621cbfdeca229cc336d41dba03673006a8f1de",
    "run_hat.svg": "3dca6bd4162beb4735ba7c02dac2c6a821f78c8a883b5f17d7a0f1435e0cb067",
    "run_tilde.csv": "b668f9827d6045f6887c15c10fa73e52cd6bb413607926ef05e194b0afab761d",
    "run_tilde.svg": "e9f6c13aada3950854928e801fe399f6298a094d4cc9ca35728671cc47bbca59",
}

# sha256 of `analysis.json` from `analyze experiments/group6_random.json` and of
# `periodic.json` from `periodic --config experiments/alternating.json`, same build
REPORT_SHA256 = {
    "analysis.json": "7e016af23d330ed26bdf5264fcb701c46f689e15ee300100dc37dd0a1480e21e",
    "periodic.json": "1b2cc6aef82aff7afc0000cff4432f0d785328693e080b8fe13b45333f67baeb",
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
def test_simulate_draws_a_chart_per_run_and_a_comparison(which, code, batch_config, tmp_path, capsys):
    config = EXPERIMENTS / "forgetting.json" if which == "forgetting" else batch_config
    out = tmp_path / "out"
    # the vertex run sits above individual 3's bound, so the batch exits 1
    assert _simulate(config, out) == code
    # the report lists the run CSVs in configuration order
    runs = json.loads((out / "report.json").read_text())["runs"].values()
    charts = [Path(csv).with_suffix(".svg").name for csv in runs] + ["comparison.svg"]
    assert sorted(p.name for p in out.glob("*.svg")) == sorted(charts)
    assert capsys.readouterr().out.splitlines()[:-1] == [f"wrote {out / chart}" for chart in charts]
    for chart in charts:
        assert ET.parse(out / chart).getroot().tag == "{http://www.w3.org/2000/svg}svg", chart


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
