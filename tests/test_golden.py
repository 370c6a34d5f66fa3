"""Golden-digest lock: fixed seeds must keep producing the same bytes.

Criterion 11 only compares a run with itself; these digests pin the dump
files against the code as it was recorded, so a refactor that changes any
byte of a report, map or hypothesis list fails here.  A deliberate change
of output updates the digests and names the change in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import pytest

from littersim.config import build_config
from littersim.mission import run_mission
from littersim.simworld import NoiseModel

# (mode, seed) -> sha256 of report.txt, map.grid, hypotheses.txt
# (None where the scenario writes no map)
GOLDEN = {
    ("full", 0): (
        "3f9835150d19810c4ed5824e3bc808c73e3aac40c88f1a270afc50b3d34a35bc",
        "fb3c769e24429b11b964cce0785cdb7f70b7d100de09e4950cf7d5d5101e2f77",
        "f5ba5a8935633194e56a87b1b44d79d0b01689f12b000e0a349612252b98d1fd",
    ),
    ("full", 3): (
        "1416694e86eaf7a6411c2d7f87b156019103425abcb96fbfb6075f7647b572a9",
        "7fbaf5f7fb86f4f19de45627a79dfa3400c978c11c39a598ca7fba99024e08f3",
        "5dfde7995aa4fb5a898f29edaac42176ba9b7b6cbec83c692516fe47e983063f",
    ),
    ("zero_noise", 1): (
        "faa0ef4577b58c76ee525a9202e34b86165f9809913c28ea22ecd1c6050024e3",
        "349f0a8982abf9757d30fd6f4dc11576351e5e971893bc5c8041320d068ca204",
        "5cecbbdf85fd8891cef0ed012a39b1a2f44ec90ddb92dec72e3ab8704c51d0b0",
    ),
    ("pickup_trial", 0): (
        "b7e80be4a9c4fa31a31923c3d76f55d09076ee0d22c0c5de4e9dc8e9a42ebd49",
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("pickup_trial", 4): (
        "890f7ad1ea91721950edc225c45a3eeebdfe03fe302dfd12af147d0318a19993",
        None,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def _digest(path):
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode,seed", sorted(GOLDEN))
def test_dump_files_match_golden_digests(tmp_path, mode, seed):
    raw = {"world.seed": [str(seed)]}
    if mode == "pickup_trial":
        raw["mission.scenario"] = ["pickup_trial"]
    cfg = build_config(raw, output_dir=str(tmp_path))
    if mode == "zero_noise":
        cfg = replace(cfg, noise=NoiseModel.zero())
    run_mission(cfg)
    got = tuple(_digest(tmp_path / n) for n in ("report.txt", "map.grid", "hypotheses.txt"))
    assert got == GOLDEN[(mode, seed)]
