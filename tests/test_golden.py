"""Golden-digest lock: fixed seeds must keep producing the same bytes.

Criterion 11 only compares a run with itself; these digests pin every dump
file against the code as it was recorded, so a refactor that changes any
byte of a report, map, hypothesis list, trajectory, ground truth or pickup
episode log fails here, as does a run that writes one file more or fewer.
A deliberate change of output updates the digests and names the change in
CHANGES.md.

Besides the default missions, the table pins the branches the default
seeds never reach: seed 7 stalls twice while navigating (reverse, replan,
then `Unreachable`), and a shortened `mission.max_time` ends seed 0 in the
middle of the sweep (60 s) or of the collection phase (150 s).  With
`pickup.reidentify` off, seed 0 skips every look-back, so frames captured
in one pickup episode are drained in the next, after a navigation leg.  A
2-seed batch pins `runs.csv` and `aggregate.csv`, run in one process and in
two.
"""

import hashlib
from dataclasses import replace

import pytest

from littersim import batch
from littersim.config import build_config
from littersim.mission import run_batch, run_mission
from littersim.simworld import NoiseModel

# mode -> config overrides on top of the defaults
MODES = {
    "full": {},
    "zero_noise": {},
    "pickup_trial": {"mission.scenario": ["pickup_trial"]},
    "max_time_60": {"mission.max_time": ["60"]},
    "max_time_150": {"mission.max_time": ["150"]},
    "reidentify_off": {"pickup.reidentify": ["false"]},
}

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
    ("full", 7): (
        "bf9708d8c9614bbed2b2101edc43d0b62e55017eca7b0c93f7060c55521e9b34",
        "cef518de0759aecab145fb9cbd95c0e0da8272799c238b644c60a988ab204f18",
        "71d8936fd7a5370c756e2e04c948160b4a52e385ba0863a8e271ee203cb3638d",
    ),
    ("max_time_60", 0): (
        "a8bc93dc2c96312799dd491416d3c9775373e9c0b49c766f32ee606becd9db42",
        "314371f0e9e456ff99cf2492b943abbbb5617c1845070c00d3e5cd5050b20a7c",
        "554bd650493fba9b6e02c919b21638cd8dda63845a3c2499db6e13c1f927e2df",
    ),
    ("max_time_150", 0): (
        "a39d063ca60a1fa73716acb2f0b5d522497f6611e88aefaabe73587de7718c81",
        "fb3c769e24429b11b964cce0785cdb7f70b7d100de09e4950cf7d5d5101e2f77",
        "f5ba5a8935633194e56a87b1b44d79d0b01689f12b000e0a349612252b98d1fd",
    ),
    ("reidentify_off", 0): (
        "3992b0447870164e08be372087455d3e8422dce3707c308f8c6c2e38f9ede992",
        "fb3c769e24429b11b964cce0785cdb7f70b7d100de09e4950cf7d5d5101e2f77",
        "f5ba5a8935633194e56a87b1b44d79d0b01689f12b000e0a349612252b98d1fd",
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

# (mode, seed) -> {file name: sha256} for every other file the run writes
DUMPS = {
    ("full", 0): {
        "episode_00.txt": "76ef6b42ad201978145e23f1ee96e034973c7808aa0546b829e4787829e81341",
        "episode_01.txt": "428f3ee59add7e1593a9a481dbe91af098f8987aa93bed7202f1bdaccdee11e7",
        "episode_02.txt": "2a8173440d05a10f7e217ae6fa93998b1fac29078a4570c2aab37d4ed5ce33b4",
        "ground_truth.txt": "df8f0d701b6da67e2ddba3b5b718fb706dae91df8a7679bdd68aae1707e1b51e",
        "trajectory.txt": "888683c375c45aa93584111395587140f0c4d7dda7fe0d78b098c2db87cb6ff3",
    },
    ("full", 3): {
        "episode_00.txt": "4964725a9fc5ceb5df474ddff762f5d6033bdd980680f68d4373049dac8a35b4",
        "episode_01.txt": "875643461fcd5640656e78cee56f1d559324d36a7a1e1e7806502f097e483762",
        "episode_02.txt": "ae6df2ff8eb96a9b75d0d0b0b774079afa980a6f42eba83a3750ba883dac0207",
        "ground_truth.txt": "0b07e9b808c90b03e804bc3cf6e059da9005ec810e1c87084d319eadacf37a9b",
        "trajectory.txt": "51b66eb4b825ebcd7f1d54d9e25533928e47a1373bf1f1a983b457c0ca81899c",
    },
    ("full", 7): {
        "episode_00.txt": "aea07edf095ffaa930f08be6d1cff1c85a31a73f05c7a4b42be8f4c2a80d9cd1",
        "ground_truth.txt": "44827e9069fa6489162e8ab773e92efe982c6d84531dfa2f5df578c11f54912e",
        "trajectory.txt": "0fa2a41f2b60314e924a4564872016bdb3d589742745465ad905cd87f3b5c14f",
    },
    ("max_time_60", 0): {
        "ground_truth.txt": "55f932626ac7571a1daeea60ecaf082780954a7087c65dbecbdbf3766f88f895",
        "trajectory.txt": "c7892031924bc1fedb5b5bbde5a430aedac8f8b0955acbe398cd10bf8a3bbf2e",
    },
    ("max_time_150", 0): {
        "episode_00.txt": "76ef6b42ad201978145e23f1ee96e034973c7808aa0546b829e4787829e81341",
        "episode_01.txt": "d2195a702490c123aff6f4bb691fd3fe36a1f5806b1c4868ffdfd80b11a45d8d",
        "ground_truth.txt": "e06446f2b63ae66ee4e242241bcb2b5bd80c847564f9462b809fd69c4fe95f7d",
        "trajectory.txt": "2b7967ed4275f902ebb0c3590f8b9be49753b1d054d0abc2b3b9d0c7fcc4e39c",
    },
    ("reidentify_off", 0): {
        "episode_00.txt": "f16aa609cd7bb8c566cb0ee868e0e69b3eb8804129912e038c08e028056ac431",
        "episode_01.txt": "e57d4d8bf421e80d850089bd2d00c0a501223f32f710be8a7c3a77e00f5a7cdd",
        "episode_02.txt": "c733a5e347d95685ff6ec048d316d29cfa31a9e1e2b4c6e50ae143bd4446e43b",
        "ground_truth.txt": "e06446f2b63ae66ee4e242241bcb2b5bd80c847564f9462b809fd69c4fe95f7d",
        "trajectory.txt": "fc56c9fed1e6bc33124624b1581d034958878c8ed34ff10fc0704cd671f21f55",
    },
    ("zero_noise", 1): {
        "episode_00.txt": "e2e0aee57c5265bcc83a677852e0493315fd240eff743f715a71b9095417250a",
        "episode_01.txt": "6e241b4869c6820b9bdb1ee00f1bd047a30f80208acc890bab0bfc8b15bc5c60",
        "ground_truth.txt": "234df5c32848edb6228e2386e95d3e10ab17d4a1d23086559c8aa53c6e9cf60b",
        "trajectory.txt": "54aef12ea0c1616a6b1f9f99d9df1022b691f3166bc4ad9836638c243ae7b8cf",
    },
    ("pickup_trial", 0): {
        "episode_00.txt": "ecba08555eab698553097cb4a72c7386d552e0597d910694304d4e67765a2d8b",
        "ground_truth.txt": "1bb112a7adb19bfc69797c143eb57ca6c2d35f1ec5d5f3b8e1fe08d440a64973",
        "trajectory.txt": "c4be74064e325c176bb7a8390279705a851d1b1b70673fecfc85c61ba410c5eb",
    },
    ("pickup_trial", 4): {
        "episode_00.txt": "8f8af7924aad36ec80f5b505ab4321d4b0f6ab1e3542d3ee2da5f4e2c5dde851",
        "ground_truth.txt": "1bb112a7adb19bfc69797c143eb57ca6c2d35f1ec5d5f3b8e1fe08d440a64973",
        "trajectory.txt": "752885e79c34f86395f24eb3c0aa5243c2496a178cf1998e86dcc335cd9100aa",
    },
}


# run_batch over seeds 0 and 1 with defaults: file name -> sha256
BATCH = {
    "aggregate.csv": "ed0264877b1b2466ec96c2abb1d98a16c1d374c5aab14c6b8652fc68ae298feb",
    "runs.csv": "2ca1221255a80ba96b9a570cd3310ea5c0ac72998bf636d5b78cfb86b80bc045",
}


def _digest(path):
    if not path.exists():
        return None
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("mode,seed", sorted(GOLDEN))
def test_dump_files_match_golden_digests(tmp_path, mode, seed):
    raw = {"world.seed": [str(seed)], **MODES[mode]}
    cfg = build_config(raw, output_dir=str(tmp_path))
    if mode == "zero_noise":
        cfg = replace(cfg, noise=NoiseModel.zero())
    run_mission(cfg)
    pinned = ("report.txt", "map.grid", "hypotheses.txt")
    got = tuple(_digest(tmp_path / n) for n in pinned)
    assert got == GOLDEN[(mode, seed)]
    others = {p.name: _digest(p) for p in tmp_path.iterdir() if p.name not in pinned}
    assert others == DUMPS[(mode, seed)]


def test_batch_files_match_golden_digests(tmp_path):
    run_batch({}, [0, 1], [], out_dir=str(tmp_path))
    assert {p.name: _digest(p) for p in tmp_path.iterdir()} == BATCH


@pytest.mark.parametrize("cpus", [1, 2])
def test_batch_files_match_golden_digests_on_any_cpu_count(tmp_path, monkeypatch, cpus):
    # one CPU runs the missions in this process, two in a process pool
    monkeypatch.setattr(batch, "_usable_cpus", lambda: cpus)
    run_batch({}, [0, 1], [], out_dir=str(tmp_path))
    assert {p.name: _digest(p) for p in tmp_path.iterdir()} == BATCH
