"""The serving CLIs' full stdout is a committed golden.

``repro shard-sim``, ``repro fleet-sim`` and ``repro serve-sim`` render
the fleet, autoscaler and single-replica reports end to end: routing,
per-replica rows, workload lines, tenant SLO rows, capacity probe and
GPU·s pricing.  Every number is simulated and seeded, so the text must
match ``goldens/*.txt`` byte for byte; any refactor of the report or
engine layers that moves a digit shows up here as a diff.

CI runs this module under ``-W error``.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDENS = Path(__file__).resolve().parent / "goldens"

COMMANDS = {
    "shard_sim": [
        "shard-sim", "--tp", "2", "--dp", "2", "--num-requests", "8",
        "--rate", "2000",
    ],
    "fleet_sim": [
        "fleet-sim", "--scenario", "diurnal", "--num-requests", "16",
        "--rate", "3000", "--max-replicas", "2", "--layers", "2",
        "--heads", "4", "--head-size", "16",
    ],
    "serve_sim": [
        "serve-sim", "--policy", "continuous", "--num-requests", "8",
        "--rate", "500", "--spec-decode", "4", "--chunk-tokens", "64",
        "--lora-adapters", "3",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDENS / f"{name}.txt").read_text()
