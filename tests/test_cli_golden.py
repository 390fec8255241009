"""Golden-digest gates for the ``serve``, ``cluster`` and ``replay`` CLIs.

Two kinds of pin:

* **Run digests** -- for each small seeded command line, the sha256 of
  the ``--json`` file and of stdout (``wrote PATH`` lines dropped, since
  they name a temporary path).  Any change to how the CLI builds a
  scenario that moves an output byte fails here.
* **Default digests** -- the sha256 of ``vars(args)`` parsed from each
  bare subcommand, as sorted JSON.  This pins every flag's name and
  default value.

Print the table with ``PYTHONPATH=src python -m tests.test_cli_golden``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import repro.__main__ as cli

PLAN = str(
    Path(__file__).resolve().parent.parent / "examples" / "faultplan_smoke.json"
)

_SMALL_SERVE = [
    "--rate", "2000", "--horizon", "0.02", "--tenants", "2",
    "--slo", "10", "--seed", "5",
]
_OVERLOADED_GNN = [
    "--system", "gnn", "--rate", "2e6", "--slo", "0.1", "--seed", "20",
    "--queue-limit", "32", "--max-backlog", "16",
]
_SMALL_REPLAY = ["--windows", "2", "--window-ms", "0.5"]

#: name -> argv (without ``--json``).
RUNS = {
    "serve-shed": ["serve", *_SMALL_SERVE, "--admission", "shed"],
    "serve-gnn-predictive": [
        "serve", *_OVERLOADED_GNN, "--horizon", "0.0005",
        "--admission", "predictive",
    ],
    "serve-faults": ["serve", *_SMALL_SERVE, "--faults", PLAN],
    "cluster-contended": [
        "cluster", "--nodes", "3", "--node-spec", "node-1:2",
        "--contention", "shared", "--fail-node", "node-0:0.004",
        "--placement", "feedback", "--shards", "2", "--system", "gnn",
        "--rate", "4000", "--horizon", "0.01", "--tenants", "2",
        "--slo", "10", "--seed", "5",
    ],
    "replay-predictive-autoscale": [
        "replay", *_SMALL_REPLAY, "--admission", "predictive", "--autoscale",
    ],
    "replay-cluster-feedback": [
        "replay", *_SMALL_REPLAY, "--nodes", "2", "--placement", "feedback",
    ],
}

#: name -> (sha256 of the --json file, sha256 of stdout).
GOLDEN_RUNS = {
    "serve-shed": (
        "d2fb022fb3e0b7032543d5865ef5e9251fce44114c30159402f9d26e22199697",
        "10c7be78fffecf77923a8dbbcee8a2861c1dc6cd1465922f7d2f1b027ba81b9e",
    ),
    "serve-gnn-predictive": (
        "fa9bd8d268b24972134b7679f4c4168fbd31721c41982ce62c3a6af4b1bc78db",
        "02720d867cf129185c5e2c55f051c79f9b091518a6c3fbaabac6bf8f8cf222c3",
    ),
    "serve-faults": (
        "a4e51b93dc228614c0cb29a27d6747b9ef8d4ae9d8a90c16187a630eaea4b0aa",
        "9711cf4e9b38a9b47d480f1824572807b5fe3d9844fb64d3685d5b082c71c6db",
    ),
    "cluster-contended": (
        "1516821c1fb149ef495a13c3aafb138f7f61f9a6152aa25381137ab2dcdc7435",
        "dc1d5bbbc406d49fb271725704f80f689b2c15edc3f99a67dabe6154f6be5b2e",
    ),
    "replay-predictive-autoscale": (
        "551fae8da3725665941938ad8da09a2ac283ecde19209bbccc2e8c8539483a98",
        "d3eb2bbb6e5a94b72faf161a8162df4f54277db65171c2aa81cb4ad42933d401",
    ),
    "replay-cluster-feedback": (
        "9bfc3314acd7a10bffce9d21bac8e6b8a7b7bbfd29c6b652625d00c4706116ba",
        "67f1f8acdd3383e39f10165843d9e2b8a49cb46cbdaa61dc2803ae07fb98a005",
    ),
}

#: subcommand -> sha256 of vars(args) for the bare command.
GOLDEN_DEFAULTS = {
    "serve": "76f230fb8665d9e92e330e691ad93763700ad8f300f2e07ba74653dd4002a07e",
    "cluster": "08b21b8729a7b12e702f67c9db78e8535406daf5e6501a44a2c699b372e694d0",
    "replay": "c361da97768d180a60ccb57c572bb514aa5ac1de10f86ad7f23dea463d8253c1",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(name: str, tmp_path: Path) -> tuple[str, str]:
    out_path = tmp_path / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(RUNS[name] + ["--json", str(out_path)]) == 0
    stdout = "".join(
        line
        for line in out.getvalue().splitlines(keepends=True)
        if not line.startswith("wrote ")
    )
    return sha(out_path.read_bytes()), sha(stdout.encode())


def parsed_defaults(command: str, monkeypatch) -> dict:
    """``vars(args)`` for the bare subcommand, without running it."""
    seen = {}

    def capture(args):
        seen.update(vars(args))
        return 0

    monkeypatch.setattr(cli, f"cmd_{command}", capture)
    assert cli.main([command]) == 0
    return seen


def defaults_digest(command: str, monkeypatch) -> str:
    args = parsed_defaults(command, monkeypatch)
    return sha(json.dumps(args, sort_keys=True).encode())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_run_digest(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN_RUNS[name]


@pytest.mark.parametrize("command", ["serve", "cluster", "replay"])
def test_cli_defaults_digest(command, monkeypatch):
    assert defaults_digest(command, monkeypatch) == GOLDEN_DEFAULTS[command]


if __name__ == "__main__":
    import tempfile

    print("GOLDEN_RUNS = {")
    for name in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            json_sha, stdout_sha = run_digests(name, Path(tmp))
        print(f'    "{name}": (')
        print(f'        "{json_sha}",\n        "{stdout_sha}",\n    ),')
    print("}")
    print("GOLDEN_DEFAULTS = {")
    patch = pytest.MonkeyPatch()
    for command in ("serve", "cluster", "replay"):
        print(f'    "{command}": "{defaults_digest(command, patch)}",')
        patch.undo()
    print("}")
