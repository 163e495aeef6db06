"""Write bench/reference.json: exit code and stdout digest of every command.

Run from the repository root, only when the catalog output is meant to
change:

    python3 bench/record_reference.py

Each command that any workload seed can produce runs once; a command whose
output contradicts the paper's facts (check.py) is reported and the file is
not written.
"""

from __future__ import annotations

import json
import sys

import run
from check import REFERENCE_PATH, command_key, digest, paper_facts
from workloads import all_commands


def main() -> int:
    env = run.child_env()
    commands = {}
    bad = []
    for args in all_commands():
        child = run.run_cli(args, env)
        problems = paper_facts(args, child.stdout)
        if problems:
            bad.append((command_key(args), problems))
        commands[command_key(args)] = {
            "exit": child.returncode,
            "sha256": digest(child.stdout),
            "bytes": len(child.stdout),
        }
        print(f"{command_key(args)}: exit {child.returncode}, {len(child.stdout)} bytes", file=sys.stderr)
    if bad:
        for key, problems in bad:
            print(f"{key}: {problems}", file=sys.stderr)
        return 1
    payload = {"recorded_at": run.git_sha(), "commands": commands}
    REFERENCE_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
