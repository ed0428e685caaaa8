"""Cross-build golden lock: SHA-256 digests of fixed-seed CLI output.

``tests/golden/outputs.json`` maps a ``repro`` command line to the
digest of its standard output. Every listed command is deterministic
for its seed, so a digest changes only when the program's output does.
A change that is meant to alter an output records the new digests in
the same commit and says why in CHANGES.md.

The ``fast`` entries (trace and audit on seed 0, the four chaos modes
on seeds 0 and 1, a few seconds each) run here, in the tier-1 suite.
``trace``, ``audit``, ``fig8a`` and ``fig9`` print the same bytes on
every seed, so they are locked on seed 0 only. The ``slow`` entries
(the fig8a, fig9, fig10-typhoon and fig14 experiments, 20 s to 100 s
each) are checked from the command line, as the CI perf-smoke job
does::

    PYTHONPATH=src python tests/test_goldens.py --slow          # check
    PYTHONPATH=src python tests/test_goldens.py --write [--slow] # record
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import pytest

GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "outputs.json"
SRC = Path(__file__).resolve().parents[1] / "src"


def load_goldens() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_FILE.read_text())


def output_digest(command: str) -> str:
    """SHA-256 of ``python -m repro <command>``'s standard output; the
    command must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, "-m", "repro", *command.split()],
                         stdout=subprocess.PIPE, env=env, check=False)
    assert run.returncode == 0, "repro %s exited %d" % (command,
                                                        run.returncode)
    return hashlib.sha256(run.stdout).hexdigest()


FAST = load_goldens()["fast"]


@pytest.mark.parametrize("command", sorted(FAST))
def test_output_matches_golden_digest(command):
    assert output_digest(command) == FAST[command], (
        "output of `repro %s` changed; if intended, re-record with "
        "`python tests/test_goldens.py --write`" % command)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slow", action="store_true",
                        help="the slow entries instead of the fast ones")
    parser.add_argument("--write", action="store_true",
                        help="record the current digests instead of "
                             "checking them")
    args = parser.parse_args(argv)
    goldens = load_goldens()
    section = "slow" if args.slow else "fast"
    mismatches = 0
    for command in sorted(goldens[section]):
        digest = output_digest(command)
        if args.write:
            goldens[section][command] = digest
            status = "recorded"
        elif digest == goldens[section][command]:
            status = "OK"
        else:
            status = "MISMATCH"
            mismatches += 1
        print("%-8s repro %s" % (status, command))
    if args.write:
        GOLDEN_FILE.write_text(json.dumps(goldens, indent=2) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
