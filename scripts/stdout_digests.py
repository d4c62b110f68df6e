"""Print the stdout sha256 of the reference CLI commands, per format and parallelism.

Usage: python scripts/stdout_digests.py [--src DIR]

Each command runs in a fresh ``python -m wehrlkit.cli`` process with the
package imported from ``--src`` (default: this checkout's ``src``), in
CSV and in JSON, at ``--parallelism`` 1 and 2.  One line a command and
format gives the digest at parallelism 1; a command whose stdout differs
at parallelism 2 is flagged and makes the script exit 1, as does a
command that exits nonzero.  Compare the output of two checkouts to see
which tables a change moved.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

# The reference commands at their real sizes.
COMMANDS = (
    ("eur-fock", "--n-max", "50", "--asymptotics"),
    ("eur-mixture", "--steps", "101"),
    ("eur-thermal", "--points", "400"),
    ("bipartite-tmss",),
    ("bipartite-noon", "--n-max", "10"),
)
FORMATS = ("csv", "json")
PARALLELISM = (1, 2)


def digest(argv, src: str) -> str:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "wehrlkit.cli", *argv], env=env,
                          capture_output=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace').strip()}")
    return hashlib.sha256(proc.stdout).hexdigest()


def main(argv=None) -> int:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(here, "src"),
                        help="directory that holds the wehrlkit package")
    args = parser.parse_args(argv)
    failed = False
    for command in COMMANDS:
        for fmt in FORMATS:
            try:
                digests = [digest([*command, "--format", fmt, "--parallelism", str(p)], args.src)
                           for p in PARALLELISM]
            except RuntimeError as exc:
                print(f"{' '.join(command)}  {fmt:4}  FAILED: {exc}")
                failed = True
                continue
            flag = ""
            if len(set(digests)) > 1:
                flag = "  DIFFERS across --parallelism: " + ", ".join(
                    f"{p}: {d[:12]}" for p, d in zip(PARALLELISM, digests))
                failed = True
            print(f"{' '.join(command)}  {fmt:4}  {digests[0]}{flag}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
