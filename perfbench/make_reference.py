"""Regenerate reference.json: the expected stdout of every distinct job any
seed can produce, parsed for the gate, with its SHA-256.

    python3 perfbench/make_reference.py

Run it only at a commit whose outputs are known good; the gate compares
every later run against these values (integers exactly, floats within a
relative 1e-12).
"""

from __future__ import annotations

import hashlib
import json
import sys

import gate
import run
from workloads import GROUPS, all_jobs, reference_key


def main() -> int:
    reference = {}
    for group in GROUPS:
        for job in all_jobs(group):
            res = run.spawn(run.cli_argv(job), run.cli_env(job.env))
            if res["exit_code"] != 0:
                print(f"{reference_key(job)}: exit {res['exit_code']}\n{res['stderr']}", file=sys.stderr)
                return 1
            text = res["stdout"].decode()
            reference[reference_key(job)] = {
                "sha256": hashlib.sha256(res["stdout"]).hexdigest(),
                "parsed": gate.parse_stdout(text),
            }
            print(f"{res['wall_s']:6.2f}s {reference_key(job)}", flush=True)
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
