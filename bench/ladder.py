"""One-shot record of the large baseline instances; not part of the gated benchmark.

    python3 bench/ladder.py > bench/ladder-record.json

Runs each instance once, as one ekrcheck process, and kills it (with its
pool workers) when it passes the wall cap.  The record says which
instances finished and how long each took, so that a change that brings
one of them within reach shows.  ``verify --n 8 --m 8 --r 4`` is left out:
its bitmasks alone need about 1.7 GB before any budget applies.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from run import spawn, work_directory

CAP_S = 300.0  # wall cap per instance

INSTANCES = {
    "verify-7x7-r3": ("verify", "--n", "7", "--m", "7", "--r", "3", "--json"),
    "ht-E9": ("ht", "--graph", "E9", "--json"),
    "windows-6x6-r3": ("windows", "--n", "6", "--m", "6", "--r", "3", "--json"),
    "occurrence-6x6-r2": ("occurrence", "--n", "6", "--m", "6", "--r", "2", "--json"),
    "lemma1-7x7": ("lemma1", "--n", "7", "--m", "7", "--json"),
}


def main() -> int:
    record = {"python": platform.python_version(), "cpus": os.cpu_count(),
              "cap_s": CAP_S, "instances": []}
    with work_directory() as workdir:
        for name, argv in INSTANCES.items():
            out, err = workdir / f"{name}.json", workdir / f"{name}.err"
            child = spawn([sys.executable, "-m", "ekrcheck", *argv], workdir, out, err,
                          cap_s=CAP_S)
            finished = child.exit_code >= 0
            entry = {
                "name": name,
                "argv": list(argv),
                "exit": child.exit_code if finished else None,
                "finished": finished,
                "wall_s": round(child.wall_s, 3),
                "cpu_s": round(child.cpu_s, 3),
                "peak_rss_mb": round(child.maxrss_kb / 1024, 1),
            }
            record["instances"].append(entry)
            print(json.dumps(entry), file=sys.stderr)
    print(json.dumps(record, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
