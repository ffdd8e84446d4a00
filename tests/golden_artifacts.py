"""Golden SHA-256 digests of the artifacts of the shipped configs.

``tests/test_acceptance.py`` solves ``configs/lq.cfg`` and
``configs/mfg2d.cfg`` and checks every artifact against
``tests/golden_artifacts.json``.  The digests hold for the numpy and scipy
versions recorded with them.  A change that is meant to alter the numbers
regenerates them with

    PYTHONPATH=src python tests/golden_artifacts.py

which solves both configs again (about 7 s on a 2-core host), rewrites the
file and prints each digest it changed as ``<config>/<file>``, one per line.
"""

import hashlib
import json
import os
import sys
import tempfile

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden_artifacts.json")
CONFIGS = ("lq.cfg", "mfg2d.cfg")
REGENERATE = "PYTHONPATH=src python tests/golden_artifacts.py"


def artifact_digests(out_dir):
    """Digest of every artifact but ``timing.txt``; ``config.copy`` is
    hashed without its ``out_dir`` line."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "timing.txt":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "config.copy":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"out_dir ="))
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def main():
    from mfgsolver.runner import RunConfig, run_algorithm1

    try:
        with open(GOLDEN) as fh:
            old = json.load(fh)
    except FileNotFoundError:
        old = {}
    golden = versions()
    with tempfile.TemporaryDirectory() as tmp:
        for name in CONFIGS:
            with open(os.path.join(HERE, "..", "configs", name)) as fh:
                cfg = RunConfig.from_ini(fh.read())
            cfg.out_dir = os.path.join(tmp, name)
            run_algorithm1(cfg)
            golden[name] = artifact_digests(cfg.out_dir)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name in CONFIGS:
        was = old.get(name, {})
        for file in sorted(golden[name].keys() | was.keys()):
            if golden[name].get(file) != was.get(file):
                print(f"{name}/{file}")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
