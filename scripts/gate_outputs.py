#!/usr/bin/env python3
"""Write the outputs a refactor must leave byte-identical.

Each file in OUTDIR is what one command writes when run from this
checkout's ``src``:

* ``scan500.json``: ``szilard scan --count 500 --seed 20260814``;
* ``thermal100.json``: ``szilard scan --count 100 --seed 7151 --thermal``;
* ``examples.json``: ``scripts/run_examples.py --json``;
* ``window.csv``: ``scripts/window_convergence.py --sizes 5 10 20 50 100
  200 500 --csv``;
* ``run_<name>.json`` and ``run_<name>.csv``: ``szilard run`` in each
  format on every document of ``tests/golden/library.json``.

Run it in two checkouts and compare with ``diff -r``.  The ``SZILARD_*``
environment overrides are cleared, and the interpreter's ``-W`` options
reach every command.

Usage: python3 scripts/gate_outputs.py OUTDIR
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WINDOW_SIZES = ["5", "10", "20", "50", "100", "200", "500"]


def _run(args: list[str]) -> None:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SZILARD_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    warn = [f"-W{w}" for w in sys.warnoptions]
    subprocess.run(
        [sys.executable, *warn, *args], cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", help="directory the outputs are written to")
    ns = parser.parse_args(argv)
    out = Path(ns.outdir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    cli = ["-m", "szilard.cli"]
    _run([*cli, "scan", "--count", "500", "--seed", "20260814",
          "--out", str(out / "scan500.json")])
    _run([*cli, "scan", "--count", "100", "--seed", "7151", "--thermal",
          "--out", str(out / "thermal100.json")])
    _run(["scripts/run_examples.py", "--json", str(out / "examples.json")])
    _run(["scripts/window_convergence.py", "--sizes", *WINDOW_SIZES,
          "--csv", str(out / "window.csv")])
    library = json.loads(
        (ROOT / "tests" / "golden" / "library.json").read_text(encoding="utf-8")
    )
    with tempfile.TemporaryDirectory() as tmp:
        for entry in library:
            doc = entry["document"]
            path = Path(tmp) / f"{doc['name']}.yaml"
            # PyYAML reads a float such as 1e-05 only in the form it dumps
            path.write_text(yaml.safe_dump(doc), encoding="utf-8")
            for fmt in ("json", "csv"):
                _run([*cli, "run", str(path), "--format", fmt,
                      "--out", str(out / f"run_{doc['name']}.{fmt}")])
    print(f"wrote {len(list(out.iterdir()))} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
