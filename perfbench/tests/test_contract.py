#!/usr/bin/env python3
"""Checks that the benchmark binary and BENCHMARK.json agree.

    python3 perfbench/tests/test_contract.py <path to perfbench binary>

The metric names, units and directions the binary prints must be the
ones BENCHMARK.json declares, in both catalogues, and its workloads
must be BENCHMARK.json's. run.py must refuse, without printing a
result, in a directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BINARY = None


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        out = subprocess.run([BINARY, "--list-metrics"], check=True,
                             capture_output=True, text=True).stdout
        cls.catalogue = json.loads(out)

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         self.catalogue["workloads"])

    def test_metric_catalogues_match(self):
        for section in ("end_to_end", "per_layer"):
            declared = [(m["name"], m["unit"], m["better"])
                        for m in self.bench[section]]
            printed = [(m["name"], m["unit"], m["better"])
                       for m in self.catalogue[section]]
            self.assertEqual(declared, printed, section)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            res = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "npb-read",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(res.returncode, 0)
            self.assertEqual(res.stdout.strip(), "")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    BINARY = sys.argv.pop(1)
    unittest.main()
