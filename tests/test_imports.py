"""The package and the command line load only the modules a command runs."""

import importlib
import json
import subprocess
import sys

import pytest

import ekrcheck

# Runs ``python -m ekrcheck`` in-process, then writes to stderr the exit
# code, the ekrcheck modules loaded and whether dataclasses and json were
# loaded; the probe imports json only after the run.  ``cli.run`` leaves
# through ``os._exit``, which the probe turns into SystemExit so that it
# can report after the run.
PROBE = """
import os, runpy, sys

def leave(code):
    raise SystemExit(code)

os._exit = leave
try:
    runpy.run_module("ekrcheck", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
outcome = {
    "exit": code,
    "modules": sorted(name for name in sys.modules if name.startswith("ekrcheck")),
    "dataclasses": "dataclasses" in sys.modules,
    "json": "json" in sys.modules,
}
import json
print(json.dumps(outcome), file=sys.stderr)
"""

BASE = ["ekrcheck", "ekrcheck.cli", "ekrcheck.errors"]
CYCLE = BASE + ["ekrcheck.counts", "ekrcheck.cycles", "ekrcheck.rook"]
SEARCH = BASE + ["ekrcheck.counts", "ekrcheck.graphs", "ekrcheck.rook", "ekrcheck.search"]


def probe(*argv: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True)
    return json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("argv, modules", [
    (["count", "--n", "4", "--m", "4", "--r", "2"], BASE + ["ekrcheck.counts"]),
    (["verify", "--n", "4", "--m", "4", "--r", "2"],
     BASE + ["ekrcheck.counts", "ekrcheck.rook", "ekrcheck.search"]),
    (["lemma1", "--n", "5", "--m", "5"], CYCLE),
    (["occurrence", "--n", "4", "--m", "4", "--r", "2"], CYCLE),
    (["windows", "--n", "5", "--m", "5", "--r", "2"], CYCLE),
    (["double-count", "--n", "4", "--m", "4", "--r", "2", "--samples", "2"], CYCLE),
    (["ht", "--graph", "E5"], SEARCH),
    (["lex", "--graph", "E8", "--k", "2", "--r", "4"], SEARCH),
    (["graph-stats", "--graph", "C5"], BASE + ["ekrcheck.graphs"]),
])
def test_each_command_loads_only_what_it_runs(argv, modules):
    # A run that reads no JSON file writes its report without json.
    outcome = probe(*argv, "--json")
    assert outcome == {"exit": 0, "modules": sorted(modules), "dataclasses": False, "json": False}


def test_a_graph_file_loads_json(tmp_path):
    path = tmp_path / "c5.json"
    path.write_text(json.dumps({"vertices": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]]}))
    outcome = probe("graph-stats", "--graph", str(path), "--json")
    modules = BASE + ["ekrcheck.graphs"]
    assert outcome == {"exit": 0, "modules": sorted(modules), "dataclasses": False, "json": True}


def test_check_witness_loads_the_validators_but_not_the_search(tmp_path):
    payload = {
        "kind": "window_violation", "sigma1": [1, 2, 3, 4], "sigma2": [1, 2, 3, 4],
        "start": [1, 1], "r": 2, "failure": "x", "witness": [],
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"counterexample": payload}))
    outcome = probe("check-witness", "--report", str(path), "--json")
    modules = CYCLE + ["ekrcheck.witness"]
    assert outcome == {"exit": 1, "modules": sorted(modules), "dataclasses": False, "json": True}


def test_importing_the_package_loads_no_submodule():
    code = "import sys, ekrcheck; print(sorted(m for m in sys.modules if m.startswith('ekrcheck')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True).stdout
    assert out.strip() == "['ekrcheck']"


@pytest.mark.parametrize("name", ekrcheck.__all__)
def test_every_public_name_is_the_submodule_object(name):
    module = importlib.import_module(f"ekrcheck.{ekrcheck._EXPORTS[name]}")
    assert getattr(ekrcheck, name) is getattr(module, name)
    assert name in dir(ekrcheck)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ekrcheck.no_such_name
    assert not hasattr(ekrcheck, "dataclass")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ekrcheck import *", namespace)
    assert set(ekrcheck.__all__) <= set(namespace)
    assert namespace["SearchBudget"] is importlib.import_module("ekrcheck.search").SearchBudget

