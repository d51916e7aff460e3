"""Concordance completeness: every public operation appears in the table."""

import csv
import importlib
import pathlib

import casimir1d

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs"

# infrastructure names that are not physics operations
_EXEMPT = {
    "__version__",
    "CavityResonanceError", "DeltaStateWeightError", "NaNIntegrandError",
    "NonConvergenceError", "RegionUnsupportedError",
    "ResonanceSingularityError", "SingularEvaluationError",
}

_CLI_COMMANDS = {"force", "sweep-sigma", "limits", "verify"}


def _concordance_rows():
    path = DOCS / "concordance.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "concordance must not be empty"
    for row in rows:
        assert row["operation"] and row["module"] and row["formula_or_role"]
    return rows


def _concordance_operations():
    return {row["operation"] for row in _concordance_rows()}


def test_every_public_operation_is_listed():
    listed = _concordance_operations()
    missing = [name for name in casimir1d.__all__
               if name not in _EXEMPT and name not in listed]
    assert not missing, "concordance lacks: %s" % ", ".join(missing)


def test_cli_commands_are_listed():
    listed = _concordance_operations()
    missing = sorted(_CLI_COMMANDS - listed)
    assert not missing, "concordance lacks commands: %s" % ", ".join(missing)


def test_every_listed_operation_exists():
    # a row names an attribute of its module or a CLI command, so a removed
    # name cannot linger in the table
    stale = [row["operation"] for row in _concordance_rows()
             if row["operation"] not in _CLI_COMMANDS
             and not hasattr(importlib.import_module(row["module"]),
                             row["operation"])]
    assert not stale, "concordance lists missing names: %s" % ", ".join(stale)


def test_docs_pages_exist():
    assert (DOCS / "units.md").is_file()
    assert (DOCS / "reproduce_sweep.md").is_file()
