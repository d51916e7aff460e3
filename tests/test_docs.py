"""Concordance completeness: every public operation appears in the table."""

import csv
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


def _concordance_operations():
    path = DOCS / "concordance.csv"
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "concordance must not be empty"
    for row in rows:
        assert row["operation"] and row["module"] and row["formula_or_role"]
    return {row["operation"] for row in rows}


def test_every_public_operation_is_listed():
    listed = _concordance_operations()
    missing = [name for name in casimir1d.__all__
               if name not in _EXEMPT and name not in listed]
    assert not missing, "concordance lacks: %s" % ", ".join(missing)


def test_cli_commands_are_listed():
    listed = _concordance_operations()
    missing = sorted(_CLI_COMMANDS - listed)
    assert not missing, "concordance lacks commands: %s" % ", ".join(missing)


def test_docs_pages_exist():
    assert (DOCS / "units.md").is_file()
    assert (DOCS / "reproduce_sweep.md").is_file()
