"""The import path: what ``import casimir1d`` compiles, and every export."""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# Run in a fresh interpreter: the modules the package and its CLI load, and
# where two names that neither needs live once they are asked for.
_PROBE = r"""
import json, sys
import casimir1d, casimir1d.cli
loaded = set(sys.modules)
homes = {name: getattr(casimir1d, name).__module__
         for name in ("green_function", "force_dissipationless")}
namespace = {}
exec("from casimir1d import *", namespace)
print(json.dumps({
    "homes": homes,
    "loaded": sorted(m for m in homes.values() if m in loaded),
    "unresolved": [n for n in casimir1d.__all__ if n not in namespace],
}))
"""


def test_import_compiles_only_the_force_path():
    # every benchmark sample compiles what the import loads, as it runs
    # without bytecode; the scattering modes and the limit routes load on
    # first use, and every name of __all__ still resolves
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True)
    got = json.loads(out.stdout)
    assert got["loaded"] == []
    assert got["homes"] == {"green_function": "casimir1d.modes",
                            "force_dissipationless": "casimir1d.limits"}
    assert got["unresolved"] == []
