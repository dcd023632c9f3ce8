import os
import subprocess
import sys
from pathlib import Path

import featmc


EVERYTHING = (
    "import featmc, featmc.cli\n"
    "import featmc.engines.bounded, featmc.engines.enumerative\n"
    "import featmc.engines.parametric\n"
)


def _modules_loaded_by_featmc(prefixes, imports=EVERYTHING):
    """The modules among ``prefixes`` (a module and its submodules) that
    ``imports``, by default featmc, its cli and the three engines, loads in
    a fresh interpreter (not those it had already)."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{imports}"
        "loaded = set(sys.modules) - before\n"
        f"wanted = {prefixes!r}\n"
        "print(sorted(m for m in loaded if m in wanted or m.split('.')[0] in wanted))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(featmc.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_engines_do_not_import_numpy():
    # numpy adds about 14 MB of resident memory to every featmc process
    assert _modules_loaded_by_featmc(("numpy",)) == "[]"


def test_no_dataclass_machinery_at_import():
    # the record classes are built without dataclasses, which would also
    # load inspect (and with it ast, dis and tokenize) on every import
    assert _modules_loaded_by_featmc(("dataclasses", "inspect")) == "[]"


def test_library_import_leaves_the_cli_out():
    # the command line sits on top of the library: import featmc loads
    # neither it nor its argument parsing and output formats
    unwanted = ("featmc.cli", "featmc.report", "argparse", "csv", "json")
    assert _modules_loaded_by_featmc(unwanted, "import featmc\n") == "[]"
