import os
import subprocess
import sys
from pathlib import Path

import featmc


def _modules_loaded_by_featmc(prefixes):
    """The modules among ``prefixes`` that importing featmc, its cli and the
    three engines loads in a fresh interpreter (not those it had already)."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import featmc, featmc.cli\n"
        "import featmc.engines.bounded, featmc.engines.enumerative\n"
        "import featmc.engines.parametric\n"
        "loaded = set(sys.modules) - before\n"
        f"print(sorted(m for m in loaded if m.split('.')[0] in {prefixes!r}))\n"
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
