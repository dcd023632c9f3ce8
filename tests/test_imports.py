import os
import subprocess
import sys
from pathlib import Path

import featmc


def test_engines_do_not_import_numpy():
    # numpy adds about 14 MB of resident memory to every featmc process
    code = (
        "import sys, featmc, featmc.cli\n"
        "import featmc.engines.bounded, featmc.engines.enumerative\n"
        "import featmc.engines.parametric\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(featmc.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
