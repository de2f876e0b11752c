"""The package and its CLI import nothing outside the standard library.

The oracles in the tests use hypothesis and networkx; this keeps them from
leaking into the runtime.  The child runs with -S, so site-packages is not
on its path and only PYTHONPATH can supply the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import oddcolor

SRC = str(Path(oddcolor.__file__).resolve().parents[1])

PROBE = """
import json, sys
import oddcolor, oddcolor.cli
tops = {name.partition(".")[0] for name in sys.modules}
print(json.dumps(sorted(tops - set(sys.stdlib_module_names) - {"oddcolor", "__main__"})))
"""


def test_runtime_imports_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
