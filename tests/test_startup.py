"""Start-up: importing avpipesim loads numpy with a one-thread OpenBLAS pool
and leaves the environment as it found it."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import avpipesim

CHILD = """
import json, os
before = dict(os.environ)
import avpipesim
print(json.dumps({"threads": len(os.listdir("/proc/self/task")),
                  "environ_kept": dict(os.environ) == before,
                  "value": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _numpy_uses_openblas() -> bool:
    try:
        return "openblas" in np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2
                    or not _numpy_uses_openblas(),
                    reason="OpenBLAS starts no thread pool here, or threads cannot be counted")
@pytest.mark.parametrize("caller, threads", [(None, 1), ("2", 2)], ids=["unset", "caller-2"])
def test_import_sizes_the_openblas_pool_and_keeps_the_environment(caller, threads):
    src = os.path.dirname(os.path.dirname(avpipesim.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    done = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"threads": threads, "environ_kept": True,
                                       "value": caller}
