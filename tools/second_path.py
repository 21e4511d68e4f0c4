"""Run a command under numpy's second set of SIMD code paths.

Usage:

    PYTHONPATH=<tree>/src python tools/second_path.py tools/fit_digest.py > digests_avx2.txt
    PYTHONPATH=<tree>/src python tools/second_path.py tools/cli_manifest.py OUTDIR

numpy picks the SIMD code of its ufuncs (exp, log, log1p, power, ...) for
the CPU when it is imported, and those code paths can differ in the last
bits. On a CPU with AVX-512 this script reads the AVX-512 feature names
this numpy reports as available and runs the command in a subprocess with
``NPY_DISABLE_CPU_FEATURES`` set to them, so numpy there runs its AVX2
code, as on a CPU without AVX-512. The variable acts on the child
processes only; no machine setting changes.

Before the command runs, a child process under the same setting checks
that numpy reports those of its dispatch targets as disabled; the names
disabled are printed on standard error. A command whose first word ends
in ``.py`` is run with this Python. The command's exit code is returned;
2 means this numpy reports no AVX-512 feature, so there is no second path
of this kind here, and 3 that numpy did not disable them.

Comparing its output with a plain run of the same command on the same
tree shows what moves with the code path; comparing it with another
tree's output under this script checks that a change keeps the bits on
this path too.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

ENV_VAR = "NPY_DISABLE_CPU_FEATURES"

# Run in a child: the CPU features numpy reports as available, and its
# dispatch targets, as JSON.
PROBE = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(json.dumps({"features": __cpu_features__, "dispatch": list(__cpu_dispatch__)}))
"""


def probe(env) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def avx512_names(features: dict) -> list:
    """The available AVX-512 features, X86_V4 (the AVX-512 level) included."""
    return [n for n, on in features.items() if on and (n.startswith("AVX512") or n == "X86_V4")]


def main(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__, file=sys.stderr)
        return 0 if argv else 1
    plain = {k: v for k, v in os.environ.items() if k != ENV_VAR}
    names = avx512_names(probe(plain)["features"])
    if not names:
        print("numpy reports no AVX-512 feature on this CPU: no second code path to run", file=sys.stderr)
        return 2
    env = dict(plain, **{ENV_VAR: " ".join(names)})
    child = probe(env)
    targets = [n for n in names if n in child["dispatch"]]
    still_on = [n for n in targets if child["features"].get(n)]
    if not targets or still_on:
        print(f"numpy did not disable its AVX-512 dispatch targets: {still_on or names}", file=sys.stderr)
        return 3
    print(f"{ENV_VAR}={env[ENV_VAR]} (dispatch targets off: {' '.join(targets)})", file=sys.stderr)
    command = list(argv)
    if command[0].endswith(".py"):
        command.insert(0, sys.executable)
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
