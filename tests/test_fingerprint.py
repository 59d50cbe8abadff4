"""The output fingerprint as a gate: every line of ``scripts/fingerprint_outputs.py``.

``tests/data/fingerprint.txt`` holds the script's output at one BLAS thread,
after a header of ``# key value`` lines that name the numpy version, the BLAS
and the CPU model it was taken on.  The
test runs the script in a subprocess with ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` set to 1 and compares its output
with the file line by line.  A change that means to change an output
rewrites the file in the same diff, from the root of the checkout:

    PYTHONPATH=src python3 tests/test_fingerprint.py

Two lines state facts about the machine, and each is compared by its own
rule:

* ``machine``: its thread variables are compared, its ``cpu_count`` is not
  (at one BLAS thread no output depends on it);
* ``errors.fit_bandwidth_1e9``: its message quotes
  :func:`~anovafit.errors.physical_memory`, so the running machine's
  value is put in place of the number quoted there before the comparison.

Every other line is compared exactly while the recorded numpy, BLAS and CPU
are the running ones.  When any of them differs, floating-point hashes may
change in the last bits without a fault, so only the structural lines are
compared (see :func:`structural`), and the test says so in a warning.
"""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

from anovafit.errors import physical_memory

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "fingerprint_outputs.py"
RECORD = Path(__file__).resolve().parent / "data" / "fingerprint.txt"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict[str, str]:
    """The running numpy, BLAS and CPU model, as header values."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', 'unknown')}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "cpu": cpu_model()}


def run_script() -> list[str]:
    env = {**os.environ, **dict.fromkeys(THREAD_VARIABLES, "1")}
    done = subprocess.run([sys.executable, str(SCRIPT)], env=env, cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=600)
    return done.stdout.splitlines()


def read_record() -> tuple[dict[str, str], list[str]]:
    header, lines = {}, []
    for line in RECORD.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            header[key] = value
        else:
            lines.append(line)
    return header, lines


def structural(line: str) -> str | None:
    """The part of ``line`` that no floating-point rounding changes, or None.

    That is the whole of an index union's lines (integer frequencies and
    slices), of an error message, of a help-text hash and of a count of table
    bytes or columns; the stop reason of a ``.stop`` line, without its
    iteration count; and the exit code of a command-line line.
    """
    name, _, value = line.partition(" ")
    if name.startswith(("union.", "errors.", "cli.help.")) or name in (
        "operator.d30.table_bytes", "fit.d30.columns"
    ):
        return line
    if name.endswith(".stop"):
        return f"{name} {value.partition(':')[0]}"
    code = value.partition(" ")[0]
    if name.startswith("cli.") and code.isdigit():
        return f"{name} {code}"
    return None


def machine_rules(line: str) -> str:
    """``line`` under the two rules of the module docstring for facts about the machine."""
    if line.startswith("machine "):
        return line.partition(" cpu_count=")[0]
    if line.startswith("errors.fit_bandwidth_1e9 "):
        return re.sub(r"the \d+ bytes of physical memory",
                      f"the {physical_memory()} bytes of physical memory", line)
    return line


def test_outputs_match_the_recorded_fingerprint():
    header, recorded = read_record()
    running = environment()
    expected = [machine_rules(line) for line in recorded]
    actual = [machine_rules(line) for line in run_script()]
    names = [line.partition(" ")[0] for line in actual]
    assert names == [line.partition(" ")[0] for line in expected]
    differs = [key for key in running if header[key] != running[key]]
    if differs:
        expected = [structural(line) for line in expected]
        actual = [structural(line) for line in actual]
        kept = sum(line is not None for line in expected)
        warnings.warn(
            f"fingerprint recorded on another {', '.join(differs)} "
            f"({'; '.join(f'{k}: recorded {header[k]}, running {running[k]}' for k in differs)}): "
            f"compared only the {kept} structural lines of {len(expected)}",
            stacklevel=1,
        )
    mismatches = [f"{e}\n  now {a}" for e, a in zip(expected, actual) if e != a]
    assert not mismatches, "fingerprint lines changed:\n" + "\n".join(mismatches)


def main() -> None:
    """Rewrite the recorded fingerprint from this checkout, on this machine."""
    lines = [f"# {key} {value}" for key, value in environment().items()] + run_script()
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
