"""Seeded string mutations of the ``refine`` and ``bench-real`` flag values.

Each case takes one flag of a command line that succeeds, changes its value
by one or two character edits or replaces it with an edge value, and runs
it in-process through ``cli.main``.  The case must succeed, end in exit 2 or
3 with one line on stderr, or end in argparse's ``SystemExit(2)``; any other
exception is a boundary check that is missing.  The model and the table are
over 4 variables and the edits add at most two characters, so no accepted
value allocates much.  The cases are seeded, so every run tries the same
inputs.
"""

import numpy as np
import pytest

from anovafit.cli import main

BASE = {
    "refine": {"--gsi-threshold": "0.02,0.01", "--drop-below": "0.1", "--expand": "3",
               "--theta": "0.05"},
    "bench-real": {"--keep": "1,2,3", "--bandwidths": "4,2", "--split": "0.7",
                   "--gsi-threshold": "0.01"},
}
ALPHABET = "0123456789,.-+eE _naif٣x"
EDGES = ("", " ", ",", "-", "nan", "inf", "-inf", "1e400", "-0", "0", "1", "-1", "0x10",
         "1_0", "٣", "9" * 25, "1," * 3)
CASES = 120  # per command


def mutate(rng: np.random.Generator, text: str) -> str:
    """``text`` after one or two insertions, deletions or replacements, or an edge value."""
    if rng.random() < 0.2:
        return EDGES[rng.integers(len(EDGES))]
    chars = list(text)
    for _ in range(rng.integers(1, 3)):
        op, at = rng.integers(3), rng.integers(len(chars) + 1)
        char = ALPHABET[rng.integers(len(ALPHABET))]
        if op == 0 or not chars:
            chars.insert(at, char)
        elif op == 1:
            del chars[min(at, len(chars) - 1)]
        else:
            chars[min(at, len(chars) - 1)] = char
    return "".join(chars)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A Friedman-2 model file (d = 4, ds = 2) and a 40-row table over 4 variables."""
    root = tmp_path_factory.mktemp("fuzz_flags")
    model = root / "model.json"
    assert main(["fit", "--friedman", "2", "--ds", "2", "--bandwidths", "4,2",
                 "--out", str(model), "--metrics-out", str(root / "metrics.json")]) == 0
    rng = np.random.default_rng(0)
    table = rng.random((40, 5))
    csv = root / "table.csv"
    csv.write_text("a,b,c,d,y\n" + "".join(",".join(map(str, row.tolist())) + "\n"
                                           for row in table))
    paths = {"model": str(model), "csv": str(csv), "out": str(root / "out.json")}
    for command in BASE:  # the unmutated command lines succeed
        assert main(command_line(command, *next(iter(BASE[command].items())), paths)) == 0
    return paths


def command_line(command, flag, value, inputs):
    flags = {**BASE[command], flag: value}
    if command == "refine":
        head = ["refine", "--model", inputs["model"], "--out", inputs["out"]]
    else:
        head = ["bench-real", "custom", "--csv", inputs["csv"], "--reps", "2",
                "--out", inputs["out"]]
    # "--flag=value" keeps a value that starts with "-" a value
    return head + [f"{name}={text}" for name, text in flags.items()]


# an accepted value may warn, of a rank-deficient fit or an unchanged term set
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("command", sorted(BASE))
@pytest.mark.parametrize("case", range(CASES))
def test_mutated_flag_ends_in_success_or_a_typed_error(inputs, capsys, command, case):
    rng = np.random.default_rng([sorted(BASE).index(command), case])
    flag = list(BASE[command])[case % len(BASE[command])]
    value = mutate(rng, BASE[command][flag])
    try:
        code = main(command_line(command, flag, value, inputs))
    except SystemExit as exc:
        err = capsys.readouterr().err
        assert exc.code == 2, (flag, value)
        assert err.splitlines()[-1].startswith("anovafit ") and ": error: " in err, (flag, value)
        return
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (flag, value, code, err)
    if code:
        assert err.startswith(("configuration error: ", "data error: ")), (flag, value, err)
        assert err.count("\n") == 1, (flag, value, err)
