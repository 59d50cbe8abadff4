"""Seeded character mutations of a small CSV table, read by ``load_csv``.

Each case deletes, inserts or replaces a few characters of a 4-row table,
drawing from the characters that a CSV reader treats specially: separators,
quotes, CR/LF, NUL, a byte-order mark, non-ASCII digits, ``_`` and the
words ``inf`` and ``nan``.  Some cases also get a byte that is not UTF-8.
``load_csv``, with the target column and with none, must return a
``Dataset`` or raise ``DataError``; any other exception, or a warning, is a
missing boundary check.  The generator is seeded, so every run tries the
same inputs.
"""

import random
import warnings

from anovafit import DataError, Dataset, load_csv

CASES = 2000
TABLE = "a,b,c,y\n0.1,0.2,0.3,1.5\n0.4,0.5,0.6,-2\n0.7,0.8,0.9,3e-1\n1,0,0.5,4\n"
TOKENS = [",", ";", "\t", " ", '"', "'", "\r", "\n", "\r\n", "\x00", "\ufeff",
          "١", "۳", "５", "_", "inf", "nan", "-", "+", "e", ".", "0", "9"]
INVALID_UTF8 = [b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]


def _mutated(rng: random.Random) -> bytes:
    text = TABLE
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        action = rng.choice(["delete", "insert", "replace"])
        token = "" if action == "delete" else rng.choice(TOKENS)
        text = text[:at] + token + text[at + (action != "insert"):]
    data = text.encode("utf-8")
    if rng.random() < 0.1:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(INVALID_UTF8) + data[at:]
    return data


def test_mutated_csv_text_raises_only_data_errors(tmp_path):
    rng = random.Random(20260917)
    path = tmp_path / "table.csv"
    outcomes = {"loaded": 0, "refused": 0}
    for case in range(CASES):
        data = _mutated(rng)
        path.write_bytes(data)
        for target in ("y", None):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    result = load_csv(path, target)
            except DataError:
                outcomes["refused"] += 1
            except Exception as exc:
                raise AssertionError(f"case {case}, target {target!r}: {data!r} raised "
                                     f"{type(exc).__name__}: {exc}") from exc
            else:
                assert isinstance(result, Dataset), (case, data)
                outcomes["loaded"] += 1
    # both outcomes occur, so the mutations neither break every table nor miss them all
    assert min(outcomes.values()) > CASES // 10, outcomes
