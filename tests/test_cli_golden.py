"""The README's CLI examples give the same numbers, to 1e-12, and the same
text, exactly, as the recorded ones in `tests/data/cli_golden.json`.

Regenerate the file (only when a change is meant to move the numbers):

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
from pathlib import Path

import numpy as np
import pytest

from qauction import cli

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
LOCK = ["--alpha1", "0.9", "--alpha2", "0.7"]
CASES = {
    "converge": ["converge", "--bids", "10,11", "--steps", "20", "--delta", "1.5"],
    "converge.lock": ["converge", "--bids", "11,10", "--defense", "lock"] + LOCK,
    "variants": ["variants", "--bids", "10,11", "--steps", "40", "--delta", "1"],
    "gap": ["gap", "--bids", "10,11", "--steps", "20"],
    "gap.unrestricted": ["gap", "--bids", "10,11", "--restrict", "false"],
    "gap.lock": ["gap", "--bids", "11,10", "--defense", "lock"] + LOCK,
    "gap.spurious": ["gap", "--bids", "10,11", "--table", "spurious"],
    "attack.probe_basis": ["attack", "--attack", "probe_basis", "--bids", "10,11",
                           "--rounds", "20"],
    "attack.probe_basis.lock": ["attack", "--attack", "probe_basis", "--bids", "11,10",
                                "--defense", "lock"] + LOCK,
    "attack.spurious": ["attack", "--attack", "spurious", "--bids", "10,11"],
    "attack.spurious.collude": ["attack", "--attack", "spurious", "--bids", "10,11",
                                "--defense", "collude"],
    "povm": ["povm"],
}


def _number(token: str) -> list[float] | None:
    """A CSV or matrix entry as [value], or a complex one as [re, im]."""
    try:
        if token.endswith("j"):
            z = complex(token)
            return [z.real, z.imag]
        return [float(token)]
    except ValueError:
        return None


# Settings whose values are bit strings: read as numbers they would lose their leading zeros.
TEXT_KEYS = ("winner", "revealing")


def record(text: str) -> dict:
    """A CLI output split into its numbers and its text. `meta` holds the
    `key=value` and `key = value` settings whose value is a real number,
    and `rows` every line whose fields are all numbers (CSV rows, POVM
    matrix rows). `text` holds, in order, every other setting as written
    and every other line (headers, labels)."""
    meta, rows, words = {}, [], []
    for line in text.splitlines():
        if line.startswith("#"):
            pairs = [field.partition("=") for field in line[1:].split()]
        elif " = " in line:
            pairs = [line.partition(" = ")]
        else:
            fields = [_number(tok) for tok in line.replace(",", " ").split()]
            if fields and all(f is not None for f in fields):
                rows.append([x for f in fields for x in f])
            else:
                words.append(line)
            continue
        for key, sep, value in pairs:
            got = None if key.strip() in TEXT_KEYS else _number(value.strip())
            if got is None:
                words.append(key + sep + value)
            elif len(got) == 1:
                meta[key.strip()] = got[0]
    return {"meta": meta, "rows": rows, "text": words}


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, argv
    return out.getvalue()


@functools.cache
def recorded(name: str) -> tuple[dict, dict]:
    """The golden record of case `name` and the record of its output now."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert want["argv"] == CASES[name]
    return want, record(run(CASES[name]))


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_example_numbers_match_the_golden(name):
    want, got = recorded(name)
    assert got["meta"].keys() == want["meta"].keys()
    for key, value in want["meta"].items():
        assert abs(got["meta"][key] - value) <= 1e-12, key
    assert [len(r) for r in got["rows"]] == [len(r) for r in want["rows"]]
    np.testing.assert_allclose(np.concatenate(got["rows"]), np.concatenate(want["rows"]),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(CASES))
def test_readme_example_text_matches_the_golden(name):
    want, got = recorded(name)
    assert got["text"] == want["text"]


if __name__ == "__main__":
    golden = {name: {"argv": argv, **record(run(argv))} for name, argv in CASES.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
