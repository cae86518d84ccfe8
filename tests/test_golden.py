"""Outputs of the commands in `golden.COMMANDS` against the checked-in
digests, on the calling thread alone and with every multi-term step on the
two-bin path: both must give the bytes the table was made with."""

import json

import pytest

from golden import COMMANDS, TABLE, digest
from mpesplit import schemes

ENTRIES = json.loads(TABLE.read_text())["entries"]


def _name(entry):
    """The command (with a preset's name), then the value of each of its
    --model, --scheme, --seed and --config."""
    argv = entry["argv"]
    head = argv[:2] if argv[0] == "preset" else argv[:1]
    return "-".join(head + [argv[i + 1] for i, a in enumerate(argv)
                            if a in ("--model", "--scheme", "--seed", "--config")])


def test_table_lists_every_command():
    assert [tuple(e["argv"]) for e in ENTRIES] == list(COMMANDS)


@pytest.mark.parametrize("two_bins", [False, True], ids=["serial", "two_bins"])
@pytest.mark.parametrize("entry", ENTRIES, ids=_name)
def test_digest(entry, two_bins, tmp_path, monkeypatch):
    if two_bins:
        monkeypatch.setattr(schemes, "SERIAL_MAX_BYTES", 0)
    assert digest(entry["argv"], tmp_path) == {k: entry[k] for k in ("exit", "stdout", "files")}
