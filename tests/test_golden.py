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
    --model, --scheme, --seed, --config and --param."""
    argv = entry["argv"]
    head = argv[:2] if argv[0] == "preset" else argv[:1]
    return "-".join(head + [argv[i + 1] for i, a in enumerate(argv)
                            if a in ("--model", "--scheme", "--seed", "--config", "--param")])


def _ids(entries):
    """`_name` of each entry. An entry whose name an earlier entry has gets
    the flags of its argv that the earlier one lacks appended, so no id
    repeats and adding an entry renames none of the others."""
    first, ids = {}, []
    for entry in entries:
        name = _name(entry)
        if name in first:
            name += "".join("-" + a[2:] for a in entry["argv"]
                            if a.startswith("--") and a not in first[name])
        else:
            first[name] = entry["argv"]
        ids.append(name)
    return ids


def test_ids_are_unique():
    assert len(set(_ids(ENTRIES))) == len(ENTRIES)


def test_table_lists_every_command():
    assert [tuple(e["argv"]) for e in ENTRIES] == list(COMMANDS)


@pytest.mark.parametrize("two_bins", [False, True], ids=["serial", "two_bins"])
@pytest.mark.parametrize("entry", ENTRIES, ids=_ids(ENTRIES))
def test_digest(entry, two_bins, tmp_path, monkeypatch):
    if two_bins:
        monkeypatch.setattr(schemes, "SERIAL_MAX_BYTES", 0)
    assert digest(entry["argv"], tmp_path) == {k: entry[k] for k in ("exit", "stdout", "files")}
