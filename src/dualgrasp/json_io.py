"""Canonical JSON files: sorted keys, compact separators, one trailing newline."""

import json
from contextlib import contextmanager


def write_json(path, doc):
    """Write doc as canonical JSON in one json.dumps call, which takes the C encoder (json.dump does not)."""
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


class MissingKey(KeyError):
    """A stored record lacks a required key; the message names the file and the key."""

    def __str__(self):
        return self.args[0]


@contextmanager
def keys_of(path):
    """Reads of the stored document at path: a KeyError becomes a MissingKey that names path and the key."""
    try:
        yield
    except MissingKey:
        raise
    except KeyError as e:
        raise MissingKey(f"{path}: missing key {e.args[0]!r}") from None
