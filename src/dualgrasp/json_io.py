"""Canonical JSON files: sorted keys, compact separators, one trailing newline."""

import json


def write_json(path, doc):
    """Write doc as canonical JSON in one json.dumps call, which takes the C encoder (json.dump does not)."""
    with open(path, "w") as f:
        f.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
