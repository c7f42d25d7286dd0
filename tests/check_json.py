"""Fail unless every file named on the command line is strict JSON.

Python's json module accepts NaN, Infinity and -Infinity, which JSON
does not have, so they are rejected here as well.

    python3 tests/check_json.py FILE.json...
"""
import json
import sys


def reject(token):
    raise ValueError(f"{token} is not a JSON value")


for path in sys.argv[1:]:
    with open(path) as f:
        json.load(f, parse_constant=reject)
    print(path, "parses")
