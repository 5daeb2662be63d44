# lint-as: src/repro/distributed/fixture_worker_ok.py
# expect: clean
"""Near-misses: JSON data, a local helper named ``pickle``, and a
sibling module whose name merely starts with a banned one."""

import json

from repro.measure import pickled_counts as pickle_stats


def pickle(state):
    # A local name, not the stdlib module: it writes JSON.
    return json.dumps(state, sort_keys=True)


def install(line):
    state = json.loads(line)
    return state, pickle_stats, "pickle"
