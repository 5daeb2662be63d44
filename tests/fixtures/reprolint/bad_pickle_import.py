# lint-as: src/repro/distributed/fixture_worker.py
# expect: no-pickle
"""A worker that unpickles the coordinator's shared state: any peer
that reaches the socket runs code in the worker."""

import base64
import pickle
from marshal import loads as marshal_loads

import cloudpickle.cloudpickle as cp


def install(blob):
    return pickle.loads(base64.b64decode(blob))


def install_code(blob):
    return marshal_loads(blob), cp
