"""Every trust boundary, fuzzed from its own shape.

Each boundary below is a triple: the :mod:`repro.schema` shape its
parser checks, the parser (the code that takes the outside input), and
the error that parser raises on input that does not fit.  From every
shape the test derives valid values and single-field mutations — a
wrong type, a missing key, an extra key, a value outside its bounds or
choices — and each parser must either parse the value or raise its
boundary's error: never a ``TypeError``, ``KeyError``, ``IndexError``
or ``AttributeError`` from deeper in.
"""

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schema
from repro.api.result import _MANIFEST, RunResult
from repro.api.spec import _SECTIONS, RUN_KINDS, RunSpec, SpecError
from repro.distributed.wire import FRAMES, check_reply, decode_message
from repro.errors import WireProtocolError
from repro.measure import engine as engine_mod
from repro.measure.crawl import Crawler
from repro.measure.engine import _CHECKPOINT_LINES, CheckpointMismatch, CrawlEngine
from repro.schema import OneOf, Omittable, Range
from repro.service.jobs import JobQueue, _check_job, load_jobs
from repro.service.server import _check_submission, parse_submission
from repro.webgen import build_world

# ---------------------------------------------------------------------------
# Values from shapes
# ---------------------------------------------------------------------------

#: Values of every JSON type: a wrong type for almost any shape.
_ANY = st.sampled_from([None, True, 0, -1, 2.5, "x", [], [1], {}, {"k": 1}])
_SPECS = st.sampled_from([RunSpec(kind=kind).to_dict() for kind in RUN_KINDS])


def valid(shape) -> st.SearchStrategy:
    """Values that fit *shape* (a strategy stands for itself)."""
    if isinstance(shape, st.SearchStrategy):
        return shape
    if isinstance(shape, Omittable):
        return valid(shape.shape)
    if shape is None:
        return st.none()
    if isinstance(shape, tuple):
        return st.one_of([valid(option) for option in shape])
    if isinstance(shape, OneOf):
        return st.sampled_from(shape.choices)
    if isinstance(shape, Range):
        return _in_range(shape)
    if isinstance(shape, type):
        return {
            bool: st.booleans(), int: st.integers(-3, 100),
            float: st.floats(-10, 100) | st.integers(-3, 100),
            str: st.text(max_size=6),
            dict: st.dictionaries(st.text(max_size=4), _ANY, max_size=3),
        }[shape]
    if isinstance(shape, dict) and list(shape) == [str]:
        return st.dictionaries(st.text(max_size=6), valid(shape[str]), max_size=3)
    if isinstance(shape, dict):
        return st.fixed_dictionaries(
            {k: valid(s) for k, s in shape.items() if not isinstance(s, Omittable)},
            optional={k: valid(s) for k, s in shape.items() if isinstance(s, Omittable)},
        )
    if len(shape) == 1:
        return st.lists(valid(shape[0]), max_size=3)
    return st.tuples(*map(valid, shape)).map(list)


def _in_range(bounds: Range) -> st.SearchStrategy:
    low = bounds.min if bounds.above is None else bounds.above
    if bounds.kind is int:
        low = -3 if low is None else low + (bounds.above is not None)
        return st.integers(low, low + 100 if bounds.max is None else bounds.max)
    return st.floats(
        min_value=low, max_value=bounds.max, exclude_min=bounds.above is not None,
        allow_nan=False, allow_infinity=False,
    )


def mutant(shape) -> st.SearchStrategy:
    """Values of *shape* with exactly one field mutated: a wrong type, a
    missing or extra key, or a value out of bounds or choices."""
    if isinstance(shape, Omittable):
        shape = shape.shape
    options = [_ANY]
    if isinstance(shape, tuple):
        options += [mutant(option) for option in shape if option is not None]
    elif isinstance(shape, Range):
        options.append(st.sampled_from([
            edge for edge in (
                None if bounds is None else bounds + step
                for bounds, step in ((shape.min, -1), (shape.above, 0), (shape.max, 1))
            ) if edge is not None
        ]))
    elif isinstance(shape, OneOf):
        options.append(st.just("no-such-choice"))
    elif isinstance(shape, dict) and list(shape) == [str]:
        options.append(st.tuples(valid(shape), st.text(max_size=6), mutant(shape[str]))
                       .map(lambda t: {**t[0], t[1]: t[2]}))
    elif isinstance(shape, dict):
        whole = valid(shape)
        options += [
            whole.flatmap(lambda v: st.sampled_from(sorted(v)).map(
                lambda gone: {k: x for k, x in v.items() if k != gone}
            ) if v else st.just(v)),
            whole.map(lambda v: {**v, "zz_unknown": 1}),
            *(st.tuples(whole, mutant(sub)).map(lambda t, key=key: {**t[0], key: t[1]})
              for key, sub in shape.items()),
        ]
    elif isinstance(shape, list) and len(shape) == 1:
        options.append(st.tuples(valid(shape), mutant(shape[0])).map(lambda t: t[0] + [t[1]]))
    elif isinstance(shape, list):
        options += [
            st.tuples(valid(shape), mutant(sub)).map(
                lambda t, i=i: t[0][:i] + [t[1]] + t[0][i + 1:]
            )
            for i, sub in enumerate(shape)
        ]
    return st.one_of(options)


# ---------------------------------------------------------------------------
# The boundaries
# ---------------------------------------------------------------------------

class Env:
    """What the parsers run against: a small world and crawler, a plan,
    and a scratch directory for the files they read."""

    def __init__(self, tmp_path) -> None:
        self.world = build_world(scale=0.01, seed=11)
        self.crawler = Crawler(self.world)
        self.plan = self.crawler.plan_detection_crawl(["DE"], self.world.crawl_targets[:3])
        self.dir = tmp_path


def _frame(tag: str, value) -> object:
    body = {**value, "type": tag} if isinstance(value, dict) else value
    return decode_message(json.dumps(body).encode() + b"\n")


#: The bundle a fuzzed result frame answers.
_BUNDLE = {
    "shard": 0, "tasks": [[0, "DE", "a.example", "detect", 1]],
    "id_bases": [[0, 1]], "breakers": {},
}


def _install_worker_state(env: Env, state) -> None:
    with mock.patch("repro.webgen.world.build_world", return_value=env.world), \
            mock.patch("repro.webgen.evolve.evolve_world", return_value=(env.world, None)), \
            mock.patch.dict(engine_mod._WORKER_SHARED), \
            mock.patch.object(env.world.network, "latency"), \
            mock.patch.object(env.world.network, "latency_mode"):
        engine_mod._init_worker_shared(state)


def _load_job(env: Env, job) -> None:
    (env.dir / "jobs").mkdir(exist_ok=True)
    (env.dir / "jobs" / "job.json").write_text(json.dumps(job))
    queue = JobQueue()
    for loaded in load_jobs(env.dir / "jobs"):  # a bad file is skipped
        queue.restore(loaded)


def _resume_checkpoint(env: Env, line) -> None:
    engine = CrawlEngine(env.crawler, spool_path=env.dir / "crawl.jsonl", resume=True)
    path = engine.checkpoint
    header = engine._checkpoint_header(engine.fingerprint(env.plan), len(env.plan))
    path.write_text(header + json.dumps(line) + "\n", encoding="utf-8")
    engine._reconcile_checkpoint(env.plan)


def _load_run_result(env: Env, manifest) -> None:
    path = env.dir / "result.json"
    path.write_text(json.dumps(manifest), encoding="utf-8")
    RunResult.load(path)


def _section_kind(name: str) -> str:
    return name if name in RUN_KINDS else "crawl"


#: ``(name, shape, parser, error)``; *parser* takes ``(env, value)``.
BOUNDARIES = [
    *(
        (f"spec-{name}", schema.fields_shape(cls),
         lambda env, value, name=name: RunSpec.from_dict(
             {"kind": _section_kind(name), name: value}),
         SpecError)
        for name, cls in _SECTIONS.items()
    ),
    *(
        (f"override-{name}", schema.fields_shape(cls),
         lambda env, value, name=name: RunSpec(kind=_section_kind(name)).override(
             {name: value}),
         SpecError)
        for name, cls in _SECTIONS.items()
    ),
    ("worker-state", engine_mod._WORKER_STATE.shape, _install_worker_state,
     WireProtocolError),
    *(
        (f"wire-{tag}", check.shape,
         lambda env, value, tag=tag: _frame(tag, value), WireProtocolError)
        for tag, check in FRAMES.items() if tag != "result"
    ),
    ("wire-result", FRAMES["result"].shape,
     lambda env, value: check_reply(_frame("result", value), _BUNDLE),
     WireProtocolError),
    ("job", {**_check_job.shape, "spec": _SPECS}, _load_job, ()),
    ("service-body", {**_check_submission.shape, "spec": _SPECS},
     lambda env, value: parse_submission(json.dumps(value).encode()), ValueError),
    ("run-result", {**_MANIFEST.shape, "spec": _SPECS}, _load_run_result, SpecError),
    ("checkpoint-outcome", _CHECKPOINT_LINES["outcome"].shape, _resume_checkpoint,
     CheckpointMismatch),
    ("checkpoint-breaker", _CHECKPOINT_LINES["breaker"].shape, _resume_checkpoint,
     CheckpointMismatch),
]


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return Env(tmp_path_factory.mktemp("boundaries"))


@pytest.mark.parametrize(
    "name,shape,parser,error", BOUNDARIES, ids=[b[0] for b in BOUNDARIES]
)
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_boundary_parses_or_refuses(env, name, shape, parser, error, data):
    value = data.draw(st.one_of(valid(shape), mutant(shape)), label=name)
    try:
        parser(env, value)
    except error:
        pass


class TestMessages:
    """The wording each kind of mismatch produces."""

    @pytest.mark.parametrize("shape,value,message", [
        ({"workers": Range(int, min=1)}, {"workers": 0}, "engine.workers must be >= 1, got 0"),
        ({"workers": int}, {"workers": "2"}, "engine.workers: expected int, got '2'"),
        ({"x": (None, int)}, {"x": 1.5}, "engine.x: expected int or null, got 1.5"),
        ({"j": Range(float, min=0, max=1)}, {"j": 2}, "engine.j must be in [0, 1], got 2"),
        ({"s": Range(float, above=0, max=1)}, {"s": 0}, "engine.s must be in (0, 1], got 0"),
        ({"m": OneOf(("a", "b"))}, {"m": "c"}, "engine.m must be one of a, b, got 'c'"),
        ({"v": [str]}, {"v": "DE"}, "engine.v: expected a list of str, got 'DE' "
                                    "(write it as a one-element list)"),
        ({"v": [int]}, {"v": [0, "4"]}, "engine.v: expected a list of int, got the item '4'"),
        ({"t": {str: str}}, {"t": {"a": 1}}, "engine.t must be a table of str -> str, "
                                             "got the entry 'a': 1"),
        ({"o": [{"i": int}]}, {"o": [{"i": 1}, {"i": "2"}]},
         "engine.o[1].i: expected int, got '2'"),
        ({"k": int}, {"k": 1, "z": 2}, "engine: unknown key(s) z (known: k)"),
        ({"k": int, "l": Omittable(int)}, {}, "engine: missing key(s) k"),
    ])
    def test_message(self, shape, value, message):
        with pytest.raises(SpecError) as raised:
            schema.compile(shape, SpecError, "engine")(value)
        assert str(raised.value) == message

    def test_checker_returns_the_value(self):
        value = {"a": [1, 2]}
        assert schema.compile({"a": [int]})(value) is value

    def test_a_bool_is_no_int_and_an_int_is_a_float(self):
        with pytest.raises(ValueError, match="expected int, got True"):
            schema.compile(int)(True)
        schema.compile(float)(3)
