"""The zero-copy record contract: bytes in, bytes out, no decode.

A record produced by a worker process is serialized exactly
once (in the worker) and must reach the final spool — through
absorption, the journal, and the k-way join — without the parent ever
calling ``decode_record``.  The observable half of that contract is
:func:`record_decode_count`; these tests snapshot it around each
transport leg.
"""

import json

import pytest

from repro.measure import CrawlEngine, Crawler
from repro.measure.engine import CrawlTask, TaskOutcome
from repro.measure.records import VisitRecord
from repro.measure.storage import (
    RawRecord,
    decode_record,
    encode_record,
    encode_record_line,
    iter_records,
    materialize_record,
    merge_record_spools,
    record_decode_count,
    save_records,
    validate_record_payload,
)


def _visit_record(i=0):
    return VisitRecord(
        vp="DE",
        domain=f"site-{i}.example",
        banner_found=True,
        is_cookiewall=bool(i % 2),
        has_accept=True,
        has_reject=False,
        banner_text="3,99 EUR im Monat" if i % 2 else "Alle akzeptieren",
        detected_language="de",
    )


# ---------------------------------------------------------------------------
# RawRecord semantics
# ---------------------------------------------------------------------------

def test_raw_record_round_trip_and_laziness():
    record = _visit_record(3)
    raw = RawRecord(encode_record_line(record))
    before = record_decode_count()
    # Wrapping and re-serialising is pure pass-through.
    assert raw.raw == encode_record_line(record)
    assert encode_record_line(raw) == raw.raw
    assert record_decode_count() == before
    # First field inspection decodes — exactly once, then cached.
    assert raw.domain == record.domain
    assert record_decode_count() == before + 1
    assert raw.is_cookiewall == record.is_cookiewall
    assert raw.materialize() == record
    assert record_decode_count() == before + 1


def test_raw_record_equality_both_directions():
    record = _visit_record(1)
    raw = RawRecord(encode_record_line(record))
    assert raw == record
    assert record == raw  # dataclass __eq__ reflects to RawRecord's
    assert raw == RawRecord(encode_record_line(record))
    assert raw != RawRecord(encode_record_line(_visit_record(2)))
    assert materialize_record(raw) is raw.materialize()
    assert materialize_record(record) is record


def test_raw_record_from_payload_is_byte_identical():
    record = _visit_record(4)
    payload = encode_record(record)
    assert RawRecord.from_payload(payload).raw == encode_record_line(record)


def test_save_records_raw_passthrough_byte_identical(tmp_path):
    records = [_visit_record(i) for i in range(5)]
    typed_path = tmp_path / "typed.jsonl"
    raw_path = tmp_path / "raw.jsonl"
    save_records(records, typed_path)
    before = record_decode_count()
    save_records(
        (RawRecord(encode_record_line(r)) for r in records), raw_path
    )
    assert record_decode_count() == before
    assert raw_path.read_bytes() == typed_path.read_bytes()
    assert list(iter_records(raw_path)) == records


@pytest.mark.parametrize("payload, message", [
    ({"type": "VisitRecord", "data": {"vp": "DE", "domain": "a.de", "bogus": 1}},
     "VisitRecord: unknown key(s) bogus"),
    ({"type": "VisitRecord", "data": {"domain": "a.de"}},
     "VisitRecord: missing key(s) vp"),
    ({"type": "VisitRecord", "data": {"vp": 7, "domain": ["x"]}},
     "VisitRecord.vp: expected str, got 7"),
    ({"type": "CookieMeasurement", "data": {"vp": "DE", "domain": "a.de"}},
     "CookieMeasurement: missing key(s) mode"),
    ({"type": "CookieMeasurement",
      "data": {"vp": "DE", "domain": "a.de", "mode": "accept", "repeats": "5"}},
     "CookieMeasurement.repeats: expected int, got '5'"),
    ({"type": "UBlockRecord", "data": {"domain": "a.de", "extra": True}},
     "UBlockRecord: unknown key(s) extra"),
    ({"type": "UBlockRecord", "data": {"domain": "a.de", "suppressed": 1}},
     "UBlockRecord.suppressed: expected bool, got 1"),
])
def test_decode_record_checks_the_body(payload, message):
    """A record body must fit its type's fields: no unknown or missing
    key, no wrong type; the error names the field."""
    with pytest.raises(ValueError) as raised:
        decode_record(payload)
    assert str(raised.value).startswith(message)


def test_validate_record_payload_refusals():
    validate_record_payload(encode_record(_visit_record()))
    with pytest.raises(ValueError, match="unknown record type"):
        validate_record_payload({"type": "Nope", "data": {}})
    with pytest.raises(ValueError, match="no data"):
        validate_record_payload({"type": "VisitRecord"})
    with pytest.raises(ValueError, match="not an object"):
        validate_record_payload("VisitRecord")


# ---------------------------------------------------------------------------
# The outcome-line splice
# ---------------------------------------------------------------------------

def _oracle_outcome_line(outcome):
    """The single-dump form the splice must reproduce byte for byte."""
    return json.dumps({
        "kind": "outcome",
        "index": outcome.index,
        "attempts": outcome.attempts,
        "error": outcome.error,
        "record": (
            encode_record(materialize_record(outcome.record))
            if outcome.record is not None else None
        ),
    }, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("wrap", ["typed", "raw"])
def test_outcome_line_splice_byte_identical(wrap):
    task = CrawlTask(vp="DE", domain="site-0.example", mode="detect")
    record = _visit_record(0)
    if wrap == "raw":
        record = RawRecord(encode_record_line(record))
    outcome = TaskOutcome(index=7, task=task, record=record, attempts=2)
    line = CrawlEngine._outcome_line(outcome)
    assert line == _oracle_outcome_line(outcome)


def test_outcome_line_without_record():
    task = CrawlTask(vp="DE", domain="down.example", mode="detect")
    outcome = TaskOutcome(
        index=1, task=task, record=None, error="boom", attempts=3
    )
    line = CrawlEngine._outcome_line(outcome)
    assert line == _oracle_outcome_line(outcome)
    assert json.loads(line)["record"] is None


# ---------------------------------------------------------------------------
# Transport legs stay decode-free
# ---------------------------------------------------------------------------

def test_merge_record_spools_does_not_decode(tmp_path):
    records = [_visit_record(i) for i in range(6)]
    journal = tmp_path / "out.jsonl.journal"
    runs = []
    with journal.open("wb") as handle:
        for indices in ([0, 2, 4], [1, 3, 5]):
            start = handle.tell()
            for index in indices:
                handle.write((
                    '{"kind": "outcome", "index": %d, "record": %s}\n'
                    % (index, encode_record_line(records[index]))
                ).encode("utf-8"))
            runs.append((start, handle.tell()))
    out = tmp_path / "merged.jsonl"
    before = record_decode_count()
    count = merge_record_spools(journal, runs, out)
    assert record_decode_count() == before
    assert count == len(records)
    oracle = tmp_path / "oracle.jsonl"
    save_records(records, oracle)
    assert out.read_bytes() == oracle.read_bytes()


@pytest.fixture(scope="module")
def zero_copy_plan(small_world):
    crawler = Crawler(small_world)
    return crawler, crawler.plan_detection_crawl(
        ["DE"], small_world.crawl_targets[:24]
    )


def test_process_worker_records_reach_spool_without_decode(
    tmp_path, zero_copy_plan
):
    """The acceptance criterion: worker → absorb → journal → k-way
    join, all on serialized bytes; the parent's decode counter must
    not move."""
    crawler, plan = zero_copy_plan
    out = tmp_path / "spooled.jsonl"
    engine = CrawlEngine(
        crawler, workers=2, shards=4, backend="distributed",
        spool_path=out,
    )
    before = record_decode_count()
    result = engine.execute(plan)
    assert record_decode_count() == before
    assert result.record_count == len(plan)
    # The spool holds real, readable records (decoding now is fine —
    # this is the consumer boundary).
    assert sum(1 for _ in iter_records(out)) == len(plan)


def test_memory_merge_decodes_only_at_the_consumer_boundary(zero_copy_plan):
    crawler, plan = zero_copy_plan
    # No output path: the run merges in memory.
    engine = CrawlEngine(crawler, workers=2, shards=4, backend="distributed")
    before = record_decode_count()
    result = engine.execute(plan)
    # Execution is pass-through...
    assert record_decode_count() == before
    records = result.records
    # ...and materialisation decodes each absorbed record exactly once,
    assert record_decode_count() == before + len(records)
    assert [r.domain for r in records] == [t.domain for t in plan.tasks]
    # cached thereafter.
    result.records
    assert record_decode_count() == before + len(records)


def test_resume_replay_stays_zero_copy(
    tmp_path, zero_copy_plan, crash_engine
):
    """Checkpoint replay re-emits serialized outcome lines: a resumed
    spool-merge run decodes nothing in the parent."""
    crawler, plan = zero_copy_plan
    out = tmp_path / "resumed.jsonl"
    checkpoint = tmp_path / "resumed.jsonl.checkpoint"
    crash_engine(
        "distributed", crawler, plan, (3,), shards=4,
        spool_path=out,
    )
    assert checkpoint.exists()
    before = record_decode_count()
    result = CrawlEngine(
        crawler, workers=1, shards=4, backend="distributed",
        spool_path=out, resume=True,
    ).execute(plan)
    assert record_decode_count() == before
    assert result.resumed > 0
    assert result.record_count == len(plan)
