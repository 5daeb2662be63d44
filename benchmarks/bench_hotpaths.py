"""Hot-path benchmarks: the indexed visit loop vs the linear baseline.

Four measurements, written cumulatively to
``benchmarks/output/BENCH_hotpaths.json`` so the perf trajectory is
tracked across PRs:

- ``filter_match``   — request decisions against a full-scale list
                       (naive linear scan vs trie/token-indexed engine);
- ``parse_cache``    — parsing a site body vs cloning its cached parse;
- ``selector``       — cosmetic-filter style queries, tree walk vs
                       compiled plans + document index;
- ``end_to_end``     — the §4.5 uBlock-arm measurement (visits/sec)
                       with every hot path off vs on;
- ``set_cookie``     — Set-Cookie headers recorded from a detection
                       crawl, parsed with a warm attribute-tail memo vs
                       with the memo bypassed.

The acceptance floors (≥5x filter matching, ≥2x end-to-end uBlock
visits/sec, ≥1.1x memoised Set-Cookie parsing, byte-identical
records) are asserted here, so the bench smoke doubles as a regression
gate.  Dedicated small worlds keep the numbers stable regardless of
``REPRO_BENCH_SCALE``.
"""

import json
import time

from conftest import BENCH_SEED, OUTPUT_DIR, write_artifact

from repro import perf
from repro.adblock import FilterEngine, NaiveFilterEngine, annoyances_list, easylist
from repro.adblock.lists import synthetic_full_list
from repro.api import Session
from repro.dom.selector import query_selector_all
from repro.errors import CookieError
from repro.httpkit import Request, cookies
from repro.measure.crawl import Crawler
from repro.netsim import VisitorContext
from repro.soup import parse_document
from repro.soup.cache import DocumentCache
from repro.vantage import VANTAGE_POINTS
from repro.webgen import build_world

_WORLD_SCALE = 0.05
_SET_COOKIE_SCALE = 0.03
_SET_COOKIE_PASSES = 5
#: Floor on the memo's speedup.  20 runs on a 2-CPU Xeon VM, 12 of them
#: beside a second copy, measured 1.26-1.74x (median 1.53x); the floor
#: sits below that low end, not at half the ratio, which would be < 1.
_SET_COOKIE_FLOOR = 1.1
_FULL_LIST_RULES = 20000
_UBLOCK_DOMAINS = 12
_UBLOCK_ITERATIONS = 5

_JSON_PATH = OUTPUT_DIR / "BENCH_hotpaths.json"


def _update_json(section: str, payload: dict) -> None:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    data = {}
    if _JSON_PATH.exists():
        data = json.loads(_JSON_PATH.read_text(encoding="utf-8"))
    data.setdefault("meta", {
        "world_scale": _WORLD_SCALE,
        "seed": BENCH_SEED,
        "full_list_rules": _FULL_LIST_RULES,
    })
    data[section] = payload
    _JSON_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _full_lists():
    return [easylist(), annoyances_list(),
            synthetic_full_list(_FULL_LIST_RULES, seed=BENCH_SEED)]


def _request_stream(n: int = 400):
    hosts = (
        "doubleclick.net", "cdn.opencmp.net", "site.de", "sub.trackmax.com",
        "news.example.co.uk", "assets.boerse.de", "cdn.usercentrics.eu",
    )
    types = ("script", "image", "xhr", "stylesheet")
    return [
        Request(
            url=f"https://{hosts[i % len(hosts)]}/path{i}/pixel?id={i}",
            initiator="https://site.de/",
            resource_type=types[i % len(types)],
        )
        for i in range(n)
    ]


def test_filter_match_speedup(benchmark):
    """Decision throughput at full-list size: naive vs indexed."""
    lists = _full_lists()
    requests = _request_stream()

    def build_and_run(engine_cls):
        engine = engine_cls()
        engine.add_lists(lists)
        engine.should_block(requests[0])  # compile / warm
        started = time.perf_counter()
        decisions = [engine.should_block(r) for r in requests]
        return time.perf_counter() - started, decisions

    naive_elapsed, naive_decisions = build_and_run(NaiveFilterEngine)

    def indexed_run():
        return build_and_run(FilterEngine)

    indexed_elapsed, indexed_decisions = benchmark.pedantic(
        indexed_run, rounds=1, iterations=1, warmup_rounds=0
    )
    assert indexed_decisions == naive_decisions
    speedup = naive_elapsed / indexed_elapsed
    _update_json("filter_match", {
        "requests": len(requests),
        "filters": sum(len(t.splitlines()) for t in lists),
        "naive_rps": round(len(requests) / naive_elapsed),
        "indexed_rps": round(len(requests) / indexed_elapsed),
        "speedup": round(speedup, 2),
    })
    # The ISSUE's acceptance floor.
    assert speedup >= 5.0


def test_parse_vs_clone(benchmark, bench_world):
    """Re-tokenizing a site body vs cloning its cached parse."""
    domain = bench_world.crawl_targets[0]
    request = Request(url=f"https://{domain}/", resource_type="document")
    visitor = VisitorContext(vp=VANTAGE_POINTS["DE"], visit_id=1)
    body = bench_world.network.fetch(request, visitor).body
    rounds = 200

    started = time.perf_counter()
    for _ in range(rounds):
        parse_document(body, url=f"https://{domain}/")
    parse_elapsed = time.perf_counter() - started

    cache = DocumentCache()
    cache.parse(body, f"https://{domain}/")  # prime

    def clone_run():
        started = time.perf_counter()
        for _ in range(rounds):
            cache.parse(body, f"https://{domain}/")
        return time.perf_counter() - started

    clone_elapsed = benchmark.pedantic(
        clone_run, rounds=1, iterations=1, warmup_rounds=0
    )
    _update_json("parse_cache", {
        "body_bytes": len(body),
        "rounds": rounds,
        "parse_ms_per_doc": round(parse_elapsed / rounds * 1000, 4),
        "clone_ms_per_doc": round(clone_elapsed / rounds * 1000, 4),
        "speedup": round(parse_elapsed / clone_elapsed, 2),
    })
    assert cache.hits == rounds


def test_selector_query_speedup(benchmark, bench_world):
    """Cosmetic-filter style selector queries: walk vs document index."""
    domain = bench_world.crawl_targets[0]
    request = Request(url=f"https://{domain}/", resource_type="document")
    visitor = VisitorContext(vp=VANTAGE_POINTS["DE"], visit_id=1)
    document = parse_document(
        bench_world.network.fetch(request, visitor).body,
        url=f"https://{domain}/",
    )
    selectors = [
        ".ad-banner-top", "div[data-ad-slot]", ".cmp-overlay-backdrop",
        'div[id^="sp_message_container"]', ".cookie-notice-slide-in",
        "footer a", "main > article p", "#nonexistent",
    ]
    rounds = 300

    with perf.disabled("selector_index"):
        walk_results = [query_selector_all(document, s) for s in selectors]
        started = time.perf_counter()
        for _ in range(rounds):
            for selector in selectors:
                query_selector_all(document, selector)
        walk_elapsed = time.perf_counter() - started

    assert [query_selector_all(document, s) for s in selectors] == walk_results

    def indexed_run():
        started = time.perf_counter()
        for _ in range(rounds):
            for selector in selectors:
                query_selector_all(document, selector)
        return time.perf_counter() - started

    indexed_elapsed = benchmark.pedantic(
        indexed_run, rounds=1, iterations=1, warmup_rounds=0
    )
    queries = rounds * len(selectors)
    _update_json("selector", {
        "queries": queries,
        "walk_qps": round(queries / walk_elapsed),
        "indexed_qps": round(queries / indexed_elapsed),
        "speedup": round(walk_elapsed / indexed_elapsed, 2),
    })


def test_end_to_end_ublock_arm(benchmark):
    """The §4.5 uBlock-arm measurement at full-list size, off vs on.

    Real uBlock runs EasyList + Annoyances at tens of thousands of
    rules; the embedded lists only cover the synthetic third parties,
    so the arm is benchmarked with a deterministic full-scale list
    loaded on top — the regime the ISSUE's 2x floor refers to.
    """
    world = build_world(scale=_WORLD_SCALE, seed=BENCH_SEED)
    crawler = Crawler(
        world,
        ublock_lists=[synthetic_full_list(_FULL_LIST_RULES, seed=BENCH_SEED)],
    )
    walls = sorted(world.wall_domains)[:_UBLOCK_DOMAINS]
    visits = len(walls) * _UBLOCK_ITERATIONS

    def ublock_arm():
        return [
            crawler.measure_ublock("DE", d, iterations=_UBLOCK_ITERATIONS)
            for d in walls
        ]

    # Warm the shared list-parse cache so neither leg times list parsing.
    ublock_arm()

    with perf.disabled():
        started = time.perf_counter()
        naive_records = ublock_arm()
        naive_elapsed = time.perf_counter() - started

    indexed_records = benchmark.pedantic(
        ublock_arm, rounds=1, iterations=1, warmup_rounds=0
    )
    indexed_elapsed = benchmark.stats.stats.total

    assert [r.to_dict() for r in indexed_records] == [
        r.to_dict() for r in naive_records
    ]
    speedup = naive_elapsed / indexed_elapsed
    naive_rate = visits / naive_elapsed
    indexed_rate = visits / indexed_elapsed
    _update_json("end_to_end", {
        "wall_domains": len(walls),
        "iterations": _UBLOCK_ITERATIONS,
        "visits": visits,
        "naive_visits_per_sec": round(naive_rate, 1),
        "indexed_visits_per_sec": round(indexed_rate, 1),
        "speedup": round(speedup, 2),
    })
    write_artifact(
        "hotpaths_summary",
        f"uBlock arm at full-list size ({_FULL_LIST_RULES} extra rules)\n"
        f"hot paths off: {naive_rate:.1f} visits/sec\n"
        f"hot paths on:  {indexed_rate:.1f} visits/sec\n"
        f"speedup:       {speedup:.2f}x (records byte-identical)",
    )
    # The ISSUE's acceptance floor.
    assert speedup >= 2.0


def _recorded_set_cookie_stream():
    """Every (header, request URL) a DE detection crawl parses."""
    world = build_world(scale=_SET_COOKIE_SCALE, seed=BENCH_SEED)
    crawler = Crawler(world)
    stream = []
    original = cookies.parse_set_cookie

    def recording(header, request_url):
        stream.append((header, request_url))
        return original(header, request_url)

    cookies.parse_set_cookie = recording
    try:
        Session(world, crawler=crawler).execute(
            crawler.plan_detection_crawl(["DE"])
        )
    finally:
        cookies.parse_set_cookie = original
    return stream


def _parse_stream(stream):
    outcomes = []
    for header, url in stream:
        try:
            outcomes.append(cookies.parse_set_cookie(header, url))
        except CookieError as error:
            outcomes.append(str(error))
    return outcomes


def _timed_pass(stream):
    started = time.perf_counter()
    outcomes = _parse_stream(stream)
    return time.perf_counter() - started, outcomes


def _interleaved_passes(stream):
    """Fastest pass with the memo bypassed and with it warm.

    The two kinds of pass alternate, so a slow spell on the host lands
    on both sides instead of skewing the ratio.
    """
    memoised = cookies._parse_attributes
    _parse_stream(stream)  # warm the memo
    plain_best = memo_best = float("inf")
    for _ in range(_SET_COOKIE_PASSES):
        cookies._parse_attributes = memoised.__wrapped__
        try:
            elapsed, plain_outcomes = _timed_pass(stream)
        finally:
            cookies._parse_attributes = memoised
        plain_best = min(plain_best, elapsed)
        elapsed, memo_outcomes = _timed_pass(stream)
        memo_best = min(memo_best, elapsed)
    return plain_best, plain_outcomes, memo_best, memo_outcomes


def test_set_cookie_memo_speedup(benchmark):
    """Set-Cookie parsing: warm attribute-tail memo vs no memo."""
    stream = _recorded_set_cookie_stream()
    plain_elapsed, plain_outcomes, memo_elapsed, memo_outcomes = (
        benchmark.pedantic(
            _interleaved_passes, args=(stream,),
            rounds=1, iterations=1, warmup_rounds=0,
        )
    )
    assert memo_outcomes == plain_outcomes
    speedup = plain_elapsed / memo_elapsed
    _update_json("set_cookie", {
        "world_scale": _SET_COOKIE_SCALE,
        "headers": len(stream),
        "distinct_tails": len({h.partition(";")[2] for h, _ in stream}),
        "passes": _SET_COOKIE_PASSES,
        "plain_headers_per_sec": round(len(stream) / plain_elapsed),
        "memo_headers_per_sec": round(len(stream) / memo_elapsed),
        "speedup": round(speedup, 2),
    })
    assert speedup >= _SET_COOKIE_FLOOR
