"""Benchmarks + artefacts: §3 accuracy, §4.5 uBlock, §4.1 landscape, §4.4 SMPs."""

from conftest import run_once, write_artifact

from repro.analysis.report import compute_landscape
from repro.measure.accuracy import evaluate_records, random_audit


def test_accuracy(benchmark, bench_world, bench_context, warm_crawl):
    """Full-run precision plus the 1000-domain random audit."""

    def produce():
        full = evaluate_records(bench_world, warm_crawl.by_vp("DE"))
        audit = random_audit(
            bench_world, bench_context.crawler,
            sample_size=min(1000, len(bench_world.crawl_targets)),
        )
        return full, audit

    full, audit = run_once(benchmark, produce)
    text = (
        f"full run: {full.detected} detected, {full.true_positives} true, "
        f"precision {full.precision * 100:.1f}%, recall {full.recall * 100:.1f}%\n"
        f"random audit: {audit.detected} detected, "
        f"precision {audit.precision * 100:.1f}%, recall {audit.recall * 100:.1f}%"
    )
    write_artifact("accuracy", text)
    print()
    print(text)
    assert full.recall == 1.0
    assert full.precision >= 0.9          # paper: 98.2%
    assert audit.recall == 1.0            # paper: all 6 sample walls found


def test_ublock_bypass(benchmark, bench_world, bench_context, warm_crawl):
    """uBlock with Annoyances: ~70% of walls suppressed, 2 broken."""

    def produce():
        return list(bench_context.iter_ublock_records())

    records = run_once(benchmark, produce)
    suppressed = [r for r in records if r.suppressed]
    broken = [r for r in suppressed if r.broken]
    share = len(suppressed) / len(records)
    text = (
        f"walls tested: {len(records)}\n"
        f"suppressed:   {len(suppressed)} ({share * 100:.0f}%)\n"
        f"broken:       {len(broken)} "
        f"({'; '.join(f'{r.domain}: {r.broken_reason}' for r in broken)})"
    )
    write_artifact("ublock", text)
    print()
    print(text)
    assert 0.55 < share < 0.85            # paper: 70%


def test_landscape(benchmark, bench_world, warm_crawl):
    def produce():
        return compute_landscape(bench_world, warm_crawl)

    report = run_once(benchmark, produce)
    write_artifact("landscape", report.render())
    print()
    print(report.render())
    assert report.germany_top1k_rate > report.germany_top10k_rate
    assert report.germany_top10k_rate > report.overall_rate
    assert 0.001 < report.overall_rate < 0.02


def test_smp_rosters(benchmark, bench_world, bench_context, warm_crawl):
    def produce():
        detected = set(bench_context.verified_wall_domains())
        out = {}
        for name, platform in bench_world.platforms.items():
            on_list = [
                d for d in platform.partner_domains
                if bench_world.sites[d].listings
            ]
            out[name] = (
                len(platform.partner_domains),
                len(on_list),
                len(detected & set(on_list)),
            )
        return out

    rosters = run_once(benchmark, produce)
    lines = []
    for name, (partners, on_list, detected) in sorted(rosters.items()):
        lines.append(
            f"{name}: {partners} partners, {on_list} on the toplists, "
            f"{detected} detected as walls"
        )
    text = "\n".join(lines)
    write_artifact("smp", text)
    print()
    print(text)
    cp_partners, cp_on_list, cp_detected = rosters["contentpass"]
    assert cp_on_list < cp_partners       # paper: 76 of 219 on the lists
    assert cp_detected == cp_on_list      # every listed partner detected
