"""Tests for tools/reprolint: the fixture corpus, the suppression and
baseline machinery, the CLI surface, and the repo self-lint gate.

The fixture corpus under ``tests/fixtures/reprolint/`` is the
executable specification: every rule has at least one ``bad_*`` file it
must flag (including the seeded regressions the issue names — a
``hash()``-derived seed, a ``load_records`` import in ``analysis/``, an
unlocked shared mutation, a ``pickle`` import) and one
``good_*`` near-miss it must not.
"""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from tools.reprolint.core import (
    Baseline,
    BaselineError,
    SourceFile,
    lint_sources,
    load_sources,
)
from tools.reprolint.cli import DEFAULT_PATHS, main
from tools.reprolint.rules import all_rules, rules_by_name
from tools.reprolint.rules.surface import (
    KEEP_REASONS,
    TestOnlyDefinitionRule,
    program_users,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "reprolint"
REPO = Path(__file__).resolve().parent.parent

#: Meta findings the framework itself can add on top of rule findings.
META_RULES = {"bad-pragma", "unused-suppression"}


def defined_names(tree: ast.AST) -> set:
    """Every function and class name *tree* defines."""
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def snippet_rules(src: SourceFile):
    """Every rule, with *src*'s own definitions treated as used by the
    program tree: a snippet written for another rule must not depend on
    which names the real tree happens to use."""
    return all_rules(used_names=defined_names(src.tree))


def load_fixture(path: Path):
    """Parse a fixture's ``lint-as`` / ``expect`` / ``used-elsewhere``
    header."""
    text = path.read_text(encoding="utf-8")
    lint_as = re.search(r"^# lint-as:\s*(\S+)", text, re.MULTILINE)
    expect = re.search(r"^# expect:\s*(.+)$", text, re.MULTILINE)
    assert lint_as and expect, f"{path.name}: missing lint-as/expect header"
    expected = set(expect.group(1).split())
    if expected == {"clean"}:
        expected = set()
    return SourceFile(text, rel=lint_as.group(1)), expected


def fixture_rules(src: SourceFile):
    """The rules for a fixture: a ``# used-elsewhere: NAME...`` header
    lists the names the program tree uses; without one, every name the
    fixture defines counts as used (see :func:`snippet_rules`)."""
    used = re.search(r"^# used-elsewhere:(.*)$", src.text, re.MULTILINE)
    if used is None:
        return snippet_rules(src)
    return all_rules(used_names=used.group(1).split())


def lint_fixture(path: Path):
    src, expected = load_fixture(path)
    return src, expected, lint_sources([src], fixture_rules(src))


def fixture_files():
    files = sorted(FIXTURES.glob("*.py"))
    assert files, "fixture corpus is empty"
    return files


@pytest.mark.parametrize(
    "path", fixture_files(), ids=lambda path: path.stem
)
def test_fixture_corpus(path):
    """Each fixture produces exactly its declared rule set."""
    src, expected, findings = lint_fixture(path)
    found = {finding.rule for finding in findings}
    assert found == expected, (
        f"{path.name}: expected rules {sorted(expected)}, got "
        f"{[finding.render() for finding in findings]}"
    )
    if path.name.startswith("bad_"):
        assert findings, f"{path.name}: bad fixture produced no findings"


def test_every_rule_has_bad_and_good_fixtures():
    """The corpus covers the whole registry, both directions."""
    flagged_by_bad = set()
    exercised_by_good = set()
    for path in fixture_files():
        _, expected = load_fixture(path)
        if path.name.startswith("bad_"):
            flagged_by_bad |= expected
        else:
            exercised_by_good.add(path.name)
    rule_names = set(rules_by_name()) | META_RULES
    missing = rule_names - flagged_by_bad - {"unused-suppression"}
    # unused-suppression is covered by its own bad fixture; assert all.
    assert "unused-suppression" in flagged_by_bad
    assert not missing, f"rules with no bad fixture: {sorted(missing)}"
    assert exercised_by_good, "no good (near-miss) fixtures in the corpus"


# ---------------------------------------------------------------------------
# Seeded regressions the issue pins explicitly
# ---------------------------------------------------------------------------

def _lint_snippet(text: str, rel: str, rules=None):
    src = SourceFile(text, rel=rel)
    return lint_sources([src], rules or snippet_rules(src))


def test_reintroduced_salted_hash_seed_fails():
    findings = _lint_snippet(
        "def seed_for(domain):\n    return hash(domain) & 0xFFFF\n",
        rel="src/repro/webgen/banners.py",
    )
    assert [f.rule for f in findings] == ["salted-hash"]


def test_load_records_import_in_analysis_fails():
    findings = _lint_snippet(
        "from repro.measure.storage import load_records\n",
        rel="src/repro/analysis/report.py",
    )
    assert any(f.rule == "materialized-records" for f in findings)


def test_pickle_import_fails_only_under_src():
    text = "import pickle\n"
    findings = _lint_snippet(text, rel="src/repro/distributed/worker.py")
    assert [f.rule for f in findings] == ["no-pickle"]
    assert _lint_snippet(text, rel="tests/test_wire.py") == []


def test_unlocked_shared_mutation_fails():
    text = (
        "import threading\n"
        "class Stats:\n"
        "    def __init__(self):\n"
        "        self.counts = {}\n"
        "        self._lock = threading.Lock()\n"
        "    def safe(self, key):\n"
        "        with self._lock:\n"
        "            self.counts[key] = self.counts.get(key, 0) + 1\n"
        "    def racy(self, key):\n"
        "        self.counts[key] = 0\n"
    )
    findings = _lint_snippet(text, rel="src/repro/measure/fake_stats.py")
    assert [f.rule for f in findings] == ["unlocked-mutation"]
    assert findings[0].line == 10


# ---------------------------------------------------------------------------
# test-only-definition
# ---------------------------------------------------------------------------

def _surface_findings(text, rel="src/repro/analysis/fake.py", used=None):
    src = SourceFile(text, rel=rel)
    return lint_sources([src], [TestOnlyDefinitionRule(used_names=used)])


def test_test_only_definition_flags_each_unreached_name():
    _, _, findings = lint_fixture(FIXTURES / "bad_test_only_definition.py")
    flagged = {re.search(r"`(\w+)`", f.message).group(1) for f in findings}
    assert flagged == {"shares_table", "countdown", "as_markdown", "row_count"}


def test_test_only_definition_scope():
    text = "def helper():\n    return 1\n"
    assert [f.rule for f in _surface_findings(text, used=())] == [
        "test-only-definition"
    ]
    assert _surface_findings(text, used={"helper"}) == []
    for rel in (
        "src/repro/analysis/__init__.py",
        "tests/test_fake.py",
        "benchmarks/bench_fake.py",
        "tools/fake.py",
    ):
        assert _surface_findings(text, rel=rel, used=()) == []


def test_test_only_definition_reads_the_program_tree():
    """Without injected names the rule reads the real tree: perfbench
    names ``compare_with_paper``, nothing names the other function."""
    findings = _surface_findings(
        "def compare_with_paper():\n    pass\n\n"
        "def zz_named_by_nothing():\n    pass\n"
    )
    assert [f.line for f in findings] == [4]


def test_program_users_counts_programs_not_tests_or_reexports(tmp_path):
    files = {
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.mod import helper\n__all__ = ['helper']\n"
        ),
        "src/repro/pkg/mod.py": "def helper():\n    return hook\n",
        "examples/demo.py": "PATCH = 'repro.pkg.mod:patched'\n",
        "perfbench/layers.py": "import repro.pkg.mod as mod\nmod.traced()\n",
        "README.md": "Call `documented()` to start.\n",
        "tests/test_pkg.py": "only_tested()\n",
        "benchmarks/bench_pkg.py": "only_benched()\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    users = program_users(tmp_path)
    assert "helper" not in users  # defined and re-exported, never used
    assert users["hook"] == {"src/repro/pkg/mod.py"}
    assert users["patched"] == {"examples/demo.py"}
    assert users["traced"] == {"perfbench/layers.py"}
    assert users["documented"] == {"README.md"}
    assert "only_tested" not in users and "only_benched" not in users


def test_test_only_definition_pragmas_give_a_keep_reason():
    """Every kept test-only definition says which of the four reasons
    keeps it, and none is grandfathered in the baseline."""
    reasons = []
    for src in load_sources([Path("src/repro")], root=REPO):
        for pragma in src.pragmas.values():
            if "test-only-definition" in pragma.rules:
                reasons.append(pragma.justification or "")
    assert reasons
    assert all(reason.startswith(KEEP_REASONS) for reason in reasons), reasons
    baseline = json.loads(
        (REPO / "tools" / "reprolint" / "baseline.json").read_text(encoding="utf-8")
    )
    assert not [
        entry for entry in baseline["entries"]
        if entry["rule"] == "test-only-definition"
    ]


# ---------------------------------------------------------------------------
# Suppression pragmas
# ---------------------------------------------------------------------------

def test_justified_pragma_suppresses():
    findings = _lint_snippet(
        "def f(d):\n"
        "    return hash(d)  # reprolint: disable=salted-hash -- test: local only\n",
        rel="src/repro/webgen/x.py",
    )
    assert findings == []


def test_pragma_without_justification_keeps_finding_and_flags_pragma():
    findings = _lint_snippet(
        "def f(d):\n"
        "    return hash(d)  # reprolint: disable=salted-hash\n",
        rel="src/repro/webgen/x.py",
    )
    assert {f.rule for f in findings} == {"salted-hash", "bad-pragma"}


def test_pragma_in_docstring_is_not_a_suppression():
    findings = _lint_snippet(
        '"""Docs show: # reprolint: disable=salted-hash -- why."""\n'
        "def f(d):\n"
        "    return hash(d)\n",
        rel="src/repro/webgen/x.py",
    )
    assert [f.rule for f in findings] == ["salted-hash"]


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------

def _hash_finding():
    findings = _lint_snippet(
        "def f(d):\n    return hash(d)\n", rel="src/repro/webgen/x.py"
    )
    assert len(findings) == 1
    return findings[0]


def test_baseline_absorbs_matching_finding():
    finding = _hash_finding()
    baseline = Baseline(
        [
            {
                "rule": finding.rule,
                "path": finding.path,
                "snippet": finding.snippet,
                "reason": "grandfathered in the test",
            }
        ]
    )
    src = SourceFile(
        "def f(d):\n    return hash(d)\n", rel="src/repro/webgen/x.py"
    )
    assert lint_sources([src], snippet_rules(src), baseline=baseline) == []
    assert baseline.stale_entries() == []


def test_baseline_count_budget_is_per_occurrence():
    text = "def f(d):\n    return hash(d)\ndef g(d):\n    return hash(d)\n"
    finding = _hash_finding()
    baseline = Baseline(
        [
            {
                "rule": finding.rule,
                "path": finding.path,
                "snippet": finding.snippet,
                "count": 1,
                "reason": "only one occurrence grandfathered",
            }
        ]
    )
    src = SourceFile(text, rel="src/repro/webgen/x.py")
    survivors = lint_sources([src], snippet_rules(src), baseline=baseline)
    assert len(survivors) == 1  # second occurrence is NOT absorbed


def test_baseline_requires_justification():
    with pytest.raises(BaselineError):
        Baseline([{"rule": "salted-hash", "path": "x.py", "snippet": "hash(d)"}])
    with pytest.raises(BaselineError):
        Baseline(
            [
                {
                    "rule": "salted-hash",
                    "path": "x.py",
                    "snippet": "hash(d)",
                    "reason": "   ",
                }
            ]
        )


def test_baseline_reports_stale_entries():
    baseline = Baseline(
        [
            {
                "rule": "salted-hash",
                "path": "src/repro/webgen/gone.py",
                "snippet": "return hash(d)",
                "reason": "the offending file was deleted",
            }
        ]
    )
    src = SourceFile("x = 1\n", rel="src/repro/webgen/other.py")
    lint_sources([src], all_rules(), baseline=baseline)
    assert len(baseline.stale_entries()) == 1


def test_baseline_serialize_round_trips():
    finding = _hash_finding()
    payload = Baseline.serialize([finding, finding])
    assert payload["entries"][0]["count"] == 2
    # The generated payload is loadable once reasons are real.
    payload["entries"][0]["reason"] = "justified"
    Baseline(payload["entries"])


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_list_rules_and_explain(capsys):
    assert main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    for name in rules_by_name():
        assert name in listed
    assert main(["--explain", "no-pickle"]) == 0
    assert "trust boundary" in capsys.readouterr().out
    assert main(["--explain", "no-such-rule"]) == 2


def test_cli_unknown_select_is_usage_error(capsys):
    assert main(["--select", "bogus-rule", "src/repro/analysis"]) == 2


def test_cli_github_format_on_failing_file(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "webgen" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("def f(d):\n    return hash(d)\n", encoding="utf-8")
    # Point the linter at the file via an absolute path: rel scoping
    # falls back to the absolute posix path, so fake the layout under
    # a real repo-root-relative prefix instead by linting in-process.
    src = SourceFile(bad.read_text(), rel="src/repro/webgen/bad.py")
    findings = lint_sources([src], snippet_rules(src))
    assert findings and findings[0].render_github().startswith(
        "::error file=src/repro/webgen/bad.py,line=2,"
    )


def test_cli_write_baseline_then_clean(tmp_path, monkeypatch, capsys):
    baseline_path = tmp_path / "baseline.json"
    # Generate a baseline for a deliberately dirty tree subset.
    dirty = tmp_path / "dirty.py"
    dirty.write_text("def f(d):\n    return hash(d)\n", encoding="utf-8")
    # The CLI loads real files relative to the repo root; use the smp
    # module (clean) to prove --write-baseline produces a loadable file
    # even when empty.
    assert (
        main(
            [
                "--write-baseline",
                "--baseline",
                str(baseline_path),
                "src/repro/smp",
            ]
        )
        == 0
    )
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert payload["entries"] == []
    assert (
        main(["--baseline", str(baseline_path), "src/repro/smp"]) == 0
    )


# ---------------------------------------------------------------------------
# The acceptance gate: the shipped tree is clean
# ---------------------------------------------------------------------------

def test_repo_self_lint_is_clean():
    """`python -m tools.reprolint` exits 0 on the repo (in-process)."""
    sources = load_sources([Path(p) for p in DEFAULT_PATHS], root=REPO)
    baseline = Baseline.load(REPO / "tools" / "reprolint" / "baseline.json")
    findings = lint_sources(sources, all_rules(), baseline=baseline)
    assert findings == [], "\n".join(f.render() for f in findings)
    assert baseline.stale_entries() == []


def test_module_entry_point_runs():
    """The CI invocation (`python -m tools.reprolint --format=github`)."""
    proc = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", "--format=github"],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reprolint: OK" in proc.stdout
