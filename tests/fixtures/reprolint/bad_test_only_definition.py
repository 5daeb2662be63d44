# lint-as: src/repro/analysis/fixture_surface.py
# expect: test-only-definition
# used-elsewhere: Report render
"""Public definitions no program names: only a test would call them."""


def shares_table(rows):
    """Flagged: nothing outside tests names it."""
    return {name: share for name, share in rows}


def countdown(n):
    """Flagged: its only use is inside its own body."""
    return [] if n == 0 else [n] + countdown(n - 1)


class Report:
    """Used by the program (injected), as is ``render``."""

    def render(self):
        return "report"

    def as_markdown(self):
        """Flagged: a public method only tests call."""
        return "| report |"

    @property
    def row_count(self):
        """Flagged: a property is a method too."""
        return 0
