# lint-as: src/repro/measure/fixture_surface_ok.py
# expect: clean
# used-elsewhere: Recorder record
"""Near misses: definitions a program reaches without naming them in
another module, and one kept by a justified pragma."""

#: Hooks the recorder dispatches by name: the string is the use.
HOOKS = ("on_visit",)


def normalise(url):
    """Used by this module outside its own body (``Recorder.record``)."""
    return url.lower()


def _private_helper():
    """Private: never flagged."""
    return None


class Recorder:
    def record(self, url):
        for hook in HOOKS:
            getattr(self, hook)(normalise(url))

    def on_visit(self, url):
        """Reached only through the ``HOOKS`` string literal."""
        return url


# reprolint: disable=test-only-definition -- oracle: the list path a differential test compares Recorder against
def reference_record(urls):
    return [normalise(url) for url in urls]
