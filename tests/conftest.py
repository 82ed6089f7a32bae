import pytest

from coherence_bounds.checks import _SUITE_FNS, _Identity, run_checks


@pytest.fixture(scope="session")
def reference_run():
    """The seed-42 1000-case corpus through every check suite, evaluated once per session."""
    return run_checks(42, 1000)


@pytest.fixture()
def break_suite(monkeypatch):
    """break_suite(name) lowers every margin of that check suite by 1e-3, so it
    fails, and returns the shift; identity checks stay _Identity triples.
    """
    shift = 1e-3

    def apply(name):
        suite = _SUITE_FNS[name]

        def shifted(case, report):
            return [
                check._replace(margin=check.margin - shift)
                if isinstance(check, _Identity)
                else (check[0], check[1] - shift, check[2])
                for check in suite(case, report)
            ]

        monkeypatch.setitem(_SUITE_FNS, name, shifted)
        return shift

    return apply
