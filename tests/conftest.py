import pytest

from coherence_bounds.checks import run_checks


@pytest.fixture(scope="session")
def reference_run():
    """The seed-42 1000-case corpus through every check suite, evaluated once per session."""
    return run_checks(42, 1000)
