import pytest

from repro.observability import record_trace


@pytest.fixture(scope="package")
def quickstart_session():
    """One recorded quickstart run shared by the schema/summary tests."""
    with record_trace("quickstart", runs=4) as session:
        yield session


@pytest.fixture(scope="package")
def quickstart_trace(quickstart_session):
    return quickstart_session.sim.trace
