"""Telemetry tests mutate process-global state (the telemetry session,
the process-wide registry, the logging session and its flight-recorder
ring); every test starts and ends with all of it clean."""

import pytest


@pytest.fixture(autouse=True)
def _clean_telemetry():
    from repro import telemetry
    from repro.telemetry import log

    def clean():
        log.shutdown()
        telemetry.shutdown()
        telemetry.get_registry().reset()

    clean()
    yield
    clean()
