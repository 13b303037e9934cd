import pytest

from chat_server import chat_reply, serving


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Re-emit the one-line-per-criterion acceptance results after the run,
    # where output capture cannot swallow them.
    try:
        from test_acceptance import ACCEPTANCE_RESULTS
    except ImportError:
        return
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, status, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"ACCEPTANCE {number}: {status}"
        if detail:
            line += f" — {detail}"
        terminalreporter.write_line(line)


@pytest.fixture(scope="module")
def _loopback_server():
    with serving() as server:
        yield server


@pytest.fixture
def loopback(_loopback_server, monkeypatch):
    """The module's loopback chat server with an empty request record;
    requests to it bypass any proxy named in the environment."""
    monkeypatch.setenv("no_proxy", "*")
    _loopback_server.script([chat_reply("")])
    return _loopback_server
