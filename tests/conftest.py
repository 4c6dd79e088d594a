import asyncio
import faulthandler
import inspect
import os

import pytest

# The slowest test takes about 3.5 s on Python 3.11; a test still running
# after this long is hung. Dump every thread's stack and exit.
HANG_SECONDS = 120
HANG_REPORT_FD = pytest.StashKey[int]()

# Filled in by the acceptance tests; printed once at the end of the run
# so every criterion gets its own visible verdict line.
ACCEPTANCE_LINES = []


def pytest_configure(config):
    # pytest does not capture stderr while it configures; a copy taken now
    # still reaches the terminal while a test's own output is captured.
    config.stash[HANG_REPORT_FD] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[HANG_REPORT_FD])


@pytest.fixture(autouse=True)
def hang_guard(request):
    faulthandler.dump_traceback_later(
        HANG_SECONDS, exit=True, file=request.config.stash[HANG_REPORT_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


def pytest_pyfunc_call(pyfuncitem):
    """Run ``async def`` tests on a fresh event loop, no plugin needed."""
    test_fn = pyfuncitem.obj
    if inspect.iscoroutinefunction(test_fn):
        kwargs = {
            name: pyfuncitem.funcargs[name]
            for name in pyfuncitem._fixtureinfo.argnames
        }
        asyncio.run(test_fn(**kwargs))
        return True
    return None


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
