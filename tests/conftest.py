import time

from hypothesis import settings

# Property tests draw the same examples on every run and keep no example
# database, so a tier-1 result depends only on the code under test.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

_SESSION_START = time.perf_counter()


def session_elapsed() -> float:
    return time.perf_counter() - _SESSION_START


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"suite wall-clock: {session_elapsed():.1f} s (budget 60 s)")
