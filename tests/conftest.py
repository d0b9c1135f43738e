"""Every test starts without ``TEPPERLAB_BUDGET``, so a value in the caller's environment changes no result."""
import pytest

from tepperlab import cli


@pytest.fixture(autouse=True)
def _no_ambient_budget(monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV_VAR, raising=False)
