import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def default_caps(monkeypatch):
    """Every test starts from the default size caps, whatever the shell
    exports; a test that needs a cap sets it with monkeypatch.setenv."""
    monkeypatch.delenv("SLASHPOW_MAX_EDGES", raising=False)
    monkeypatch.delenv("SLASHPOW_MAX_PATHS", raising=False)
