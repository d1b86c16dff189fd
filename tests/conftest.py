import pytest

from repro.backend.compiler import CompilerModel


@pytest.fixture
def fixed_compile_latency(monkeypatch):
    """Returns ``fix(seconds)``: every compile submitted afterwards, in
    this test, takes ``seconds`` of virtual time whatever its size."""
    def fix(seconds):
        monkeypatch.setattr(CompilerModel, "base_s", seconds)
        monkeypatch.setattr(CompilerModel, "per_lut", 0.0)
    return fix
