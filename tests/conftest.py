import pytest

from conslaw import numerics


@pytest.fixture(params=["compiled", "numpy"])
def face_path(request, monkeypatch):
    """Run a test once with the compiled Euler face sweep and once with the
    numpy sweep; the value names the path."""
    if request.param == "numpy":
        monkeypatch.setattr(numerics, "face_kernel", lambda: None)
    elif numerics.face_kernel() is None:
        pytest.skip("no C compiler: the compiled face sweep is unavailable")
    return request.param
