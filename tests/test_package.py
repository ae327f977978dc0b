import fif


def test_every_export_resolves_on_import():
    assert [name for name in fif.__all__ if not hasattr(fif, name)] == []
    assert len(set(fif.__all__)) == len(fif.__all__)
