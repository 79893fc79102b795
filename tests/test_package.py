import kgtable


def test_every_exported_name_resolves():
    assert [name for name in kgtable.__all__ if not hasattr(kgtable, name)] == []
