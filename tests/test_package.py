import lamplighter


def test_every_export_resolves():
    missing = [name for name in lamplighter.__all__ if not hasattr(lamplighter, name)]
    assert missing == []
