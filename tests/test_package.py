"""The package's public surface."""

import painleve_ds


def test_every_export_resolves():
    missing = [name for name in painleve_ds.__all__ if not hasattr(painleve_ds, name)]
    assert missing == []
