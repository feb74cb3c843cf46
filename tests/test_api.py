from __future__ import annotations

import qsdde


def test_every_public_name_resolves():
    assert len(qsdde.__all__) == len(set(qsdde.__all__))
    missing = [name for name in qsdde.__all__ if not hasattr(qsdde, name)]
    assert missing == []
