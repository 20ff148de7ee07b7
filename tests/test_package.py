"""The package surface: every exported name resolves."""

import nilalg3


def test_every_export_imports():
    assert len(set(nilalg3.__all__)) == len(nilalg3.__all__)
    for name in nilalg3.__all__:
        exec(f"from nilalg3 import {name}", {})
