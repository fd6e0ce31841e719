"""The package's export list."""

import types

import qubitsim


def test_all_lists_every_public_name_once():
    exported = qubitsim.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(qubitsim, name) for name in exported)
    public = {
        name for name, value in vars(qubitsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public | {"__version__"}
