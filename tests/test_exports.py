"""The package's export surface: __all__ and the names groupkit binds."""

import types

import groupkit


def test_all_has_no_duplicates_and_every_entry_resolves():
    assert len(groupkit.__all__) == len(set(groupkit.__all__))
    for name in groupkit.__all__:
        assert hasattr(groupkit, name), name


def test_all_equals_the_public_names_bound_in_the_package():
    bound = {name for name, value in vars(groupkit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(groupkit.__all__) == bound
