"""The package's public name list matches what it defines."""

import oddcolor


def test_all_names_exist_once():
    names = oddcolor.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(oddcolor, name)] == []
