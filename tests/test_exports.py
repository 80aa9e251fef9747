import qmcforge


def test_all_names_resolve_once():
    names = qmcforge.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(qmcforge, name)]
    assert not missing


def test_star_import():
    namespace = {}
    exec("from qmcforge import *", namespace)
    assert set(qmcforge.__all__) <= set(namespace)
