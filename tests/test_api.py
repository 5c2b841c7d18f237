import tokenrnr


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from tokenrnr import *", namespace)
    assert len(set(tokenrnr.__all__)) == len(tokenrnr.__all__)
    for name in tokenrnr.__all__:
        assert namespace[name] is getattr(tokenrnr, name)
