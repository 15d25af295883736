"""The library's test suite.

A regular package, so that ``tests.conftest`` and ``tests.oracles`` resolve
here when ``perfbench/tests`` (a directory also named ``tests``, which puts
``perfbench/`` first on ``sys.path``) is collected in the same session.
"""
