import os

import pytest

import dklattice


@pytest.fixture
def package_env():
    """Environment in which `python -m dklattice` imports the package under
    test, whether it is installed or only on the test process's sys.path."""
    package_root = os.path.dirname(os.path.dirname(dklattice.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
