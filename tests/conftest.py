import os

import pytest
from hypothesis import settings

import multistage
from multistage import Node, PolicyClass, ScenarioTree
from multistage.generate import recourse_fixture

# Tests that run `python -m multistage` in a child process import the same
# package as the suite, also from a checkout that was never installed.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(multistage.__file__)),
                  os.environ.get("PYTHONPATH")])
)

# The same examples on every run: no random seed, no example database.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def empty_memo(monkeypatch):
    """A function that empties the memo of objects built from input files
    (``exceptions._KEPT``) and returns it. The test starts with the memo
    emptied, and the memo in use before it is back after it."""
    from multistage import exceptions

    def empty():
        monkeypatch.setattr(exceptions, "_KEPT", exceptions._Kept(exceptions._KEPT.budget))
        return exceptions._KEPT

    empty()
    return empty


@pytest.fixture
def chain3():
    """Deterministic T=2 chain with observations 0, 1, 2."""
    from instances import chain_tree

    return chain_tree([0.0, 1.0, 2.0])


@pytest.fixture
def binary2():
    """Balanced binary tree with T=2, equal probabilities, distinct values."""
    nodes = [
        Node(id=0, stage=0, parent=None, cond_prob=1.0, obs=(0.0,)),
        Node(id=1, stage=1, parent=0, cond_prob=0.5, obs=(1.0,)),
        Node(id=2, stage=1, parent=0, cond_prob=0.5, obs=(-1.0,)),
        Node(id=3, stage=2, parent=1, cond_prob=0.3, obs=(2.0,)),
        Node(id=4, stage=2, parent=1, cond_prob=0.7, obs=(0.5,)),
        Node(id=5, stage=2, parent=2, cond_prob=0.6, obs=(-2.0,)),
        Node(id=6, stage=2, parent=2, cond_prob=0.4, obs=(1.5,)),
    ]
    return ScenarioTree(nodes, horizon=2, obs_dim=1)


@pytest.fixture
def binary2_class(binary2):
    grid = ((0.0,), (1.0,))
    return PolicyClass(
        feasible={n.id: grid for n in binary2.nodes}, kind="nodewise", decision_dim=1
    )


@pytest.fixture
def recourse():
    return recourse_fixture()
