import json
from pathlib import Path

import pytest

from cpnets import CPNet, CPTable, MCPNet, m_nowin, net_from_json, profile_from_json

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def dinner_raw():
    return json.loads((FIXTURES / "dinner.json").read_text())


@pytest.fixture(scope="session")
def dinner_net(dinner_raw):
    return net_from_json(dinner_raw)


@pytest.fixture(scope="session")
def dinner_path():
    return str(FIXTURES / "dinner.json")


def _net(features, tables):
    return CPNet(
        features=tuple(features),
        tables={
            name: CPTable(feature=name, parents=tuple(parents), rows=dict(rows))
            for name, (parents, rows) in tables.items()
        },
    )


@pytest.fixture(scope="session")
def dinner_profile():
    """Three diners over Main (meat=0, fish=1) and Wine (red=0, white=1).

    Agent 0 is the fixture net: meat always, wine to match the main.
    Agent 1 wants meat and the opposite pairing.
    Agent 2 picks the main to match the wine and always wants red.
    """
    names = ("Main", "Wine")
    a0 = _net(names, {
        "Main": ((), {(): 0}),
        "Wine": (("Main",), {(0,): 0, (1,): 1}),
    })
    a1 = _net(names, {
        "Main": ((), {(): 0}),
        "Wine": (("Main",), {(0,): 1, (1,): 0}),
    })
    a2 = _net(names, {
        "Main": (("Wine",), {(0,): 0, (1,): 1}),
        "Wine": ((), {(): 0}),
    })
    return MCPNet(agents=(a0, a1, a2))


@pytest.fixture(scope="session")
def nowin_profile():
    return m_nowin()


@pytest.fixture(scope="session")
def paradox_path():
    return str(FIXTURES / "paradox.json")


@pytest.fixture(scope="session")
def paradox_profile(paradox_path):
    """Three agents over X1, X2 that order the two features both ways.

    Agent 0 wants X1 = 0 and X2 = 1, free of each other. Agent 1 wants
    X1 = 1 and, whatever X1 is, X2 = 0. Agent 2 wants X2 = 1 and X1 to
    differ from X2.
    """
    return profile_from_json(json.loads(Path(paradox_path).read_text()))


@pytest.fixture(scope="session")
def components_path():
    """paradox.json with a third feature X3 that no agent conditions on:
    one component {X1, X2} and one {X3}. Agents 0 and 2 want X3 = 1."""
    return str(FIXTURES / "components.json")


@pytest.fixture(scope="session")
def pareto_paradox_path():
    return str(FIXTURES / "pareto_paradox.json")


@pytest.fixture(scope="session")
def pareto_paradox_profile(pareto_paradox_path):
    """Two agents over X, Y that order the two features both ways.

    Agent 0 wants X = 1 and Y to match X; agent 1 wants Y = 1 and X to
    match Y. At 00 each may raise only its own root, yet both prefer 11.
    """
    return profile_from_json(json.loads(Path(pareto_paradox_path).read_text()))
