"""The one ``key=value`` spec grammar shared by every CLI spec string.

Seven entry points parse through :mod:`repro.utils.spec`: ``ChaosPlan``,
``FaultPlan`` (with its ``attack_*`` delegation), ``AttackPlan``,
``ChurnPlan``, ``HeterogeneousCostModel``/``make_cost_model``,
``PopulationSpec`` and ``resolve_defense``.  Each row below runs the same
contract against one of them: a repeated key is an error naming the key, a
value that does not convert names the grammar, the key and the text, and every
bool field takes the one spelling set.
"""

from __future__ import annotations

import re

import pytest

from repro.chaos.plan import ChaosPlan
from repro.defense.attacks import AttackPlan
from repro.defense.policy import resolve_defense
from repro.faults.plan import FaultPlan
from repro.membership.plan import ChurnPlan
from repro.population.spec import PopulationSpec
from repro.simtime.cost import HeterogeneousCostModel, make_cost_model
from repro.utils.spec import BOOL_VALUES, parse_spec, to_int, tokenize

PARSERS = {
    "chaos": ChaosPlan.parse,
    "fault": FaultPlan.parse,
    "attack": AttackPlan.parse,
    "churn": ChurnPlan.parse,
    "cost-model": HeterogeneousCostModel.parse,
    "make_cost_model": make_cost_model,
    "population": PopulationSpec.parse,
    "defense": resolve_defense,
}


@pytest.mark.parametrize("parser, spec, key", [
    ("chaos", "torn_write=1,seed=2,torn_write=3", "torn_write"),
    ("fault", "client_dropout=0.1,client_dropout=0.3", "client_dropout"),
    ("fault", "max_retries=1, max_retries=3", "max_retries"),
    ("fault", "attack_fraction=0.1,attack_fraction=0.2", "attack_fraction"),
    ("fault", "attack=gauss,attack_attack=sign_flip", "attack_attack"),
    ("fault", "attack_seed=1,attack_seed=2", "attack_seed"),
    ("attack", "sign_flip,fraction=0.1,fraction=0.2", "fraction"),
    ("attack", "sign_flip,attack=gauss", "attack"),
    ("churn", "arrive=0.1,depart=0.1,arrive=0.2", "arrive"),
    ("cost-model", "hetero,seed=1,seed=2", "seed"),
    ("make_cost_model", "latency.edge_cloud=0.1,latency.edge_cloud=0.2",
     "latency.edge_cloud"),
    ("population", "edges=2,clients=4,clients=6", "clients"),
    ("defense", "trimmed_mean,trim=0.1,trim=0.2", "trim"),
    ("defense", "edge=median,cloud=krum,edge=mean", "edge"),
])
def test_repeated_key_is_rejected(parser, spec, key):
    with pytest.raises(ValueError, match=re.escape(f"{key!r} given twice")):
        PARSERS[parser](spec)


@pytest.mark.parametrize("parser, spec, message", [
    ("chaos", "torn_write=a",
     "chaos spec key 'torn_write': cannot parse 'a' as int"),
    ("chaos", "hang_s=slow",
     "chaos spec key 'hang_s': cannot parse 'slow' as float"),
    ("churn", "arrive=x", "churn spec key 'arrive': cannot parse 'x' as float"),
    ("population", "edges=x,clients=4",
     "population spec key 'edges': cannot parse 'x' as int"),
    ("fault", "seed=z", "fault spec key 'seed': cannot parse 'z' as int"),
    ("fault", "attack_clients=1|b",
     "attack spec key 'clients': cannot parse 'b' as int"),
    ("attack", "gauss,fraction=lots",
     "attack spec key 'fraction': cannot parse 'lots' as float"),
    ("cost-model", "hetero,slow_clients=0|x",
     "cost-model spec key 'slow_clients': cannot parse 'x' as int"),
    ("make_cost_model", "mbps.edge_cloud=fast",
     "cost-model spec key 'mbps.edge_cloud': cannot parse 'fast' as float"),
    ("defense", "trimmed_mean,trim=q",
     "defense spec key 'trim': cannot parse 'q' as float"),
    ("attack", "sign_flip,colluding=maybe",
     "attack spec key 'colluding': cannot parse 'maybe' as bool"),
    ("churn", "rehome=2", "churn spec key 'rehome': cannot parse '2' as bool"),
])
def test_conversion_error_names_grammar_and_key(parser, spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PARSERS[parser](spec)


@pytest.mark.parametrize("parser, spec", [
    ("chaos", "torn_write"),
    ("fault", "client_dropout"),
    ("attack", "sign_flip,gauss"),
    ("churn", "arrive"),
    ("cost-model", "uniform,seed=1"),
    ("population", "edges=2,clients"),
    ("defense", "median,krum"),
])
def test_bare_token_outside_the_leading_slot_is_rejected(parser, spec):
    with pytest.raises(ValueError, match="not key=value"):
        PARSERS[parser](spec)


SPELLINGS = sorted(BOOL_VALUES) + ["TRUE", "Off"]


@pytest.mark.parametrize("raw", SPELLINGS)
def test_attack_colluding_takes_every_bool_spelling(raw):
    expected = BOOL_VALUES[raw.lower()]
    assert AttackPlan.parse(f"sign_flip,colluding={raw}").colluding is expected
    assert FaultPlan.parse(
        f"attack=gauss,attack_colluding={raw}").byzantine.colluding is expected


@pytest.mark.parametrize("raw", SPELLINGS)
def test_churn_rehome_takes_every_bool_spelling(raw):
    expected = BOOL_VALUES[raw.lower()]
    assert ChurnPlan.parse(f"rehome={raw}").rehome is expected


@pytest.mark.parametrize("parser, spec, attr, expected", [
    ("attack", "gauss,scale=none", "scale", None),
    ("fault", "round_timeout_slots=none", "round_timeout_slots", None),
    ("population", "edges=2,clients=4,eval_edges=none", "eval_edges", None),
])
def test_optional_fields_take_none(parser, spec, attr, expected):
    assert getattr(PARSERS[parser](spec), attr) is expected


class TestTokenizer:
    def test_strips_whitespace_and_skips_empty_entries(self):
        assert tokenize(" a = 1 ,, b=2 ,", "demo") == (None,
                                                       {"a": "1", "b": "2"})

    def test_leading_token_only_in_first_slot(self):
        assert tokenize("name,a=1", "demo", leading=True) == ("name",
                                                              {"a": "1"})
        with pytest.raises(ValueError, match="demo spec entry 'name' is not"):
            tokenize(",name", "demo", leading=True)

    def test_value_keeps_later_equals_signs(self):
        assert tokenize("a=b=c", "demo") == (None, {"a": "b=c"})

    def test_unknown_key_lists_the_options(self):
        with pytest.raises(ValueError,
                           match=re.escape("unknown demo spec key 'c'; "
                                           "options: ['a', 'b']")):
            parse_spec("c=1", "demo", {"a": to_int, "b": to_int})
