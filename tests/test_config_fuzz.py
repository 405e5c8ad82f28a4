"""The configuration surface, fuzzed with hypothesis.

A drawn configuration text names a command and an experiment, sets 1 to 4
keys of ``config.SCHEMA`` to values of the classes a hand-written file could
hold (empty, whitespace, nan, +-inf, 0, negative, huge, non-numeric,
unsorted and repeated lists, enum names), and sometimes adds a header
outside ``SCHEMA``, ``[DEFAULT]`` included.  Building its run, as ``cli.run``
does before anything runs, must return or raise ``ConfigError``: never
another exception, never a numpy ``RuntimeWarning``.  A header outside
``SCHEMA`` always raises.  No plan is run.

Sizes are capped: an allocatable grid or t grid of 1e9 points could exhaust
the host, so ``n_max`` and ``growth_points`` draw only small values and one
value each that the allocator refuses at once.
"""

import warnings

from hypothesis import given, settings, strategies as st

from szego_rg.config import (
    SCHEMA,
    ConfigError,
    emit_config,
    flow_spec_from_config,
    parse_config,
    plan_from_config,
)
from szego_rg.dynamics import Flow
from szego_rg.experiments import DataKind, Experiment
from szego_rg.spectral import Domain

ENUM_NAMES = [m.value for enum in (Domain, Flow, DataKind, Experiment) for m in enum]
VALUES = st.sampled_from([
    "", "   ", "nan", "inf", "-inf", "0", "-1", "-2.5", "1e120", "1e308", str(2**63),
    "banana", "0.1,0.3,0.2", "0.2,0.2,0.1", "3,1,2", "1,1", "1+2j,nan", "0.5", "1", "2",
    "0.05", "0.4,0.3,0.2", "1,2,3", *ENUM_NAMES,
])
# the size keys: small values, and one size the allocator refuses at once
SIZES = {
    "n_max": st.sampled_from(["0", "3", "4", "8", "12", "13", "64", "10000000000000"]),
    "growth_points": st.one_of(
        st.integers(-2, 10**5).map(str), st.just("1000000000000000"),
    ),
}
KEYS = st.sampled_from([(section, key) for section, keys in SCHEMA.items() for key in keys])
FOREIGN = st.sampled_from(["DEFAULT", "default", "runs", "Grid", "nonsense"])


@st.composite
def configurations(draw):
    """(command, configuration text, whether it has a header outside SCHEMA)."""
    command = draw(st.sampled_from(["simulate", "scaling", "audit", "growth"]))
    sections = {}
    if draw(st.booleans()):
        sections["run"] = {"experiment": draw(st.sampled_from([e.value for e in Experiment]))}
    for section, key in draw(st.lists(KEYS, min_size=1, max_size=4, unique=True)):
        sections.setdefault(section, {})[key] = draw(SIZES.get(key, VALUES))
    foreign = draw(st.none() | FOREIGN)
    if foreign is not None:
        sections[foreign] = {draw(KEYS)[1]: draw(VALUES)}
    text = "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sections[name].items()) + "\n"
        for name in draw(st.permutations(list(sections)))
    )
    return command, text, foreign is not None


def _build(command, text):
    """The run cli.run would start, built and not run; its configuration echo."""
    cfg = parse_config(text)
    if command == "audit":
        cfg = cfg.with_value("run", "experiment", Experiment.KERNEL_AUDIT.value)
    if command == "simulate":
        flow_spec_from_config(cfg)
    else:
        plan_from_config(cfg)
    return cfg


@settings(max_examples=300, deadline=None, database=None)
@given(configurations())
def test_every_configuration_builds_or_names_its_error(drawn):
    command, text, foreign = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            cfg = _build(command, text)
        except ConfigError:
            return
    assert not foreign, f"a header outside SCHEMA was accepted:\n{text}"
    assert parse_config(emit_config(cfg)) == cfg
