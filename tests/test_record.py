"""The record contract, on every record class of the package, and what
importing the command-line front end loads."""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spingate
from spingate import circuit as ct
from spingate import config as cf
from spingate import experiment as ex
from spingate import logic as lg
from spingate import physics as ph
from spingate import signal as sig
from spingate.record import fields, replace

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = [info.name for info in pkgutil.walk_packages(spingate.__path__,
                                                       "spingate.")]


def record_classes():
    """Every record class the package's modules define."""
    found = []
    for name in MODULES:
        for obj in vars(importlib.import_module(name)).values():
            if (isinstance(obj, type) and obj.__module__ == name
                    and "__record_fields__" in vars(obj)):
                found.append(obj)
    return found


RECORD_CLASSES = record_classes()


@pytest.fixture(scope="module")
def examples():
    """One instance of each record class, keyed by class."""
    setup = cf.validate_config(cf.RunConfig())
    nl, calibration = ex.calibrate(setup.netlist())
    table = lg.truth_table(nl, setup.switching["enc"])
    trace = sig.DetectedTrace(1e-10, [0.0, 0.5, 1.0])
    row = ex.ScalingRow(scale=1.0, t_rise=1.1e-8, flagged=False)
    cfg = setup.cfg
    values = [
        ph.FilmParams(Ms=1.4e5, d=5.4e-6), ph.BiasField(), setup.context(),
        sig.ComplexEnvelope(6.0e9, 1e-10, [0.0, 1j, 1.0]), trace,
        sig.RiseTimeResult(t_rise=1.1e-8, v_max=1.0),
        ct.DeviceGeometry(), ct.MicrowaveSettings(), nl.carrier, nl,
        lg.PhaseEncoding(), lg.LogicState((1, 0, 1)), table.rows[0], table,
        calibration, ex.SwitchTiming(),
        ex.SwitchingResult(trace=trace, t_rise=1.1e-8, levels=(0.0, 1.0)),
        row, ex.ScalingStudy(rows=(row,), ramp_floor=2e-9, slope=1e-6,
                             intercept=1e-9, r_squared=1.0),
        *(getattr(cfg, name) for name in fields(cfg)), cfg,
        cfg.spectrum.grid(), setup,
    ]
    return {type(value): value for value in values}


def test_every_record_class_has_an_example(examples):
    assert set(examples) == set(RECORD_CLASSES)


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
def test_record_contract(cls, examples, monkeypatch):
    r = examples[cls]
    names = fields(cls)
    assert fields(r) == names
    # the fields are the __init__ parameters, in order
    assert list(inspect.signature(cls).parameters) == list(names)

    for name in names:
        value = getattr(r, name)
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) is value

    post_inits = []
    if "__post_init__" in vars(cls):
        post_init = cls.__post_init__

        def counted(self, *args, **kwargs):
            post_inits.append(self)
            return post_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__post_init__", counted)
    copy = replace(r)
    assert type(copy) is cls and copy is not r
    # replace builds through __init__, which runs __post_init__ again
    assert post_inits == ([copy] if "__post_init__" in vars(cls) else [])

    values = [getattr(r, name) for name in names]
    if any(isinstance(value, np.ndarray) for value in values):
        # a copied sample array compares elementwise: == has no one answer
        assert all(np.array_equal(getattr(copy, name), value)
                   for name, value in zip(names, values))
    else:
        assert copy == r
        try:
            expected = hash(tuple(values))
        except TypeError:
            pass  # Setup's keyword dict
        else:
            assert hash(copy) == hash(r) == expected

    assert repr(r) == (f"{cls.__qualname__}("
                       + ", ".join(f"{name}={value!r}"
                                   for name, value in zip(names, values)) + ")")


def test_replace_checks_the_fields_again():
    with pytest.raises(ValueError, match="^scale must be positive$"):
        replace(ct.DeviceGeometry(), scale=0.0)
    with pytest.raises(TypeError):
        replace(ct.DeviceGeometry(), width=1.0)


def test_records_compare_within_one_class():
    assert ph.BiasField() != ph.BiasField(mu0_h=0.2)
    assert ex.ScalingRow(1.0, 2.0, False) != (1.0, 2.0, False)
    assert cf.FieldConfig() != ph.BiasField()


def test_importing_the_cli_loads_the_package_without_dataclasses():
    """The front end imports every package module up front, and none of
    them needs dataclasses (numpy does not import it either)."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spingate.cli; "
            "print(' '.join(sorted(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded
    assert set(MODULES) <= loaded
