"""Experiment harnesses: configs, determinism, trend reproduction at small scale."""

import copy
import json
import math
import operator
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cosimo
from cosimo import complexes, experiments, nn, spectral
from cosimo.analysis import (
    energy_trace,
    lambda_max_tilde,
    model_constants,
    operator_extremes,
    oversmoothing_rhs_continuous,
    oversmoothing_rhs_discrete,
    phi_constant,
)
from cosimo.complexes import build_complex, random_points
from cosimo.delaunay import delaunay_complex
from cosimo.experiments import (
    ComplexSpec,
    ConfigError,
    OversmoothConfig,
    StabilityConfig,
    TrajectoryConfig,
    _CONFIG_RULE,
    _EXPERIMENTS,
    _choice,
    _holes,
    _number,
    _numbers,
    _object,
    _oversmooth_worker,
    _realization_complex,
    _stability_worker,
    config_from_dict,
    config_to_dict,
    fit_trajectory_model,
    generate_trajectories,
    parse_holes,
    run_oversmoothing,
    run_stability,
    run_trajectory,
    scaled_operators,
)
from cosimo.nn import Model


class TestConfigs:
    def test_dispatch_and_defaults(self):
        cfg = config_from_dict({"experiment": "oversmooth"})
        assert isinstance(cfg, OversmoothConfig)
        assert cfg.realizations == 50 and cfg.layers == 100
        cfg = config_from_dict({"experiment": "stability", "seed": 3})
        assert isinstance(cfg, StabilityConfig)
        assert cfg.snr_grid_db == (-5.0, 0.0, 10.0, 20.0)
        cfg = config_from_dict(
            {"experiment": "trajectory", "trajectory": {"branches": 2}}
        )
        assert isinstance(cfg, TrajectoryConfig) and cfg.branches == 2

    @pytest.mark.parametrize("experiment, config", [
        ("oversmooth", OversmoothConfig), ("stability", StabilityConfig),
        ("trajectory", TrajectoryConfig),
    ])
    def test_absent_keys_take_the_dataclass_defaults(self, experiment, config):
        assert config_from_dict({"experiment": experiment}) == config()

    def test_inf_snr_parsed(self):
        cfg = config_from_dict(
            {"experiment": "stability", "stability": {"snr_grid_db": ["inf", 0]}}
        )
        assert cfg.snr_grid_db == (math.inf, 0.0)

    def test_schema_violations_list_json_paths(self):
        with pytest.raises(ConfigError) as err:
            config_from_dict(
                {
                    "experiment": "oversmooth",
                    "realizations": 0,
                    "oversmooth": {"t_grid": []},
                }
            )
        msg = str(err.value)
        assert "$.realizations" in msg and "$.oversmooth.t_grid" in msg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "oversmooth", "bogus": 1})

    @pytest.mark.parametrize("text, path", [
        ('{"experiment": "oversmooth", "realizations": 2.0}', "$.realizations"),
        ('{"experiment": "oversmooth", "complex": {"n_points": 30.0}}', "$.complex.n_points"),
        ('{"experiment": "oversmooth", "oversmooth": {"layers": 3.0}}', "$.oversmooth.layers"),
        ('{"experiment": "oversmooth", "seed": true}', "$.seed"),
        ('{"experiment": "stability", "stability": {"snr_grid_db": [NaN]}}',
         "$.stability.snr_grid_db[0]"),
        ('{"experiment": "stability", "stability": {"t_d": NaN}}', "$.stability.t_d"),
        ('{"experiment": "oversmooth", "oversmooth": {"lambda_target": NaN}}',
         "$.oversmooth.lambda_target"),
        ('{"experiment": "oversmooth", "oversmooth": {"t_grid": [0.1, NaN]}}',
         "$.oversmooth.t_grid[1]"),
        ('{"experiment": "trajectory", "trajectory": {"leaky_slope": NaN}}',
         "$.trajectory.leaky_slope"),
        ('{"experiment": "oversmooth", "complex": {"holes": [[0.5, 0.5, -0.3]]}}',
         "$.complex.holes[0][2]"),
    ], ids=["realizations-float", "n_points-float", "layers-float", "seed-bool", "snr-nan",
            "t_d-nan", "lambda_target-nan", "t_grid-nan", "leaky_slope-nan", "radius-negative"])
    def test_integral_float_nan_and_negative_radius_refused(self, text, path):
        with pytest.raises(ConfigError) as err:
            config_from_dict(json.loads(text))
        assert _error_paths(err.value) == {path}

    def test_inf_passes_where_the_bounds_allow_it(self):
        cfg = config_from_dict(json.loads(
            '{"experiment": "oversmooth", "oversmooth": {"t_grid": [Infinity],'
            ' "threshold": Infinity}, "stability": {"snr_grid_db": [Infinity]}}'
        ))
        assert cfg.t_grid == (math.inf,) and cfg.threshold == math.inf
        with pytest.raises(ConfigError, match=r"\$\.trajectory\.train_fraction"):
            config_from_dict(json.loads(
                '{"experiment": "oversmooth", "trajectory": {"train_fraction": Infinity}}'
            ))

    @pytest.mark.parametrize("section, setting, value", [
        ("oversmooth", "lambda_target", "inf"), ("oversmooth", "init_scale", "inf"),
        ("stability", "train_step_size", "inf"), ("trajectory", "step_size", "inf"),
        ("trajectory", "turn_bias", "inf"), ("trajectory", "leaky_slope", "inf"),
        ("trajectory", "leaky_slope", "-inf"),
    ])
    def test_an_infinity_that_cannot_run_is_refused(self, section, setting, value):
        # each of these used to fail deep inside the run (an SVD that does
        # not converge, NaN walk probabilities, a diverged fit, a refused model)
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": section, section: {setting: value}})
        assert _error_paths(err.value) == {f"$.{section}.{setting}"}

    @pytest.mark.parametrize("slope", [-0.1, -5e-324, 1.5, 1.0 + 2.0**-52, 1e300])
    def test_a_leaky_slope_outside_zero_one_is_refused(self, slope):
        # the model takes slopes in [0, 1] only, so the config refuses the
        # others before the run starts; the ends and -0.0 pass
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "trajectory", "trajectory": {"leaky_slope": slope}})
        assert _error_paths(err.value) == {"$.trajectory.leaky_slope"}
        for ok in (0.0, -0.0, 1.0, 0.5):
            cfg = config_from_dict({"experiment": "trajectory", "trajectory": {"leaky_slope": ok}})
            assert cfg.leaky_slope == ok

    def test_an_snr_of_minus_infinity_is_refused(self):
        # -inf dB is all noise, not none
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "stability",
                              "stability": {"snr_grid_db": [10, "-inf", "inf"]}})
        assert _error_paths(err.value) == {"$.stability.snr_grid_db[1]"}

    def test_inf_strings_spell_infinity_for_every_float_setting(self):
        cfg = config_from_dict({
            "experiment": "stability", "complex": {"holes": [[0.5, "-inf", "inf"]]},
            "stability": {"t_d": "inf", "snr_grid_db": ["inf"]},
        })
        assert cfg.complex.holes == (((0.5, -math.inf), math.inf),)
        assert cfg.t_d == math.inf and cfg.snr_grid_db == (math.inf,)
        with pytest.raises(ConfigError) as err:
            config_from_dict({"experiment": "trajectory", "seed": "inf",
                              "trajectory": {"train_fraction": "inf", "step_size": "-inf",
                                             "leaky_slope": "-inf", "turn_bias": "inf"}})
        assert _error_paths(err.value) == {
            "$.seed", "$.trajectory.train_fraction", "$.trajectory.step_size",
            "$.trajectory.leaky_slope", "$.trajectory.turn_bias"}

    def test_config_to_dict_writes_the_layout_config_from_dict_reads(self):
        cfg = StabilityConfig(seed=3, snr_grid_db=(0.0, math.inf))
        payload = config_to_dict(cfg)
        assert payload == {
            "experiment": "stability", "seed": 3, "realizations": 30,
            "complex": {"n_points": 30, "holes": [[0.3, 0.3, 0.12], [0.7, 0.7, 0.12]]},
            "stability": {"snr_grid_db": [0.0, "inf"], "t_d": 1.0, "t_u": 2.0, "level": 1,
                          "train_epochs": 500, "train_step_size": 0.05},
        }
        assert config_from_dict(json.loads(json.dumps(payload, allow_nan=False))) == cfg
        cfg = TrajectoryConfig(complex=ComplexSpec(holes=(((0.5, -math.inf), math.inf),)))
        assert config_to_dict(cfg)["complex"]["holes"] == [[0.5, "-inf", "inf"]]
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_other_experiments_sections_are_checked_then_ignored(self):
        shared = {"oversmooth": {"layers": 7}, "stability": {"t_d": 0.5},
                  "trajectory": {"hidden": 5}}
        cfg = config_from_dict({"experiment": "stability", **shared})
        assert cfg == StabilityConfig(t_d=0.5)
        with pytest.raises(ConfigError, match=r"\$\.trajectory\.hidden"):
            config_from_dict({**shared, "experiment": "stability", "trajectory": {"hidden": 0}})

    def test_parse_holes_shares_the_config_hole_check(self):
        assert parse_holes([[0.5, 0.5, 0], [1, 2, 0.25]]) == (((0.5, 0.5), 0), ((1, 2), 0.25))
        with pytest.raises(ConfigError) as err:
            parse_holes([[0.5, 0.5, -0.3], [1, 2]], "--holes")
        assert _error_paths(err.value) == {"--holes[0][2]", "--holes[1]"}

    @settings(max_examples=150)
    @given(st.data())
    def test_walker_builds_valid_configs_and_names_the_one_bad_path(self, data):
        payload = data.draw(_valid_config())
        kind = payload["experiment"]
        checked = {k: _as_config(v, _CONFIG_RULE["fields"][k])
                   for k, v in payload.items() if k != "experiment"}
        sections = {name: checked.pop(name, {}) for name in _EXPERIMENTS}
        config = config_from_dict(payload)
        assert config == _EXPERIMENTS[kind](**checked, **sections[kind])
        assert config_from_dict(config_to_dict(config)) == config

        loc, rule = data.draw(st.sampled_from(list(_targets(payload, _CONFIG_RULE))))
        bad = data.draw(st.sampled_from(_bad_values(rule)))
        if bad is _UNKNOWN_KEY:
            loc, bad = loc + ("not_a_setting",), 1
        with pytest.raises(ConfigError) as err:
            config_from_dict(_replaced(payload, loc, bad))
        path = "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in loc)
        assert _error_paths(err.value) == {path}


def test_import_loads_numpy_as_the_only_third_party_module():
    src = str(Path(cosimo.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import cosimo; "
            "print(*{m.partition('.')[0] for m in set(sys.modules) - before})")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split()) - sys.stdlib_module_names
    assert loaded - {"cosimo", "__mp_main__"} == {"numpy"}


def _error_paths(err: ConfigError) -> set:
    return {line.split(": ", 1)[0].strip() for line in str(err).splitlines()[1:]}


# JSON values drawn from the rules on the config fields, and the values the
# config holds for them.

_INF = ("inf", "-inf")  # the strict-JSON spellings of ±infinity


def _in_bounds(value, rule) -> bool:
    return all(getattr(operator, key)(value, rule[key])
               for key in ("ge", "gt", "le", "lt") if key in rule)


def _valid(rule):
    check = rule["check"]
    if check is _object:
        return st.fixed_dictionaries(
            {}, optional={k: _valid(sub) for k, sub in rule["fields"].items()})
    if check is _choice:
        return st.sampled_from(rule["choices"])
    if check is _holes:
        coord = _valid({"check": _number})
        hole = st.tuples(coord, coord, _valid({"check": _number, "ge": 0}))
        return st.lists(hole.map(list), max_size=3)
    if check is _numbers:
        return st.lists(_valid({**rule, "check": _number}), min_size=1, max_size=4)
    if rule.get("integer"):
        return st.integers(rule.get("ge"), rule.get("le"))
    number = st.floats(
        rule.get("ge", rule.get("gt")), rule.get("le", rule.get("lt")),
        allow_nan=False, exclude_min="gt" in rule, exclude_max="lt" in rule,
    )
    ints = [v for v in range(-3, 4) if _in_bounds(v, rule)]
    if ints:
        number |= st.sampled_from(ints)
    infinities = [s for s in _INF if _in_bounds(float(s), rule)]
    if infinities:
        number |= st.sampled_from(infinities)
    return number | st.none() if rule.get("nullable") else number


def _valid_config():
    rest = {k: v for k, v in _CONFIG_RULE["fields"].items() if k != "experiment"}
    return st.fixed_dictionaries(
        {"experiment": st.sampled_from(tuple(_EXPERIMENTS))},
        optional={k: _valid(sub) for k, sub in rest.items()},
    )


def _as_config(value, rule):
    check = rule["check"]
    if check is _object:
        built = {k: _as_config(v, rule["fields"][k]) for k, v in value.items()}
        return rule["of"](**built) if "of" in rule else built
    if check is _holes:
        return tuple(((_as_float(cx), _as_float(cy)), _as_float(r)) for cx, cy, r in value)
    if check is _numbers:
        return tuple(map(_as_float, value))
    return _as_float(value) if check is _number else value


def _as_float(value):
    return float(value) if value in _INF else value


# Where a config can be broken: every setting, section and list entry,
# with the rule that checks it.

_UNKNOWN_KEY = object()


def _targets(value, rule, loc=()):
    yield loc, rule
    check = rule["check"]
    if check is _object:
        for key, item in value.items():
            yield from _targets(item, rule["fields"][key], loc + (key,))
    elif check is _numbers:
        for i in range(len(value)):
            yield loc + (i,), {**rule, "check": _number}
    elif check is _holes:
        for i in range(len(value)):
            yield loc + (i, 0), {"check": _number}
            yield loc + (i, 1), {"check": _number}
            yield loc + (i, 2), {"check": _number, "ge": 0}


def _bad_values(rule) -> list:
    """Wrong type, boolean, and per kind: unknown key, integral float, NaN,
    out of range."""
    bad = ["not-a-value", True]
    if rule["check"] is _object:
        bad.append(_UNKNOWN_KEY)
    if rule["check"] is _number:
        bad.append(math.nan)
        bad += [rule[k] + step for k, step in (("ge", -1), ("gt", 0), ("le", 1), ("lt", 0))
                if k in rule]
        bad += [s for s in _INF if rule.get("integer") or not _in_bounds(float(s), rule)]
    if rule.get("integer"):
        bad.append(float(rule.get("ge", 2)))
    return bad


def _replaced(payload, loc, value):
    if not loc:
        return value
    out = copy.deepcopy(payload)
    parent = out
    for key in loc[:-1]:
        parent = parent[key]
    parent[loc[-1]] = value
    return out


# Tiny runs of each experiment, to set every numeric setting of them to "inf"
# and to "-inf" in turn (`_targets` finds the settings).
_TINY = {
    "oversmooth": {"layers": 3, "features": 2, "t_grid": [0.1], "level": 1,
                   "lambda_target": 1.2, "init_scale": 0.8, "threshold": 1e-10},
    "stability": {"snr_grid_db": [10], "t_d": 1.0, "t_u": 2.0, "level": 1,
                  "train_epochs": 2, "train_step_size": 0.05},
    "trajectory": {"n_trajectories": 12, "min_length": 2, "branches": 1, "hidden": 2,
                   "layers": 2, "epochs": 2, "step_size": 0.05, "train_fraction": 0.8,
                   "turn_bias": 3.0, "leaky_slope": 0.1},
}


def _tiny_payload(experiment):
    return {"experiment": experiment, "seed": 0, "realizations": 1,
            "complex": {"n_points": 8, "holes": [[0.5, 0.5, 0.1]]},
            experiment: dict(_TINY[experiment])}


_INFINITE_SETTINGS = [
    pytest.param(experiment, loc, value, id=f"{experiment}-{'.'.join(map(str, loc))}={value}")
    for experiment in _TINY
    for loc, rule in _targets(_tiny_payload(experiment), _CONFIG_RULE)
    if rule["check"] is _number
    for value in _INF
]


@pytest.mark.parametrize("experiment, loc, value", _INFINITE_SETTINGS)
def test_every_numeric_setting_at_infinity_runs_or_is_a_config_error(experiment, loc, value):
    """A config that passes the rules runs to the end with no NaN on either
    side of a bound; one that cannot run raises `ConfigError` (exit 2), never
    another error from inside the run."""
    runner = {"oversmooth": run_oversmoothing, "stability": run_stability,
              "trajectory": run_trajectory}[experiment]
    try:
        result = runner(config_from_dict(_replaced(_tiny_payload(experiment), loc, value)))
    except ConfigError:
        return
    sides = {"oversmooth": (3, 4, 5), "stability": (3, 4), "trajectory": (3,)}[experiment]
    assert not any(math.isnan(row[i]) for row in result.rows for i in sides)


class TestScaledOperators:
    def test_lambda_target_reached(self):
        cplx = delaunay_complex(random_points(20, rng_seed=0))
        ops = scaled_operators(cplx, 1.2)
        worst = 0.0
        for o in ops.values():
            for M in (o.L_down, o.L_up):
                if M.size:
                    worst = max(worst, float(np.linalg.eigvalsh(M)[-1]))
        assert worst == pytest.approx(1.2, rel=1e-9)

    def test_each_incidence_scaled_once_and_read_only(self):
        ops = scaled_operators(delaunay_complex(random_points(20, rng_seed=0)), 1.2)
        assert np.shares_memory(ops[0].B_up, ops[1].B_down)
        assert np.shares_memory(ops[1].B_up, ops[2].B_down)
        for o in ops.values():
            for a in (o.B_down, o.B_up, o.spectrum_down.eigenvalues, o.spectrum_up.eigenvalues):
                assert not a.flags.writeable

    def test_none_keeps_raw(self):
        cplx = delaunay_complex(random_points(20, rng_seed=0))
        raw = scaled_operators(cplx, None)
        assert float(np.linalg.eigvalsh(raw[0].L)[-1]) > 2.0

    def test_reads_lambda_from_the_records_without_a_decomposition(self, monkeypatch):
        # the records hold every nonzero eigenvalue, so rescaling runs no SVD
        # and no eigensolver beyond the complex's own two
        cplx = delaunay_complex(random_points(20, rng_seed=0))
        scaled_operators(cplx, None)  # the complex assembles its records once

        def refused(*args, **kwargs):
            raise AssertionError("scaled_operators decomposed a matrix")

        for name in ("svd", "norm", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refused)
        ops = scaled_operators(cplx, 1.2)
        monkeypatch.undo()
        assert lambda_max_tilde(operator_extremes(ops)) == pytest.approx(1.2, rel=1e-15)

    def test_a_complex_of_zero_operators_cannot_be_rescaled(self):
        # an edgeless complex: every Laplacian is zero, so no scale reaches
        # lambda_target; a ValueError, not a division by zero
        with pytest.raises(ValueError, match="no operators with a spectrum"):
            scaled_operators(build_complex(vertices=(0, 1, 2)), 1.2)


class TestOversmoothing:
    def test_single_realization_smoke(self):
        cfg = OversmoothConfig(seed=11, realizations=1, layers=30)
        res = run_oversmoothing(cfg)
        assert sum(res.violations.values()) == 0
        assert len(res.rows) == 30 * len(res.labels)

    def test_csv_shape_contract(self, tmp_path):
        cfg = OversmoothConfig(seed=11, realizations=1, layers=10, t_grid=(0.1, 0.5))
        run_oversmoothing(cfg, out_dir=tmp_path)
        lines = (tmp_path / "oversmooth_results.csv").read_text().splitlines()
        assert lines[0] == "model,t,layer,lhs_mean,lhs_geomean,rhs_mean,violations"
        assert len(lines) == 1 + 10 * 3  # discrete + two t values

    @pytest.mark.parametrize("t", [-0.1, math.nan])
    def test_refuses_a_negative_or_nan_time(self, t):
        cfg = OversmoothConfig(realizations=1, layers=3, t_grid=(0.5, t))
        with pytest.raises(ValueError, match=f"t_d = {t} is not a diffusion time"):
            run_oversmoothing(cfg)

    def test_close_times_keep_their_own_labels_and_repeats_are_refused(self, tmp_path):
        cfg = OversmoothConfig(seed=11, realizations=1, layers=2,
                               t_grid=(0.1, 0.1000001, 0.1234567))
        res = run_oversmoothing(cfg, out_dir=tmp_path)
        times = ["0.1", "0.1000001", "0.1234567"]
        assert res.labels == ["discrete"] + [f"cosimo_t={t}" for t in times]
        lines = (tmp_path / "oversmooth_results.csv").read_text().splitlines()[1:]
        want = [t for t in [""] + times for _ in range(cfg.layers)]
        assert [line.split(",")[1] for line in lines] == want
        with pytest.raises(ConfigError, match=r"t_grid: 0\.1, 0\.5, 0\.1 repeat a time"):
            run_oversmoothing(replace(cfg, t_grid=(0.1, 0.5, 0.1 + 1e-15)))

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = OversmoothConfig(seed=12, realizations=2, layers=15)
        run_oversmoothing(cfg, out_dir=tmp_path / "a")
        run_oversmoothing(cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "oversmooth_results.csv").read_bytes()
        b = (tmp_path / "b" / "oversmooth_results.csv").read_bytes()
        assert a == b


def _per_model_oversmooth(config, r):
    """`_oversmooth_worker` as one model per diffusion time computed it: each
    continuous model built, bounded and traced on its own."""
    cplx = _realization_complex(config.complex, config.seed, r)
    ops = scaled_operators(cplx, config.lambda_target)
    widths = [config.features] * (config.layers + 1)
    rng_in = np.random.default_rng([config.seed, r, 1])
    inputs = {k: rng_in.standard_normal((ops[k].n, config.features))
              for k in (0, 1, 2) if ops[k].n > 0}
    k = config.level
    common = dict(out_level=k, activation="relu",
                  init_std=config.init_scale / math.sqrt(config.features))
    disc = Model(ops, widths, family="discrete", seed=[config.seed, r, 2], **common)
    reports = {"discrete": oversmoothing_rhs_discrete(
        energy_trace(disc, inputs), k, model_constants(disc))}
    for t in config.t_grid:
        cos = Model(ops, widths, family="cosimo", seed=[config.seed, r, 3], **common)
        cos.set_receptive_fields(t, t)
        consts = model_constants(cos)
        phi = phi_constant(consts["extremes"], t, t)
        reports[f"cosimo_t={t:.12g}"] = oversmoothing_rhs_continuous(
            energy_trace(cos, inputs), k, consts, phi)
    return {label: (rep.lhs, rep.rhs, (~rep.satisfied).astype(np.int64))
            for label, rep in reports.items()}


class TestStackedOversmoothSweep:
    """The continuous models of a realization run as one stack."""

    @pytest.mark.parametrize("t_grid, lambda_target", [
        ((0.01, 0.1, 0.2, 0.5), 1.2), ((0.0, 0.3, math.inf), None), ((0.7,), 1.2),
    ])
    def test_worker_equals_one_model_per_time(self, t_grid, lambda_target):
        config = OversmoothConfig(seed=21, realizations=2, layers=12, t_grid=t_grid,
                                  lambda_target=lambda_target)
        for r in range(config.realizations):
            got, want = _oversmooth_worker(config, r), _per_model_oversmooth(config, r)
            assert list(got) == list(want)
            for label in want:
                for a, b in zip(got[label], want[label]):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), label

    def test_one_realization_makes_two_inits_and_two_forwards(self, monkeypatch):
        calls = Counter()

        def counted(name):
            fn = getattr(nn.Model, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("__init__", "forward"):
            monkeypatch.setattr(nn.Model, name, counted(name))
        config = replace(OversmoothConfig(), realizations=1, layers=5)
        _oversmooth_worker(config, 0)
        assert calls == {"__init__": 2, "forward": 2}


def _count_layer_kernels(monkeypatch) -> Counter:
    """Calls of the continuous layer kernels, counted, not timed."""
    calls = Counter()

    def counted(name):
        fn = getattr(nn, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_cosimo_forward", "_cosimo_backward"):
        monkeypatch.setattr(nn, name, counted(name))
    return calls


def _count_decompositions(monkeypatch, cplx) -> Counter:
    """Calls of `eig_sym` (at both of its bindings) and of numpy's
    ``eigvalsh`` on a matrix of an operator's or a Gram's size, a simplex
    count ``n_0``, ``n_1`` or ``n_2`` of ``cplx``, counted, not timed;
    ``calls.sizes`` lists the size of every matrix counted. A smaller matrix,
    such as the ``F x F`` Gram of a signal, decomposes no operator."""
    calls = Counter()
    calls.sizes = set()
    operator_sizes = {cplx.num_simplices(k) for k in (0, 1, 2)}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if len(args[0]) in operator_sizes:
                calls[name] += 1
                calls.sizes.add(len(args[0]))
            return fn(*args, **kwargs)

        return wrapper

    for module in (complexes, spectral):
        monkeypatch.setattr(module, "eig_sym", counted("eig_sym", spectral.eig_sym))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", np.linalg.eigvalsh))
    return calls


class TestDecompositionCounts:
    """Each incidence is decomposed once, through its small Gram matrix
    (``B_1 B_1^T``, ``B_2^T B_2``), and the levels that read it share that
    decomposition; no edge-level (``n_1 x n_1``) matrix is ever decomposed."""

    def test_a_signal_gram_is_no_operator_decomposition(self, monkeypatch):
        cplx = _realization_complex(StabilityConfig().complex, 0, 0)
        calls = _count_decompositions(monkeypatch, cplx)
        np.linalg.eigvalsh(np.eye(4))
        assert calls == {}
        np.linalg.eigvalsh(np.eye(cplx.num_simplices(1)))
        assert calls == {"eigvalsh": 1}
        assert calls.sizes == {cplx.num_simplices(1)}

    def test_three_levels_of_one_complex(self, monkeypatch):
        cplx = _realization_complex(StabilityConfig().complex, 0, 0)
        calls = _count_decompositions(monkeypatch, cplx)
        ops = {k: complexes.hodge_operators(cplx, k) for k in (0, 1, 2)}
        assert calls == {"eig_sym": 2}
        assert calls.sizes == {cplx.num_simplices(0), cplx.num_simplices(2)}
        # every later read is a lookup into the complex's one assembly
        assert all(complexes.hodge_operators(cplx, k) is ops[k] for k in (0, 1, 2))
        assert calls == {"eig_sym": 2}

    def test_a_complex_built_twice_counts_the_same(self, monkeypatch):
        # the shared record lives on the complex, so an equal complex built
        # again decomposes again: nothing is kept between complexes
        calls = _count_decompositions(
            monkeypatch, _realization_complex(StabilityConfig().complex, 0, 0)
        )
        counts = []
        for _ in range(2):
            before = calls["eig_sym"]
            cplx = _realization_complex(StabilityConfig().complex, 0, 0)
            for k in (0, 1, 2):
                complexes.hodge_operators(cplx, k)
            counts.append(calls["eig_sym"] - before)
        assert counts == [2, 2]

    @pytest.mark.parametrize("k, want", [(0, 2), (1, 2), (2, 2)])
    def test_perturbed_level(self, monkeypatch, k, want):
        # any level assembles all three, so level 0 or 2 alone pays for the
        # decomposition of the other incidence too
        cplx = _realization_complex(StabilityConfig().complex, 0, 0)
        pert = complexes.perturb_incidence(cplx, 10.0, 10.0, rng_seed=0)
        calls = _count_decompositions(monkeypatch, cplx)
        pert.hodge_operators(k)
        assert calls == {"eig_sym": want}
        for kk in (0, 1, 2):
            pert.hodge_operators(kk)
        assert calls == {"eig_sym": 2}

    def test_permutation_check(self, monkeypatch):
        cplx = _realization_complex(StabilityConfig().complex, 0, 0)
        model = Model.from_complex(cplx, [1, 2], seed=0)
        calls = _count_decompositions(monkeypatch, cplx)
        cosimo.analysis.permutation_equivariance_check(model, rng_seed=0, n_perms=3)
        assert calls == {"eig_sym": 2 * 3}

    def test_stability_realization(self, monkeypatch):
        # the clean complex once, then each cell's perturbed complex once:
        # the bound and the cell's model share that record. Operators, and
        # with them their records, are assembled once for the clean complex
        # (2 decompositions, one per incidence) and once per cell (2 more):
        # the other levels of a cell's model are the clean ones, of which it
        # reads only the sizes
        cfg = replace(StabilityConfig(), realizations=1, train_epochs=3)
        cplx = _realization_complex(cfg.complex, cfg.seed, 0)
        calls = _count_decompositions(monkeypatch, cplx)
        assemble = complexes.hodge_operators_from_incidence

        def counted(*args, **kwargs):
            calls["hodge_operators_from_incidence"] += 1
            return assemble(*args, **kwargs)

        monkeypatch.setattr(complexes, "hodge_operators_from_incidence", counted)
        _stability_worker(cfg, 0)
        cells = len(cfg.snr_grid_db) ** 2
        assert calls == {"eig_sym": 2 + 2 * cells, "hodge_operators_from_incidence": 1 + cells}
        assert calls.sizes == {cplx.num_simplices(0), cplx.num_simplices(2)}

    def test_oversmooth_realization(self, monkeypatch):
        # one decomposition per incidence of the raw complex: the rescaling
        # reads the incidence norms and rescales the records, the zero
        # operators (level 0 down, level 2 up) need none, and the analysis
        # no eigvalsh
        cfg = replace(OversmoothConfig(), realizations=1, layers=3)
        cplx = _realization_complex(cfg.complex, cfg.seed, 0)
        calls = _count_decompositions(monkeypatch, cplx)
        _oversmooth_worker(cfg, 0)
        assert calls == {"eig_sym": 2}
        assert calls.sizes == {cplx.num_simplices(0), cplx.num_simplices(2)}


class TestStability:
    def test_bounds_hold_and_gap_diagonal_decreases(self):
        cfg = StabilityConfig(seed=13, realizations=3, train_epochs=0)
        res = run_stability(cfg)
        assert res.violations == 0
        diag = [r[2] for r in res.gap_matrix if r[0] == r[1]]
        assert all(a > b for a, b in zip(diag, diag[1:]))

    def test_infinite_snr_cell(self):
        cfg = StabilityConfig(
            seed=14, realizations=2, snr_grid_db=(math.inf,), train_epochs=200
        )
        res = run_stability(cfg)
        for row in res.rows:
            assert row[3] <= 1e-9  # lhs
            assert row[6] <= 1e-2  # trained error near zero

    def test_trained_error_improves_with_snr(self):
        # Error-vs-SNR trend at reduced scale: corner cells of the grid.
        cfg = StabilityConfig(seed=30, realizations=6, snr_grid_db=(-5.0, 20.0),
                              train_epochs=400)
        res = run_stability(cfg, jobs=2)
        err = {(r[0], r[1]): r[4] for r in res.gap_matrix}
        assert err[(20.0, 20.0)] < err[(-5.0, -5.0)]

    def test_cell_fit_runs_one_layer_kernel_pair_per_epoch(self, monkeypatch):
        # Call budget of the width-1, one-layer fit read at level 1: levels 0
        # and 2 cannot reach the output, so each epoch is one forward and one
        # backward of the continuous layer kernel, counted, not timed.
        calls = _count_layer_kernels(monkeypatch)
        cfg = replace(StabilityConfig(), realizations=1, snr_grid_db=(0.0,), train_epochs=7)
        assert cfg.level == 1
        run_stability(cfg)
        assert calls == {"_cosimo_forward": 7, "_cosimo_backward": 7}

    def test_cells_of_a_realization_train_as_one_stack(self, monkeypatch):
        # Every SNR cell is one member of a stacked model, so a 2 x 2 grid
        # trained for 7 epochs still makes one kernel pair per epoch, not 4.
        calls = _count_layer_kernels(monkeypatch)
        cfg = replace(StabilityConfig(), realizations=1, snr_grid_db=(0.0, 20.0), train_epochs=7)
        res = run_stability(cfg)
        assert calls == {"_cosimo_forward": 7, "_cosimo_backward": 7}
        assert len(res.rows) == 4 and all(math.isfinite(row[6]) for row in res.rows)

    @pytest.mark.parametrize("snr_db, t", [(-20.0, None), (-5.0, 30.0)], ids=["-20dB", "-5dB-t30"])
    def test_overflowing_bound_is_infinite_and_holds(self, tmp_path, snr_db, t):
        # t * delta * e^{t delta} overflows a float at these cells: the bound
        # is then infinite and holds vacuously, with no numpy warning
        cfg = replace(StabilityConfig(), realizations=1, snr_grid_db=(snr_db,), train_epochs=0)
        if t is not None:
            cfg = replace(cfg, t_d=t, t_u=t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_stability(cfg, out_dir=tmp_path)
        assert res.violations == 0
        (row,) = res.rows
        assert math.isfinite(row[3]) and row[4] == math.inf and row[5] == math.inf
        (cell,) = res.gap_matrix
        assert cell[2] == math.inf and math.isnan(cell[3])
        csv_row = (tmp_path / "stability_results.csv").read_text().splitlines()[1].split(",")
        assert csv_row[4:6] == ["inf", "inf"]

    @pytest.mark.parametrize("t_d, t_u", [(math.inf, 2.0), (1.0, math.inf),
                                          (math.inf, math.inf)])
    def test_an_exact_side_adds_zero_at_infinite_time(self, t_d, t_u):
        # t * delta is inf * 0 on a side with no error; that side's clean and
        # perturbed Laplacians are the same, so it adds 0, not NaN
        cfg = StabilityConfig(realizations=1, snr_grid_db=(math.inf, 10.0), t_d=t_d, t_u=t_u,
                              train_epochs=0)
        res = run_stability(cfg)
        assert res.violations == 0
        rhs = {(row[0], row[1]): row[4] for row in res.rows}
        assert rhs[(math.inf, math.inf)] == 0.0
        assert not any(math.isnan(row[i]) for row in res.rows for i in (3, 4, 5))

    @pytest.mark.parametrize("experiment", ["oversmooth", "stability"])
    def test_an_empty_output_level_is_a_config_error(self, experiment):
        # a hole over the whole unit square leaves no triangle for level 2
        payload = {"experiment": experiment, "realizations": 1,
                   "complex": {"n_points": 10, "holes": [[0.5, 0.5, 2.0]]},
                   experiment: {"level": 2}}
        with pytest.raises(ConfigError) as err:
            {"oversmooth": run_oversmoothing, "stability": run_stability}[experiment](
                config_from_dict(payload))
        assert _error_paths(err.value) == {f"$.{experiment}.level"}

    def test_high_snr_shrinks_lhs(self):
        cfg_lo = StabilityConfig(seed=15, realizations=2, snr_grid_db=(0.0,), train_epochs=0)
        cfg_hi = StabilityConfig(seed=15, realizations=2, snr_grid_db=(60.0,), train_epochs=0)
        lo = run_stability(cfg_lo)
        hi = run_stability(cfg_hi)
        lhs_lo = np.mean([r[3] for r in lo.rows])
        lhs_hi = np.mean([r[3] for r in hi.rows])
        assert lhs_hi <= 1e-2 * lhs_lo

    @pytest.mark.parametrize("grid, shown", [((10.0, 10.0), "10, 10"), ((0.0, -0.0), "0, -0"),
                                             ((math.inf, 5.0, math.inf), "inf, 5, inf")])
    def test_a_repeated_snr_value_is_refused(self, grid, shown):
        # two cells under one label would read as one cell in the gap matrix
        cfg = StabilityConfig(realizations=2, snr_grid_db=grid, train_epochs=0)
        with pytest.raises(ConfigError, match=f"snr_grid_db: {shown} repeat a value$") as err:
            run_stability(cfg)
        assert _error_paths(err.value) == {"$.stability.snr_grid_db"}

    def test_gap_matrix_reads_each_cell_by_position(self):
        grid = (0.0, 20.0, math.inf)
        cfg = StabilityConfig(seed=7, realizations=3, snr_grid_db=grid, train_epochs=5)
        res = run_stability(cfg)
        cells = [(a, b) for a in grid for b in grid]
        assert len(res.rows) == 3 * len(cells)
        want = []
        for c, snr in enumerate(cells):
            # row c of every realization, in realization order
            cell = res.rows[c::len(cells)]
            assert [row[:3] for row in cell] == [(*snr, r) for r in range(3)]
            gaps, errs = np.array([row[5] for row in cell]), np.array([row[6] for row in cell])
            assert np.all(np.isfinite(gaps)) and np.all(np.isfinite(errs))
            want.append((*snr, gaps.mean(), gaps.std(), errs.mean(), errs.std()))
        np.testing.assert_array_equal(np.array(res.gap_matrix), np.array(want))


def unmemoized_walks(cplx, n_traj, min_len, rng_seed, turn_bias):
    """The walks of `generate_trajectories`, their candidates and labels,
    recomputing every step's neighbors and probabilities."""
    rng = np.random.default_rng(rng_seed)
    adj = {v: sorted(b if a == v else a for a, b in cplx.edges if v in (a, b)) for v in cplx.vertices}
    pos = cplx.positions

    def step_probs(cur, prev, nbrs):
        uniform = np.full(len(nbrs), 1.0 / len(nbrs))
        if pos is None or turn_bias == 0.0 or prev < 0:
            return uniform
        heading = pos[cur] - pos[prev]
        hn = np.linalg.norm(heading)
        if hn < 1e-12:
            return uniform
        logits = []
        for v in nbrs:
            d = pos[v] - pos[cur]
            dn = np.linalg.norm(d)
            logits.append(turn_bias * (float(heading @ d) / (hn * dn) if dn > 0 else 0.0))
        p = np.exp(np.array(logits) - max(logits))
        return p / p.sum()

    walks = []
    while len(walks) < n_traj:
        hops = int(min_len + rng.integers(0, 4))
        path, prev = [int(rng.integers(len(cplx.vertices)))], -1
        for _ in range(hops):
            cur = path[-1]
            nbrs = [v for v in adj[cur] if v != prev]
            if not nbrs:
                break
            path.append(int(rng.choice(nbrs, p=step_probs(cur, prev, nbrs))))
            prev = cur
        else:
            walks.append(tuple(path))
    return walks, [adj[walk[-2]] for walk in walks], [walk[-1] for walk in walks]


class TestTrajectories:
    def test_path_graph_has_forced_continuations(self):
        c = build_complex(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        data = generate_trajectories(c, 10, 2, rng_seed=0)
        for cand, walk in zip(data.candidates, data.trajectories):
            if walk[-2] in (1, 2, 3):
                assert len(cand) == 2
            else:
                assert len(cand) == 1

    def test_labels_always_candidates_and_edges_adjacent(self):
        cplx = delaunay_complex(random_points(30, rng_seed=16))
        data = generate_trajectories(cplx, 100, 4, rng_seed=17)
        edge_set = set(cplx.edges)
        for walk, cand, label in zip(data.trajectories, data.candidates, data.labels):
            assert label in cand
            assert sorted(cand) == cand
            for u, v in zip(walk, walk[1:]):
                assert (min(u, v), max(u, v)) in edge_set

    def test_uniform_guess_near_twenty_percent(self):
        cplx = delaunay_complex(random_points(30, rng_seed=18))
        data = generate_trajectories(cplx, 200, 4, rng_seed=19)
        baseline = np.mean([1.0 / len(c) for c in data.candidates])
        assert 0.12 <= baseline <= 0.3

    def test_flow_is_signed_prefix_encoding(self):
        cplx = delaunay_complex(random_points(15, rng_seed=20))
        data = generate_trajectories(cplx, 5, 3, rng_seed=21)
        for i, walk in enumerate(data.trajectories):
            flow = np.zeros(len(cplx.edges))
            for u, v in zip(walk[:-2], walk[1:-1]):
                e = (u, v) if u < v else (v, u)
                flow[cplx.edge_index[e]] += 1.0 if u < v else -1.0
            np.testing.assert_array_equal(data.flows[i][:, 0], flow)

    @pytest.mark.parametrize("positions, turn_bias", [(True, 3.0), (True, 0.0), (False, 3.0)])
    def test_walks_equal_an_unmemoized_reference(self, positions, turn_bias):
        # the steps weighed once per directed edge give the walks of steps
        # weighed afresh, from the same stream
        cplx = delaunay_complex(random_points(30, rng_seed=23))
        if not positions:
            cplx = build_complex(edges=cplx.edges, triangles=cplx.triangles)
            assert cplx.positions is None
        data = generate_trajectories(cplx, 200, 4, rng_seed=[5, 0, 1], turn_bias=turn_bias)
        want = unmemoized_walks(cplx, 200, 4, [5, 0, 1], turn_bias)
        assert (data.trajectories, data.candidates, data.labels) == want

    def test_retry_budget_error(self):
        c = build_complex(edges=[(0, 1)])
        with pytest.raises(RuntimeError, match="budget"):
            generate_trajectories(c, 5, 4, rng_seed=22)

    def test_no_walks_is_refused_by_name(self):
        c = delaunay_complex(random_points(12, rng_seed=3))
        for n_traj in (0, -1):
            with pytest.raises(ValueError, match=f"n_traj must be >= 1 walk, got {n_traj}"):
                generate_trajectories(c, n_traj, 2, rng_seed=0)


class TestTrajectoryRun:
    def test_untrained_model_is_near_baseline(self):
        # Identity activation: rectifiers zero out the negatively oriented
        # half of the flow, which biases the signed divergence readout away
        # from low-id candidates until training compensates.
        cfg = TrajectoryConfig(seed=23, epochs=0, activation="identity")
        accs, bases = [], []
        for r in range(10):
            fit = fit_trajectory_model(cfg, r=r)
            accs.append(fit.accuracy)
            bases.append(fit.baseline)
        assert abs(np.mean(accs) - np.mean(bases)) <= 0.10

    @pytest.mark.slow
    def test_training_beats_baseline_small_run(self):
        cfg = TrajectoryConfig(seed=24, epochs=150, realizations=1)
        fit = fit_trajectory_model(cfg, r=0)
        assert fit.accuracy >= fit.baseline + 0.10

    @pytest.mark.slow
    def test_branch_sweep_one_to_three_does_not_decrease(self):
        # each branch count's two realizations train in two processes
        accs = {m: run_trajectory(TrajectoryConfig(seed=0, branches=m, epochs=150, realizations=2),
                                  jobs=2).accuracy_mean
                for m in (1, 3)}
        assert accs[3] >= accs[1] - 0.03

    def test_training_and_scoring_read_one_candidate_score(self, monkeypatch):
        # the readout of each epoch and the test accuracy score walks alike
        calls = []
        score = experiments._candidate_scores
        monkeypatch.setattr(experiments, "_candidate_scores",
                            lambda *args: calls.append(1) or score(*args))
        fit_trajectory_model(TrajectoryConfig(realizations=1, epochs=3, n_trajectories=20))
        assert len(calls) == 3 + 1

    @pytest.mark.parametrize("setting", [{"n_trajectories": 1}, {"train_fraction": 0.01}])
    def test_split_without_training_walks_is_a_config_error(self, setting):
        # every walk lands in the test split, which the readout cannot train on
        with pytest.raises(ConfigError, match=r"train_fraction: .*n_trajectories = \d+ walks leaves no"):
            fit_trajectory_model(TrajectoryConfig(**setting))

    def test_complex_without_triangles_trains_and_scores(self):
        # a hole over the whole unit square removes every triangle, so the
        # model has no level 2; training and scoring must agree on that
        spec = ComplexSpec(n_points=10, holes=(((0.5, 0.5), 2.0),))
        cfg = TrajectoryConfig(seed=0, realizations=1, epochs=2, n_trajectories=30,
                               complex=spec)
        fit = fit_trajectory_model(cfg)
        assert fit.complex.num_simplices(2) == 0 and fit.model.levels == (0, 1)
        result = run_trajectory(cfg)
        assert result.rows[0][3] == fit.accuracy


# A small fit whose gradient clipping fires: prints a digest of its params.
_CLIPPED_FIT = """
import hashlib
from cosimo.experiments import TrajectoryConfig, fit_trajectory_model
fit = fit_trajectory_model(TrajectoryConfig(seed=7, n_trajectories=40, epochs=20, step_size=0.5))
h = hashlib.sha256()
for name, p in sorted(fit.model.params.items()):
    h.update(name.encode() + p.tobytes())
print(h.hexdigest())
"""


_TINY_RUNS = (
    (run_oversmoothing, OversmoothConfig(realizations=1, layers=2, t_grid=(0.1,)),
     ["oversmooth_manifest.json", "oversmooth_results.csv"]),
    (run_stability, StabilityConfig(realizations=1, snr_grid_db=(0.0,), train_epochs=0),
     ["stability_gap_matrix.csv", "stability_manifest.json", "stability_results.csv"]),
    (run_trajectory, TrajectoryConfig(realizations=1, epochs=0, n_trajectories=20),
     ["trajectory_manifest.json", "trajectory_results.csv"]),
)


class TestRunFiles:
    @pytest.mark.parametrize("runner, cfg, files", _TINY_RUNS,
                             ids=["oversmooth", "stability", "trajectory"])
    def test_a_run_leaves_exactly_its_own_files(self, tmp_path, runner, cfg, files):
        runner(cfg, out_dir=tmp_path / "out")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == files

    @pytest.mark.parametrize("runner, cfg", [run[:2] for run in _TINY_RUNS],
                             ids=["oversmooth", "stability", "trajectory"])
    def test_a_run_without_out_dir_writes_nothing(self, monkeypatch, runner, cfg):
        def refuse(*args, **kwargs):
            pytest.fail("a run without out_dir wrote a file")

        monkeypatch.setattr(experiments, "write_csv", refuse)
        monkeypatch.setattr(experiments, "write_manifest", refuse)
        runner(cfg)


class TestDeterminism:
    def test_clipped_fit_is_identical_across_hash_seeds(self):
        src = str(Path(cosimo.__file__).resolve().parents[1])
        digests = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-c", _CLIPPED_FIT],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            digests.add(proc.stdout.strip())
        assert len(digests) == 1

    def test_parallel_equals_sequential(self):
        cfg = OversmoothConfig(seed=25, realizations=2, layers=10)
        a = run_oversmoothing(cfg, jobs=1)
        b = run_oversmoothing(cfg, jobs=2)
        assert a.rows == b.rows

    def test_stability_csv_rerun_identical(self, tmp_path):
        cfg = StabilityConfig(
            seed=26, realizations=2, snr_grid_db=(0.0, 20.0), train_epochs=30
        )
        run_stability(cfg, out_dir=tmp_path / "a")
        run_stability(cfg, out_dir=tmp_path / "b")
        for name in ("stability_results.csv", "stability_gap_matrix.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_holds_config_echo(self, tmp_path):
        cfg = TrajectoryConfig(seed=27, realizations=1, epochs=5, n_trajectories=30)
        run_trajectory(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "trajectory_manifest.json").read_text())
        assert manifest["experiment"] == "trajectory"
        assert manifest["config"]["seed"] == 27
        assert config_from_dict(manifest["config"]) == cfg
        assert "created_unix" in manifest

    def test_manifest_records_parallelism(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = OversmoothConfig(seed=28, realizations=2, layers=3)
        run_oversmoothing(cfg, tmp_path, jobs=2)
        manifest = json.loads((tmp_path / "oversmooth_manifest.json").read_text())
        assert config_from_dict(manifest["config"]) == cfg
        assert manifest["jobs"] == 2
        assert manifest["cpu_count"] == os.cpu_count()
        assert manifest["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": None,
        }
